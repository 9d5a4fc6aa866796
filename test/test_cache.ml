(* Tests for the solved-instance cache: the canonical content hash
   (arena- and representation-independent, agreeing exactly with
   [Graph.equal]), the byte-budget LRU against an assoc-list reference
   model, bit-identity of cache hits and warm-started solves with fresh
   solves, the sampled-audit rejection of a poisoned entry, and the
   persistent disk tier. *)

module G = Ps_graph.Graph
module H = Ps_hypergraph.Hypergraph
module Hgen = Ps_hypergraph.Hgen
module Pl = Ps_core.Pipeline
module Rd = Ps_core.Reduction
module Cache = Ps_cache.Cache
module Lru = Ps_cache.Lru
module P = Ps_server.Protocol
module Json = Ps_server.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Graph content hash *)

let graph_gen =
  QCheck.make
    ~print:(fun (n, edges, _) ->
      Printf.sprintf "n=%d edges=%s" n
        (String.concat ","
           (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) edges)))
    QCheck.Gen.(
      int_range 2 40 >>= fun n ->
      list_size (int_bound 80)
        (pair (int_bound (n - 1)) (int_bound (n - 1)))
      >>= fun raw ->
      int >>= fun salt ->
      let edges = List.filter (fun (u, v) -> u <> v) raw in
      return (n, edges, salt))

let qcheck_hash_arena_independent =
  QCheck.Test.make ~count:100
    ~name:"content_hash is arena-independent"
    graph_gen
    (fun (n, edges, _) ->
      let g = G.of_edges n edges in
      let arena, _ = Test_kernel.arena_of g in
      Int64.equal (G.content_hash g) (G.content_hash arena))

let qcheck_hash_iff_equal =
  (* Over pairs from the same family: hash equality must coincide with
     structural equality in both directions.  (⟸ is unconditional; a ⟹
     failure would be a 2^-64 collision, which qcheck will never draw.) *)
  QCheck.Test.make ~count:200
    ~name:"content_hash equal iff Graph.equal"
    (QCheck.pair graph_gen graph_gen)
    (fun ((n1, e1, _), (n2, e2, _)) ->
      let a = G.of_edges n1 e1 and b = G.of_edges n2 e2 in
      Bool.equal
        (Int64.equal (G.content_hash a) (G.content_hash b))
        (G.equal a b))

let qcheck_hash_permutation =
  (* Relabeling by a non-trivial permutation changes the adjacency
     content (unless it happens to be an automorphism), and the hash
     must track Graph.equal exactly either way. *)
  QCheck.Test.make ~count:200
    ~name:"content_hash tracks Graph.equal under vertex permutation"
    graph_gen
    (fun (n, edges, salt) ->
      let g = G.of_edges n edges in
      let perm = Array.init n Fun.id in
      let rng = Ps_util.Rng.create salt in
      for i = n - 1 downto 1 do
        let j = Ps_util.Rng.int rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let permuted =
        G.of_edges n (List.map (fun (u, v) -> (perm.(u), perm.(v))) edges)
      in
      Bool.equal
        (Int64.equal (G.content_hash g) (G.content_hash permuted))
        (G.equal g permuted))

let test_hypergraph_hash () =
  let h1 = Hgen.sunflower ~n_petals:6 ~core:2 ~petal:3 in
  let h2 = Hgen.sunflower ~n_petals:6 ~core:2 ~petal:3 in
  let h3 = Hgen.sunflower ~n_petals:7 ~core:2 ~petal:3 in
  check_bool "equal hypergraphs hash equal" true
    (Int64.equal (Cache.hypergraph_hash h1) (Cache.hypergraph_hash h2));
  check_bool "different hypergraphs hash apart" false
    (Int64.equal (Cache.hypergraph_hash h1) (Cache.hypergraph_hash h3))

(* ------------------------------------------------------------------ *)
(* LRU vs an assoc-list reference model *)

(* The reference: MRU-first assoc list of (key, cost), total bytes, and
   an eviction counter.  [put] removes any existing binding, conses the
   new one in front, then drops from the tail while over budget —
   exactly the documented Lru contract. *)
type model = {
  mutable entries : (string * int) list;  (* MRU first *)
  budget : int;
  mutable evicted : int;
}

let model_bytes m = List.fold_left (fun a (_, c) -> a + c) 0 m.entries

let model_put m key cost =
  m.entries <- (key, cost) :: List.remove_assoc key m.entries;
  while model_bytes m > m.budget do
    match List.rev m.entries with
    | [] -> assert false
    | (k, _) :: _ ->
        m.entries <- List.filter (fun (k', _) -> not (String.equal k' k)) m.entries;
        m.evicted <- m.evicted + 1
  done

let model_find m key =
  match List.assoc_opt key m.entries with
  | None -> false
  | Some cost ->
      m.entries <- (key, cost) :: List.remove_assoc key m.entries;
      true

type op = Put of string * int | Find of string

let op_gen =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Put (k, c) -> Printf.sprintf "put %s %d" k c
             | Find k -> Printf.sprintf "find %s" k)
           ops))
    QCheck.Gen.(
      let key = map (fun i -> String.make 1 (Char.chr (Char.code 'a' + i)))
          (int_bound 5) in
      list_size (int_bound 120)
        (oneof
           [ map2 (fun k c -> Put (k, c)) key (int_bound 12);
             map (fun k -> Find k) key ]))

let qcheck_lru_model =
  QCheck.Test.make ~count:300 ~name:"Lru agrees with the reference model"
    op_gen
    (fun ops ->
      let budget = 20 in
      let lru = Lru.create ~budget in
      let m = { entries = []; budget; evicted = 0 } in
      List.iter
        (fun op ->
          (match op with
          | Put (k, c) ->
              Lru.put lru k () ~cost:c;
              model_put m k c
          | Find k ->
              let hit = Option.is_some (Lru.find lru k) in
              let model_hit = model_find m k in
              if not (Bool.equal hit model_hit) then
                QCheck.Test.fail_reportf "find %s: lru=%b model=%b" k hit
                  model_hit);
          let lru_list = Lru.to_list lru in
          if not (List.equal (fun (k, c) (k', c') ->
                      String.equal k k' && Int.equal c c')
                    lru_list m.entries)
          then QCheck.Test.fail_reportf "recency order diverged";
          if Lru.bytes lru <> model_bytes m then
            QCheck.Test.fail_reportf "bytes diverged";
          if Lru.evictions lru <> m.evicted then
            QCheck.Test.fail_reportf "evictions diverged: lru=%d model=%d"
              (Lru.evictions lru) m.evicted)
        ops;
      true)

let test_lru_directed () =
  let lru = Lru.create ~budget:10 in
  Lru.put lru "a" 1 ~cost:4;
  Lru.put lru "b" 2 ~cost:4;
  (* Promote "a"; inserting "c" must now evict "b", the LRU entry. *)
  check_bool "find a" true (Option.is_some (Lru.find lru "a"));
  Lru.put lru "c" 3 ~cost:4;
  check_bool "b evicted" true (Lru.peek lru "b" = None);
  check_bool "a kept" true (Option.is_some (Lru.peek lru "a"));
  check_int "one eviction" 1 (Lru.evictions lru);
  (* An entry larger than the whole budget flushes the tail on its way
     in and then gets evicted itself — nothing sticks. *)
  Lru.put lru "huge" 4 ~cost:99;
  check_bool "huge rejected" true (Lru.peek lru "huge" = None);
  check_int "oversized put flushed everything" 0 (Lru.length lru);
  (* Shrinking the budget evicts down to it. *)
  Lru.put lru "d" 5 ~cost:4;
  Lru.put lru "e" 6 ~cost:4;
  Lru.set_budget lru 4;
  check_int "shrunk to one entry" 1 (Lru.length lru);
  check_bool "survivor is the MRU entry" true (Option.is_some (Lru.peek lru "e"));
  check_bool "remove" true (Lru.remove lru "e");
  check_int "empty" 0 (Lru.length lru)

(* ------------------------------------------------------------------ *)
(* Bit-identity: hits and warm starts vs fresh solves *)

let greedy = Ps_maxis.Approx.greedy_min_degree
let caro_wei = Ps_maxis.Approx.caro_wei

(* Kernel presolve and derived k unless given: the defaults of a wire
   request that names only a solver and a seed. *)
let spec ?(presolve = `Kernel) ?k ~seed solver =
  { Ps_core.Solve_spec.solver; presolve; k; seed }

let result_fingerprint r =
  (* The full wire rendering: multicoloring, phase records, certificate
     verdicts.  Byte equality here is the "bit-identical" contract. *)
  Json.to_string (P.reduce_result ~detail:true r)

let hypergraph_cases =
  [ ("sunflower", Hgen.sunflower ~n_petals:8 ~core:3 ~petal:3);
    ("intervals", Hgen.all_intervals_of_length ~n:40 ~len:6);
    ( "uniform",
      Hgen.uniform_random (Ps_util.Rng.create 7) ~n:30 ~m:25 ~k:4 ) ]

let test_hit_bit_identical () =
  List.iter
    (fun (name, h) ->
      let fresh =
        Pl.solve_unchecked ~seed:3 ~solver:Ps_maxis.Approx.greedy_min_degree h
      in
      let cache = Cache.create () in
      let miss =
        Cache.solve cache (spec ~seed:3 greedy) h
      in
      let hit =
        Cache.solve cache (spec ~seed:3 greedy) h
      in
      check_string (name ^ ": miss = fresh") (result_fingerprint fresh)
        (result_fingerprint miss);
      check_string (name ^ ": hit = fresh") (result_fingerprint fresh)
        (result_fingerprint hit);
      let s = Cache.stats cache in
      check_int (name ^ ": one hit") 1 s.Cache.hits;
      check_int (name ^ ": one miss") 1 s.Cache.misses)
    hypergraph_cases

let test_warm_start_bit_identical () =
  List.iter
    (fun (name, h) ->
      let cache = Cache.create () in
      (* Prime result + warm tiers with one solver... *)
      ignore
        (Cache.solve cache (spec ~seed:0 greedy) h
          : Pl.result);
      (* ...then solve with a different solver: result-tier miss, but
         the phase-0 CSR replays from the warm tier. *)
      let warmed =
        Cache.solve cache (spec ~seed:5 caro_wei) h
      in
      let fresh = Pl.solve_unchecked ~seed:5 ~solver:Ps_maxis.Approx.caro_wei h in
      check_string (name ^ ": warm-started = fresh")
        (result_fingerprint fresh) (result_fingerprint warmed);
      let s = Cache.stats cache in
      check_int (name ^ ": warm tier hit once") 1 s.Cache.warm_hits;
      check_bool (name ^ ": warm tier populated") true (s.Cache.warm_entries >= 1))
    hypergraph_cases

let qcheck_cached_solve_bit_identical =
  QCheck.Test.make ~count:30
    ~name:"cached solve bit-identical to fresh across random instances"
    (QCheck.make
       ~print:(fun (seed, n, m) -> Printf.sprintf "seed=%d n=%d m=%d" seed n m)
       QCheck.Gen.(triple (int_bound 1000) (int_range 6 24) (int_range 4 30)))
    (fun (seed, n, m) ->
      let h = Hgen.uniform_random (Ps_util.Rng.create seed) ~n ~m ~k:3 in
      let fresh =
        Pl.solve_unchecked ~seed ~solver:Ps_maxis.Approx.caro_wei h
      in
      let cache = Cache.create () in
      let solve () =
        Cache.solve cache (spec ~seed:seed caro_wei) h
      in
      let miss = solve () in
      let hit = solve () in
      String.equal (result_fingerprint fresh) (result_fingerprint miss)
      && String.equal (result_fingerprint fresh) (result_fingerprint hit)
      && (Cache.stats cache).Cache.hits = 1)

(* ------------------------------------------------------------------ *)
(* Poisoned entries: the sampled audit must catch and drop them *)

let poison r =
  (* Blank the multicoloring but keep the (now lying) certificate: the
     store-side all_ok check passes, only a read-side re-certification
     can notice. *)
  { r with
    Pl.reduction =
      { r.Pl.reduction with
        Rd.multicoloring =
          Array.map (fun _ -> []) r.Pl.reduction.Rd.multicoloring } }

let audit_all_config =
  { Cache.default_config with audit_rate = 1.0 }

let test_poisoned_entry_dropped () =
  let h = Hgen.sunflower ~n_petals:8 ~core:3 ~petal:3 in
  let good =
    Pl.solve_unchecked ~seed:0 ~solver:Ps_maxis.Approx.greedy_min_degree h
  in
  let cache = Cache.create ~config:audit_all_config () in
  Cache.store_solve cache (spec ~seed:0 greedy) (poison good);
  check_int "poisoned entry stored" 1 (Cache.stats cache).Cache.entries;
  (* The audit-on-hit must reject it and fall through to a miss... *)
  check_bool "find returns nothing" true
    (Cache.find_solve cache (spec ~seed:0 greedy) h = None);
  let s = Cache.stats cache in
  check_int "audit ran" 1 s.Cache.audits;
  check_int "entry poisoned" 1 s.Cache.poisoned;
  check_int "entry dropped" 0 s.Cache.entries;
  check_int "never served as a hit" 0 s.Cache.hits;
  (* ...and a full cached solve now recomputes a correct result. *)
  let r =
    Cache.solve cache (spec ~seed:0 greedy) h
  in
  check_string "recovered result is the fresh one" (result_fingerprint good)
    (result_fingerprint r)

let test_clean_entry_survives_audit () =
  let h = Hgen.sunflower ~n_petals:8 ~core:3 ~petal:3 in
  let cache = Cache.create ~config:audit_all_config () in
  ignore
    (Cache.solve cache (spec ~seed:0 greedy) h
      : Pl.result);
  (* Every hit is audited at rate 1.0; a clean entry keeps serving. *)
  for _ = 1 to 3 do
    check_bool "served" true
      (Cache.find_solve cache (spec ~seed:0 greedy) h <> None)
  done;
  let s = Cache.stats cache in
  check_int "three audits" 3 s.Cache.audits;
  check_int "none poisoned" 0 s.Cache.poisoned;
  check_int "three hits" 3 s.Cache.hits

(* ------------------------------------------------------------------ *)
(* Key separation and the opaque graph tier *)

let test_key_separation () =
  let h = Hgen.sunflower ~n_petals:8 ~core:3 ~petal:3 in
  let cache = Cache.create () in
  ignore
    (Cache.solve cache (spec ~seed:0 greedy) h
      : Pl.result);
  (* Different solver, seed, or k must all miss. *)
  check_bool "other solver misses" true
    (Cache.find_solve cache (spec ~seed:0 caro_wei) h = None);
  check_bool "other seed misses" true
    (Cache.find_solve cache (spec ~seed:1 greedy) h = None);
  check_bool "explicit k misses" true
    (Cache.find_solve cache (spec ~k:3 ~seed:0 greedy) h = None);
  check_bool "same request hits" true
    (Cache.find_solve cache (spec ~seed:0 greedy) h <> None)

let test_graph_tier () =
  let g = G.of_edges 6 [ (0, 1); (1, 2); (2, 3); (4, 5) ] in
  let cache = Cache.create () in
  check_bool "cold" true
    (Cache.find_graph_result cache ~kind:Cache.Mis ~solver_name:"all" ~seed:0 g
    = None);
  Cache.store_graph_result cache ~kind:Cache.Mis ~solver_name:"all" ~seed:0 g
    "{\"payload\":1}";
  check_bool "hit" true
    (Cache.find_graph_result cache ~kind:Cache.Mis ~solver_name:"all" ~seed:0 g
    = Some "{\"payload\":1}");
  (* Kind partitions the key space. *)
  check_bool "other kind misses" true
    (Cache.find_graph_result cache ~kind:Cache.Decompose ~solver_name:"all"
       ~seed:0 g
    = None)

(* ------------------------------------------------------------------ *)
(* Disk tier *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ps_cache_test_%d" (Unix.getpid ()))
  in
  let rec clean d =
    if Sys.file_exists d then begin
      Array.iter
        (fun f ->
          let p = Filename.concat d f in
          if Sys.is_directory p then clean p else Sys.remove p)
        (Sys.readdir d);
      Unix.rmdir d
    end
  in
  clean dir;
  Fun.protect ~finally:(fun () -> clean dir) (fun () -> f dir)

let test_disk_tier_roundtrip () =
  with_temp_dir @@ fun dir ->
  let h = Hgen.sunflower ~n_petals:8 ~core:3 ~petal:3 in
  let config = { Cache.default_config with dir = Some dir } in
  let c1 = Cache.create ~config () in
  let r1 =
    Cache.solve c1 (spec ~seed:0 greedy) h
  in
  let entries, bytes = Cache.dir_stats dir in
  check_int "one entry on disk" 1 entries;
  check_bool "entry has bytes" true (bytes > 0);
  (* A fresh process (new cache over the same dir) reads it back. *)
  let c2 = Cache.create ~config () in
  let r2 =
    Cache.solve c2 (spec ~seed:0 greedy) h
  in
  check_string "disk hit bit-identical" (result_fingerprint r1)
    (result_fingerprint r2);
  let s = Cache.stats c2 in
  check_int "served from disk" 1 s.Cache.disk_hits;
  check_int "counted as a hit" 1 s.Cache.hits;
  check_int "dir_list one key" 1 (List.length (Cache.dir_list dir));
  check_int "dir_clear removes it" 1 (Cache.dir_clear dir);
  check_bool "dir empty" true (Cache.dir_stats dir = (0, 0))

(* The persisted key format, byte for byte: entries written by an older
   build must keep matching.  Both strings were read back from a build
   whose callers passed the effective solver name by hand. *)
let test_disk_keys_pinned () =
  with_temp_dir @@ fun dir ->
  let h = Hgen.sunflower ~n_petals:8 ~core:3 ~petal:3 in
  let cache =
    Cache.create ~config:{ Cache.default_config with dir = Some dir } ()
  in
  let store spec = ignore (Cache.solve cache spec h : Pl.result) in
  store (spec ~seed:0 greedy);
  store (spec ~presolve:`None ~k:3 ~seed:5 caro_wei);
  check_string "engine version" "2" Cache.engine_version;
  Alcotest.(check (list string))
    "keys"
    [ "v2:solve:86563ec64c72bbc6:k3:caro-wei:s5";
      "v2:solve:86563ec64c72bbc6:kauto:kernel+greedy-min-degree:s0" ]
    (List.sort String.compare (List.map fst (Cache.dir_list dir)))

let test_disk_tier_corruption_ignored () =
  with_temp_dir @@ fun dir ->
  let h = Hgen.sunflower ~n_petals:8 ~core:3 ~petal:3 in
  let config = { Cache.default_config with dir = Some dir } in
  let c1 = Cache.create ~config () in
  ignore
    (Cache.solve c1 (spec ~seed:0 greedy) h
      : Pl.result);
  (* Flip bytes in the middle of the entry file: the checksum must
     reject it and the cache must fall back to a fresh solve. *)
  (match Cache.dir_list dir with
  | [ _ ] -> ()
  | l -> Alcotest.failf "expected 1 entry, got %d" (List.length l));
  Array.iter
    (fun f ->
      let path = Filename.concat dir f in
      let ic = open_in_bin path in
      let s = Bytes.of_string (In_channel.input_all ic) in
      close_in ic;
      let mid = Bytes.length s / 2 in
      Bytes.set s mid (Char.chr (Char.code (Bytes.get s mid) lxor 0xff));
      let oc = open_out_bin path in
      output_bytes oc s;
      close_out oc)
    (Sys.readdir dir);
  let c2 = Cache.create ~config () in
  let r =
    Cache.solve c2 (spec ~seed:0 greedy) h
  in
  check_bool "recovered with a fresh, certified solve" true
    r.Pl.certificate.Ps_core.Certify.all_ok;
  let s = Cache.stats c2 in
  check_int "no disk hit from the corrupt file" 0 s.Cache.disk_hits;
  check_int "counted as a miss" 1 s.Cache.misses

(* ------------------------------------------------------------------ *)

let suites =
  [ ( "cache:hash",
      List.map QCheck_alcotest.to_alcotest
        [ qcheck_hash_arena_independent; qcheck_hash_iff_equal;
          qcheck_hash_permutation ]
      @ [ Alcotest.test_case "hypergraph hash" `Quick test_hypergraph_hash ] );
    ( "cache:lru",
      [ QCheck_alcotest.to_alcotest qcheck_lru_model;
        Alcotest.test_case "directed" `Quick test_lru_directed ] );
    ( "cache:solve",
      [ Alcotest.test_case "hit bit-identical" `Quick test_hit_bit_identical;
        Alcotest.test_case "warm start bit-identical" `Quick
          test_warm_start_bit_identical;
        QCheck_alcotest.to_alcotest qcheck_cached_solve_bit_identical;
        Alcotest.test_case "poisoned entry dropped" `Quick
          test_poisoned_entry_dropped;
        Alcotest.test_case "clean entry survives audit" `Quick
          test_clean_entry_survives_audit;
        Alcotest.test_case "key separation" `Quick test_key_separation;
        Alcotest.test_case "graph tier" `Quick test_graph_tier ] );
    ( "cache:disk",
      [ Alcotest.test_case "roundtrip" `Quick test_disk_tier_roundtrip;
        Alcotest.test_case "keys pinned" `Quick test_disk_keys_pinned;
        Alcotest.test_case "corruption ignored" `Quick
          test_disk_tier_corruption_ignored ] ) ]
