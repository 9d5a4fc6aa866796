(* Tests for the at-scale machinery: the zero-copy view and the to_csr
   copy contract, sharded parallel cursors,
   streaming Gio/Hio, and the huge-instance generators.  The list
   constructors are the oracle throughout: every streaming path must
   produce a Graph.equal result. *)

module G = Ps_graph.Graph
module Gen = Ps_graph.Gen
module Gio = Ps_graph.Gio
module H = Ps_hypergraph.Hypergraph
module Hio = Ps_hypergraph.Hio
module Hgen = Ps_hypergraph.Hgen
module Cg = Ps_core.Conflict_graph
module P = Ps_util.Parallel
module Is = Ps_maxis.Independent_set
module Greedy = Ps_maxis.Greedy
module Cw = Ps_maxis.Caro_wei
module Rng = Ps_util.Rng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* to_csr copy contract and csr_view *)

let test_to_csr_copies () =
  (* The mli pins this: to_csr returns fresh, exact-length int arrays —
     mutating them must not perturb the graph. *)
  let g = Gen.gnp (Rng.create 3) 30 0.2 in
  let reference = Gen.gnp (Rng.create 3) 30 0.2 in
  let offsets, adj = G.to_csr g in
  check "offsets exact length" (G.n_vertices g + 1) (Array.length offsets);
  check "adj exact length" (2 * G.n_edges g) (Array.length adj);
  offsets.(0) <- 999;
  if Array.length adj > 0 then adj.(0) <- 999;
  check_bool "graph unchanged by mutation" true (G.equal g reference);
  let o2, a2 = G.to_csr g in
  check_bool "second copy pristine" true (o2.(0) = 0 && (a2 = snd (G.to_csr reference)))

let test_csr_view_zero_copy () =
  let g = Gen.gnp (Rng.create 5) 20 0.3 in
  let v = G.csr_view g in
  let v' = G.csr_view g in
  check_bool "offsets aliased, not copied" true (v.G.v_offsets == v'.G.v_offsets);
  check_bool "exact graph flagged exact" true v.G.v_exact;
  check "store length" (2 * G.n_edges g) v.G.v_store_len;
  (* The store must hold the same adjacency the accessors expose. *)
  let ok = ref true in
  for x = 0 to G.n_vertices g - 1 do
    let row = G.neighbors g x in
    let lo = v.G.v_offsets.(x) in
    Array.iteri
      (fun i u -> if Int32.to_int v.G.v_store.{lo + i} <> u then ok := false)
      row
  done;
  check_bool "view store matches neighbors" true !ok

let test_csr_view_prefix () =
  (* Arena-backed prefix: spare capacity visible as store_len slack. *)
  let offsets = [| 0; 1; 3; 4; 99; 99 |] in
  let adj = Test_graph.i32 [| 1; 0; 2; 1; 77; 77 |] in
  let g = G.of_csr_prefix ~validate:true 3 ~offsets ~adj in
  let v = G.csr_view g in
  check_bool "prefix flagged inexact" true (not v.G.v_exact);
  check "physical store length" 6 v.G.v_store_len;
  check "logical arcs" 4 v.G.v_offsets.(3);
  check_bool "certifier accepts prefix" true (Ps_check.Check_graph.csr_ok g)

let test_check_accepts_i32 () =
  let g = Gen.gnp (Rng.create 6) 40 0.15 in
  check_bool "certifier audits i32 store" true (Ps_check.Check_graph.csr_ok g)

(* ------------------------------------------------------------------ *)
(* Sharded cursor *)

let test_sharded_cursor_coverage () =
  (* Domain 0 drains its shard then steals the rest: with nobody else
     pulling, it must see every index exactly once. *)
  let cur = P.Sharded_cursor.create ~domains:3 ~chunk:7 ~lo:5 ~hi:105 () in
  let seen = Array.make 105 0 in
  P.Sharded_cursor.drain cur 0 (fun i -> seen.(i) <- seen.(i) + 1);
  let ok = ref true in
  for i = 0 to 104 do
    let want = if i >= 5 then 1 else 0 in
    if seen.(i) <> want then ok := false
  done;
  check_bool "each index claimed exactly once (with stealing)" true !ok;
  check_bool "drained cursor yields None" true
    (P.Sharded_cursor.next cur 1 = None)

let test_sharded_cursor_split_coverage () =
  (* Interleaved pulls from every domain still partition the range. *)
  let domains = 4 in
  let cur = P.Sharded_cursor.create ~domains ~chunk:3 ~lo:0 ~hi:50 () in
  let seen = Array.make 50 0 in
  let live = ref domains in
  let exhausted = Array.make domains false in
  while !live > 0 do
    for d = 0 to domains - 1 do
      if not exhausted.(d) then
        match P.Sharded_cursor.next cur d with
        | Some (lo, hi) ->
            for i = lo to hi - 1 do
              seen.(i) <- seen.(i) + 1
            done
        | None ->
            exhausted.(d) <- true;
            decr live
    done
  done;
  check_bool "interleaved claims partition the range" true
    (Array.for_all (fun c -> c = 1) seen)

let test_sharded_cursor_empty_and_invalid () =
  let cur = P.Sharded_cursor.create ~domains:2 ~lo:3 ~hi:3 () in
  check_bool "empty range" true (P.Sharded_cursor.next cur 0 = None);
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  check_bool "domains < 1 rejected" true
    (raises (fun () -> P.Sharded_cursor.create ~domains:0 ~lo:0 ~hi:1 ()));
  check_bool "chunk < 1 rejected" true
    (raises (fun () ->
         P.Sharded_cursor.create ~domains:1 ~chunk:0 ~lo:0 ~hi:1 ()));
  check_bool "hi < lo rejected" true
    (raises (fun () -> P.Sharded_cursor.create ~domains:1 ~lo:2 ~hi:1 ()))

let test_effective_domains_clamps () =
  (* The one clamping rule: explicit requests honored then clamped to
     [1, max slices 1]; requested = 0 scales by auto_units_per_domain. *)
  check "explicit honored" 5
    (P.effective_domains ~requested:5 ~units:1 ~slices:100);
  check "clamped to slices" 2
    (P.effective_domains ~requested:5 ~units:1_000_000 ~slices:2);
  check "at least one" 1 (P.effective_domains ~requested:0 ~units:0 ~slices:0);
  check "auto under one quantum stays sequential" 1
    (P.effective_domains ~requested:0 ~units:(P.auto_units_per_domain - 1)
       ~slices:1000)

(* ------------------------------------------------------------------ *)
(* Streaming I/O at scale *)

let test_gio_streaming_roundtrip_1e6 () =
  (* ~10^6-edge round trip through the streaming writer and parser; the
     read-back must equal the generator's graph. *)
  let n = 2000 in
  let g = Gen.huge_gnp (Rng.create 11) n 0.5 in
  check_bool "instance is ~1e6 edges" true (G.n_edges g > 900_000);
  let path = Filename.temp_file "pslocal_scale" ".el" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Gio.write_file path g;
      let back = Gio.read_file path in
      check_bool "roundtrip equal" true (G.equal g back))

(* The split reader is bit-identical to the one-domain reader on a
   skewed R-MAT file for every domain count, and rejects what the
   builder must: endpoints past [n], self-loops, negative ids. *)
let test_gio_split_read_identical () =
  let g = Gen.rmat (Rng.create 21) ~scale:12 ~edges:40_000 in
  let path = Filename.temp_file "pslocal_scale" ".el" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Gio.write_file path g;
      List.iter
        (fun d ->
          let back = Gio.read_file ~domains:d path in
          check_bool
            (Printf.sprintf "domains %d equal" d)
            true (G.equal g back);
          check_bool
            (Printf.sprintf "domains %d hash" d)
            true
            (Int64.equal (G.content_hash g) (G.content_hash back)))
        [ 0; 1; 2; 3 ]);
  let rejects name f =
    check_bool name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  let one u v =
    let p = G.Pairs.create () in
    G.Pairs.push p u v;
    p
  in
  rejects "endpoint >= n" (fun () -> G.of_pair_chunks 3 [| one 0 3 |]);
  rejects "self-loop" (fun () ->
      G.of_pair_chunks 3 [| G.Pairs.create (); one 2 2 |]);
  rejects "negative id" (fun () -> one (-1) 0);
  rejects "id past the int32 range" (fun () -> one 0 (G.max_vertices + 1))

let test_gio_write_edges_file_stream () =
  (* Generator -> sink -> parser without materializing a graph on the
     write side; duplicates collapse on read, matching Gen.rmat. *)
  let scale = 10 and edges = 4000 in
  let path = Filename.temp_file "pslocal_scale" ".el" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Gio.write_edges_file path ~n:(1 lsl scale) ~m:edges (fun add ->
          Gen.iter_rmat (Rng.create 12) ~scale ~edges (fun u v -> add u v));
      let back = Gio.read_file path in
      let direct = Gen.rmat (Rng.create 12) ~scale ~edges in
      check_bool "streamed file = collected graph" true (G.equal back direct))

let test_hio_streaming_roundtrip () =
  let h =
    Hgen.almost_uniform_random (Rng.create 13) ~n:4000 ~m:50_000 ~k:6 ~eps:0.5
  in
  let path = Filename.temp_file "pslocal_scale" ".hg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Hio.write_file path h;
      check_bool "hypergraph roundtrip" true (H.equal h (Hio.read_file path)))

let test_of_member_arrays_normalizes () =
  (* Takes ownership: unsorted, duplicated members must normalize to the
     of_edges result. *)
  let a = H.of_member_arrays 5 [| [| 3; 1; 3; 0 |]; [| 4; 4; 2 |] |] in
  let b = H.of_edges 5 [ [ 0; 1; 3 ]; [ 2; 4 ] ] in
  check_bool "normalized equal" true (H.equal a b)

(* ------------------------------------------------------------------ *)
(* Huge-instance generators *)

let test_iter_gnp_matches_gnp () =
  let n = 300 and p = 0.05 in
  let g = Gen.gnp (Rng.create 14) n p in
  let count = ref 0 in
  let ok = ref true in
  Gen.iter_gnp (Rng.create 14) n p (fun u v ->
      incr count;
      if not (G.has_edge g u v) then ok := false);
  check "same edge count" (G.n_edges g) !count;
  check_bool "same edges" true !ok

let test_huge_gnp_equals_gnp () =
  let n = 400 and p = 0.03 in
  check_bool "same graph for same seed" true
    (G.equal (Gen.gnp (Rng.create 15) n p) (Gen.huge_gnp (Rng.create 15) n p))

let test_rmat_well_formed () =
  let g = Gen.rmat (Rng.create 16) ~scale:11 ~edges:20_000 in
  check "vertex count is 2^scale" (1 lsl 11) (G.n_vertices g);
  check_bool "duplicates collapsed" true (G.n_edges g <= 20_000);
  check_bool "skewed: emitted a nontrivial graph" true (G.n_edges g > 10_000);
  check_bool "certified csr" true (Ps_check.Check_graph.csr_ok g);
  let emitted = ref 0 in
  Gen.iter_rmat (Rng.create 16) ~scale:11 ~edges:20_000 (fun u v ->
      incr emitted;
      if u = v || u < 0 || v < 0 || u >= 1 lsl 11 || v >= 1 lsl 11 then
        Alcotest.fail "rmat pair out of spec");
  check "iter_rmat emits exactly the requested pairs" 20_000 !emitted

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let arbitrary_gnp =
  QCheck.make
    ~print:(fun (seed, n, p) ->
      Printf.sprintf "gnp seed=%d n=%d p=%d%%" seed n p)
    QCheck.Gen.(triple (int_bound 1000) (int_range 1 40) (int_bound 100))

let graph_of (seed, n, p) =
  Gen.gnp (Rng.create seed) n (float_of_int p /. 100.0)

let prop_unnormalized_pairs_oracle =
  QCheck.Test.make ~count:100
    ~name:"of_unnormalized_pairs = of_edges" arbitrary_gnp
    (fun ((seed, n, _) as params) ->
      let g = graph_of params in
      (* Re-emit each edge in a random orientation, with random
         duplicates, in scrambled order. *)
      let rng = Rng.create (seed + 77) in
      let pairs = ref [] in
      G.iter_edges g (fun u v ->
          let emit () =
            pairs :=
              (if Rng.bernoulli rng 0.5 then (u, v) else (v, u)) :: !pairs
          in
          emit ();
          if Rng.bernoulli rng 0.3 then emit ());
      let buf = G.Pairs.create () in
      List.iter (fun (u, v) -> G.Pairs.push buf u v) !pairs;
      G.equal g (G.of_unnormalized_pairs n buf))

(* The chunked builder against the list oracle: every edge once in a
   random orientation, a third of them again in the other one and some
   again in the same, shuffled, then cut at random points into up to
   six chunks (empty ones included).  The CSR must equal [of_edges] and
   hash like it, and must pass full structural validation as an exact
   store, which is what [PSLOCAL_DEBUG=1] runs on every ingest. *)
let prop_pair_chunks_oracle =
  QCheck.Test.make ~count:200
    ~name:"of_pair_chunks over random chunkings = of_edges" arbitrary_gnp
    (fun ((seed, n, _) as params) ->
      let g = graph_of params in
      let rng = Rng.create (seed + 91) in
      let pairs = ref [] in
      G.iter_edges g (fun u v ->
          let u, v = if Rng.bool rng then (u, v) else (v, u) in
          pairs := (u, v) :: !pairs;
          if Rng.bernoulli rng 0.3 then pairs := (v, u) :: !pairs;
          if Rng.bernoulli rng 0.2 then pairs := (u, v) :: !pairs);
      let pairs = Array.of_list !pairs in
      Rng.shuffle_in_place rng pairs;
      let len = Array.length pairs in
      let cuts = Array.init (Rng.int rng 6) (fun _ -> Rng.int rng (len + 1)) in
      Array.sort Int.compare cuts;
      let bounds = Array.concat [ [| 0 |]; cuts; [| len |] ] in
      let chunks =
        Array.init (Array.length bounds - 1) (fun c ->
            let p = G.Pairs.create ~capacity:1 () in
            for i = bounds.(c) to bounds.(c + 1) - 1 do
              G.Pairs.push p (fst pairs.(i)) (snd pairs.(i))
            done;
            p)
      in
      let h = G.of_pair_chunks n chunks in
      let want = G.of_edges n (Array.to_list pairs) in
      let v = G.csr_view h in
      ignore
        (G.of_csr ~validate:true n ~offsets:v.G.v_offsets ~adj:v.G.v_store);
      G.equal want h && Int64.equal (G.content_hash want) (G.content_hash h))

let arbitrary_hypergraph =
  QCheck.make
    ~print:(fun (seed, n, m) -> Printf.sprintf "hg seed=%d n=%d m=%d" seed n m)
    QCheck.Gen.(triple (int_bound 1000) (int_range 5 14) (int_range 1 10))

let prop_conflict_graph_domains =
  QCheck.Test.make ~count:30
    ~name:"conflict graph: i32 store identical across domain counts"
    arbitrary_hypergraph (fun (seed, n, m) ->
      let h =
        Hgen.almost_uniform_random (Rng.create seed) ~n ~m ~k:3 ~eps:0.5
      in
      let k = 2 in
      let seq = (Cg.build ~domains:1 h ~k).Cg.graph in
      List.for_all
        (fun domains -> G.equal seq (Cg.build ~domains h ~k).Cg.graph)
        [ 2; 0 ])

let prop_incremental_domains =
  QCheck.Test.make ~count:30
    ~name:"incremental compaction: identical arenas across domain counts"
    arbitrary_hypergraph (fun (seed, n, m) ->
      let h =
        Hgen.almost_uniform_random (Rng.create seed) ~n ~m ~k:3 ~eps:0.5
      in
      let k = 2 in
      let a = Cg.Incremental.create ~domains:1 h ~k in
      let b = Cg.Incremental.create ~domains:2 h ~k in
      let retired =
        List.filteri (fun i _ -> i mod 2 = 0) (List.init m Fun.id)
      in
      Cg.Incremental.retire_edges a retired;
      Cg.Incremental.retire_edges b retired;
      Cg.Incremental.compact a;
      Cg.Incremental.compact b;
      G.equal (Cg.Incremental.graph a) (Cg.Incremental.graph b))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_unnormalized_pairs_oracle;
      prop_pair_chunks_oracle;
      prop_conflict_graph_domains;
      prop_incremental_domains ]

let suites =
  [ ( "scale.csr",
      [ Alcotest.test_case "to_csr copies" `Quick test_to_csr_copies;
        Alcotest.test_case "csr_view zero-copy" `Quick
          test_csr_view_zero_copy;
        Alcotest.test_case "csr_view prefix" `Quick test_csr_view_prefix;
        Alcotest.test_case "check audits i32" `Quick test_check_accepts_i32 ] );
    ( "scale.cursor",
      [ Alcotest.test_case "coverage with stealing" `Quick
          test_sharded_cursor_coverage;
        Alcotest.test_case "interleaved partition" `Quick
          test_sharded_cursor_split_coverage;
        Alcotest.test_case "empty and invalid" `Quick
          test_sharded_cursor_empty_and_invalid;
        Alcotest.test_case "effective_domains clamps" `Quick
          test_effective_domains_clamps ] );
    ( "scale.io",
      [ Alcotest.test_case "gio 1e6-edge roundtrip" `Quick
          test_gio_streaming_roundtrip_1e6;
        Alcotest.test_case "gio split read identical" `Quick
          test_gio_split_read_identical;
        Alcotest.test_case "write_edges_file stream" `Quick
          test_gio_write_edges_file_stream;
        Alcotest.test_case "hio streaming roundtrip" `Quick
          test_hio_streaming_roundtrip;
        Alcotest.test_case "of_member_arrays normalizes" `Quick
          test_of_member_arrays_normalizes ] );
    ( "scale.gen",
      [ Alcotest.test_case "iter_gnp matches gnp" `Quick
          test_iter_gnp_matches_gnp;
        Alcotest.test_case "huge_gnp equals gnp" `Quick
          test_huge_gnp_equals_gnp;
        Alcotest.test_case "rmat well-formed" `Quick test_rmat_well_formed ]
    );
    ("scale.properties", props) ]
