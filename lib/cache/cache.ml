(* Content-addressed solved-instance cache.

   Two tiers share one byte-budgeted LRU discipline:

   - the *result* tier maps a fully qualified request key —
     (engine-version, request kind, content hash, requested k, solver,
     seed) — to a finished answer: a whole [Pipeline.result] for
     solves, an opaque rendered payload plus the input graph for
     mis/decompose requests;
   - the *warm* tier maps (engine-version, hypergraph hash, resolved k)
     to an immutable phase-0 [G_k] CSR snapshot
     ([Conflict_graph.Incremental.snapshot]), so a near-duplicate
     request (same instance, different solver or seed) skips the
     conflict-graph enumeration even when its result key misses.

   Trust story: a 64-bit hash is not an identity proof and a cache is a
   mutation target, so (1) every hit compares the stored instance
   against the request with full structural equality before anything is
   served, and (2) hits are re-certified with the deep [Ps_check] audit
   at a configurable sampling rate — a failed audit drops the entry,
   bumps [poisoned], and falls through to a fresh solve.  Only results
   whose certificate passed are ever stored.

   Costs charged to the budget are the marshalled size of each entry
   (exact for what the optional disk tier writes, a faithful proxy for
   heap footprint); warm snapshots are charged their array bytes. *)

module H = Ps_hypergraph.Hypergraph
module G = Ps_graph.Graph
module Pl = Ps_core.Pipeline
module Rd = Ps_core.Reduction
module Cf = Ps_core.Certify
module Cg = Ps_core.Conflict_graph
module Spec = Ps_core.Solve_spec
module Fnv = Ps_util.Fnv
module Rng = Ps_util.Rng

(* Bump whenever a change alters what any solver/engine computes for a
   given (instance, solver, seed, k) — stale persisted entries from
   older versions then never match a key again. *)
let engine_version = "2"

type kind = Solve | Mis | Decompose

let kind_tag = function
  | Solve -> "solve"
  | Mis -> "mis"
  | Decompose -> "decompose"

let hypergraph_hash h =
  let s = ref (Fnv.int Fnv.init (H.n_vertices h)) in
  let m = H.n_edges h in
  s := Fnv.int !s m;
  for e = 0 to m - 1 do
    s := Fnv.int !s (H.edge_size h e);
    H.iter_edge h e (fun v -> s := Fnv.int !s v)
  done;
  Fnv.finish !s

let key_string ~kind ~hash ~k ~solver ~seed =
  Printf.sprintf "v%s:%s:%s:k%s:%s:s%d" engine_version (kind_tag kind)
    (Fnv.to_hex hash)
    (match k with Some k -> string_of_int k | None -> "auto")
    solver seed

type entry =
  | Solve_result of Pl.result
  | Graph_result of { graph : G.t; payload : string }

type warm = { w_h : H.t; w_snap : Cg.Incremental.snapshot }

type config = {
  budget_bytes : int;
  warm_budget_bytes : int;
  audit_rate : float;
  audit_seed : int;
  dir : string option;
}

let default_config =
  { budget_bytes = 64 * 1024 * 1024;
    warm_budget_bytes = 32 * 1024 * 1024;
    audit_rate = 0.05;
    audit_seed = 0;
    dir = None }

type stats = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  entries : int;
  bytes : int;
  budget : int;
  audits : int;
  poisoned : int;
  warm_hits : int;
  warm_entries : int;
  warm_bytes : int;
  disk_hits : int;
}

type t = {
  cfg : config;
  lru : entry Lru.t;
  warm : warm Lru.t;
  rng : Rng.t; (* audit sampling; guarded by mu *)
  mu : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable audits : int;
  mutable poisoned : int;
  mutable warm_hits : int;
  mutable disk_hits : int;
}

let create ?(config = default_config) () =
  if config.audit_rate < 0.0 || config.audit_rate > 1.0 then
    invalid_arg "Cache.create: audit_rate outside [0,1]";
  { cfg = config;
    lru = Lru.create ~budget:config.budget_bytes;
    warm = Lru.create ~budget:config.warm_budget_bytes;
    rng = Rng.create config.audit_seed;
    mu = Mutex.create ();
    hits = 0;
    misses = 0;
    stores = 0;
    audits = 0;
    poisoned = 0;
    warm_hits = 0;
    disk_hits = 0 }

let config t = t.cfg

(* [@pslint.blocking_ok]: the in-memory critical sections under [t.mu]
   are bounded (LRU bookkeeping, counter updates); the one long
   operation behind it, the disk read, is kept off the nonblocking
   submit path by the memory-only [_mem] lookup flavours. *)
let[@pslint.blocking_ok] locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let stats t =
  locked t @@ fun () ->
  { hits = t.hits;
    misses = t.misses;
    stores = t.stores;
    evictions = Lru.evictions t.lru + Lru.evictions t.warm;
    entries = Lru.length t.lru;
    bytes = Lru.bytes t.lru;
    budget = t.cfg.budget_bytes;
    audits = t.audits;
    poisoned = t.poisoned;
    warm_hits = t.warm_hits;
    warm_entries = Lru.length t.warm;
    warm_bytes = Lru.bytes t.warm;
    disk_hits = t.disk_hits }

let clear t =
  locked t @@ fun () ->
  Lru.clear t.lru;
  Lru.clear t.warm

(* ------------------------------------------------------------------ *)
(* Optional persistent tier.  One file per entry under [cfg.dir], named
   by the hash of the key; layout is

     "PSC1" ^ fnv64_hex(key ^ "\n" ^ blob) ^ "\n" ^ key ^ "\n" ^ blob

   where [blob] is the marshalled entry.  The checksum guards the
   unmarshal against torn/corrupted files (not against an adversary
   with filesystem write access — the sampled semantic audit is the
   defense that matters there); the embedded key guards against
   filename-hash collisions.  All failures are soft: a bad file is
   deleted and treated as a miss, write errors are ignored. *)

let disk_magic = "PSC1"

let disk_path dir key =
  Filename.concat dir (Fnv.to_hex (Fnv.string_hash key) ^ ".psc")

let disk_checksum key blob = Fnv.to_hex (Fnv.string_hash (key ^ "\n" ^ blob))

let disk_write ~dir ~key blob =
  try
    if not (Sys.file_exists dir) then
      (try Unix.mkdir dir 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = disk_path dir key in
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    (try
       output_string oc disk_magic;
       output_string oc (disk_checksum key blob);
       output_char oc '\n';
       output_string oc key;
       output_char oc '\n';
       output_string oc blob;
       close_out oc
     with e ->
       close_out_noerr oc;
       raise e);
    Sys.rename tmp path
  with Sys_error _ | Unix.Unix_error _ -> ()

(* Split a raw file into (checksum, key, blob); None when malformed. *)
let disk_parse buf =
  let mlen = String.length disk_magic in
  let hlen = mlen + 16 in
  if
    String.length buf < hlen + 2
    || not (String.equal (String.sub buf 0 mlen) disk_magic)
    || buf.[hlen] <> '\n'
  then None
  else
    match String.index_from_opt buf (hlen + 1) '\n' with
    | None -> None
    | Some nl ->
        let sum = String.sub buf mlen 16 in
        let key = String.sub buf (hlen + 1) (nl - hlen - 1) in
        let blob =
          String.sub buf (nl + 1) (String.length buf - nl - 1)
        in
        Some (sum, key, blob)

let disk_read_raw path =
  try
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    Some (really_input_string ic (in_channel_length ic))
  with Sys_error _ | End_of_file -> None

let disk_read ~dir ~key =
  let path = disk_path dir key in
  if not (Sys.file_exists path) then None
  else
    let drop () = (try Sys.remove path with Sys_error _ -> ()) in
    match disk_read_raw path with
    | None -> None
    | Some buf -> (
        match disk_parse buf with
        | Some (sum, k, blob)
          when String.equal k key
               && String.equal sum (disk_checksum k blob) -> (
            match (Marshal.from_string blob 0 : entry) with
            | e -> Some (e, String.length blob)
            | exception Failure _ ->
                drop ();
                None)
        | Some (_, k, _) when not (String.equal k key) ->
            (* Filename-hash collision with a different key: leave the
               other key's entry alone, just miss. *)
            None
        | _ ->
            drop ();
            None)

(* ------------------------------------------------------------------ *)
(* Result tier *)

let encode_entry (e : entry) = Marshal.to_string e []

(* Both under [t.mu].  [find_entry_memory] never leaves the in-memory
   tier, so the [_mem] lookup flavours built on it are statically free
   of blocking calls — which is exactly what the effect analyzer checks
   on the submit path.  [find_entry_locked] falls back to the
   persistent tier; the disk stall it can take under the cache mutex is
   why the engine's sole submitter (the shard's batch dispatcher) uses
   the [_mem] flavours and re-consults disk-and-all from a worker. *)
let find_entry_memory t key = Lru.find t.lru key

let find_entry_locked t key =
  match find_entry_memory t key with
  | Some e -> Some e
  | None -> (
      match t.cfg.dir with
      | None -> None
      | Some dir -> (
          match disk_read ~dir ~key with
          | None -> None
          | Some (e, blen) ->
              t.disk_hits <- t.disk_hits + 1;
              Lru.put t.lru key e ~cost:(blen + String.length key + 64);
              Some e))

let store_entry t key e =
  let blob = encode_entry e in
  let cost = String.length blob + String.length key + 64 in
  locked t (fun () ->
      t.stores <- t.stores + 1;
      Lru.put t.lru key e ~cost);
  match t.cfg.dir with
  | None -> ()
  | Some dir -> disk_write ~dir ~key blob

let drop_poisoned t key =
  locked t @@ fun () ->
  ignore (Lru.remove t.lru key : bool);
  (match t.cfg.dir with
  | None -> ()
  | Some dir -> (
      try Sys.remove (disk_path dir key) with Sys_error _ -> ()));
  t.poisoned <- t.poisoned + 1

let solve_key (spec : Spec.t) h =
  key_string ~kind:Solve ~hash:(hypergraph_hash h) ~k:spec.k
    ~solver:(Spec.solver_name spec) ~seed:spec.seed

(* Under [t.mu]: shared hit logic over an already-fetched entry, so the
   disk-backed and memory-only lookups stay one code path. *)
let solve_probe_locked t h entry =
  match entry with
  | Some (Solve_result r) when H.equal r.Pl.reduction.Rd.hypergraph h ->
      let audit = Rng.bernoulli t.rng t.cfg.audit_rate in
      if audit then t.audits <- t.audits + 1;
      Some (r, audit)
  | Some _ | None ->
      t.misses <- t.misses + 1;
      None

let solve_serve t key found =
  match found with
  | None -> None
  | Some (r, audit) ->
      (* The deep audit re-derives every certificate claim from the
         stored run itself; run it outside the lock — it can cost a
         solve-sized fraction on big instances. *)
      let poisoned =
        audit
        && (match Cf.diagnostics r.Pl.reduction with
           | [] -> false
           | _ :: _ -> true)
      in
      if poisoned then begin
        drop_poisoned t key;
        None
      end
      else begin
        locked t (fun () -> t.hits <- t.hits + 1);
        Some r
      end

let find_solve t spec h =
  let key = solve_key spec h in
  let found =
    locked t @@ fun () -> solve_probe_locked t h (find_entry_locked t key)
  in
  solve_serve t key found

let find_solve_mem t spec h =
  let key = solve_key spec h in
  let found =
    locked t @@ fun () -> solve_probe_locked t h (find_entry_memory t key)
  in
  solve_serve t key found

let store_solve t spec (r : Pl.result) =
  if r.Pl.certificate.Cf.all_ok then
    store_entry t
      (solve_key spec r.Pl.reduction.Rd.hypergraph)
      (Solve_result r)

(* ------------------------------------------------------------------ *)
(* Warm tier *)

let warm_key ~hash ~k =
  Printf.sprintf "w%s:%s:k%d" engine_version (Fnv.to_hex hash) k

let find_warm t ~hash ~k h =
  locked t @@ fun () ->
  match Lru.find t.warm (warm_key ~hash ~k) with
  | Some w when H.equal w.w_h h ->
      t.warm_hits <- t.warm_hits + 1;
      Some w.w_snap
  | Some _ | None -> None

let store_warm t ~hash ~k h snap =
  let cost = Cg.Incremental.snapshot_bytes snap + 64 in
  locked t @@ fun () ->
  Lru.put t.warm (warm_key ~hash ~k) { w_h = h; w_snap = snap } ~cost

(* ------------------------------------------------------------------ *)
(* Cached solve orchestration *)

let solve t ?(cancel = fun () -> false) (spec : Spec.t) h =
  match find_solve t spec h with
  | Some r -> r
  | None ->
      let kk = Pl.choose_k (Spec.k_choice spec) h in
      let hash = hypergraph_hash h in
      let warm = find_warm t ~hash ~k:kk h in
      let on_phase0 =
        match warm with
        | Some _ -> None
        | None -> Some (fun snap -> store_warm t ~hash ~k:kk h snap)
      in
      let result =
        Pl.solve_unchecked ~cancel ~seed:spec.seed ?warm ?on_phase0
          ~presolve:spec.presolve ~k:(Pl.Fixed kk) ~solver:spec.solver h
      in
      store_solve t spec result;
      result

(* ------------------------------------------------------------------ *)
(* Opaque (graph-request) tier *)

let graph_key ~kind ~solver_name ~seed g =
  key_string ~kind ~hash:(G.content_hash g) ~k:None ~solver:solver_name ~seed

(* Under [t.mu]; same sharing shape as {!solve_probe_locked}. *)
let graph_probe_locked t g entry =
  match entry with
  | Some (Graph_result { graph; payload }) when G.equal graph g ->
      t.hits <- t.hits + 1;
      Some payload
  | Some _ | None ->
      t.misses <- t.misses + 1;
      None

let find_graph_result t ~kind ~solver_name ~seed g =
  let key = graph_key ~kind ~solver_name ~seed g in
  locked t @@ fun () -> graph_probe_locked t g (find_entry_locked t key)

let find_graph_result_mem t ~kind ~solver_name ~seed g =
  let key = graph_key ~kind ~solver_name ~seed g in
  locked t @@ fun () -> graph_probe_locked t g (find_entry_memory t key)

let store_graph_result t ~kind ~solver_name ~seed g payload =
  store_entry t
    (graph_key ~kind ~solver_name ~seed g)
    (Graph_result { graph = g; payload })

(* ------------------------------------------------------------------ *)
(* Directory inspection for `pslocal cache` *)

let dir_files dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".psc")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)

let dir_stats dir =
  List.fold_left
    (fun (n, b) path ->
      match disk_read_raw path with
      | Some buf -> (n + 1, b + String.length buf)
      | None -> (n, b))
    (0, 0) (dir_files dir)

let dir_list dir =
  List.filter_map
    (fun path ->
      match disk_read_raw path with
      | None -> None
      | Some buf -> (
          match disk_parse buf with
          | Some (_, key, blob) -> Some (key, String.length blob)
          | None -> Some ("(corrupt) " ^ Filename.basename path, 0)))
    (dir_files dir)

let dir_clear dir =
  List.fold_left
    (fun n path ->
      match Sys.remove path with
      | () -> n + 1
      | exception Sys_error _ -> n)
    0 (dir_files dir)
