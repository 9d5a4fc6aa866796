module P = Protocol
module Is = Ps_maxis.Independent_set

let solve ~cancel ({ hypergraph; spec; _ } : P.solve_params) =
  Ps_core.Pipeline.solve_unchecked ~cancel ~seed:spec.seed
    ~k:(Ps_core.Solve_spec.k_choice spec)
    ~presolve:spec.presolve ~solver:spec.solver hypergraph

let mis_one ~seed g = function
  | P.Mis_greedy ->
      let is = Ps_maxis.Greedy.min_degree g in
      P.mis_entry ~algorithm:"greedy" ~size:(Is.size is) ()
  | P.Mis_luby ->
      let flags, stats = Ps_local.Luby.run ~seed g in
      P.mis_entry ~algorithm:"luby"
        ~size:(Is.size (Is.of_indicator flags))
        ~rounds:stats.Ps_local.Network.rounds ()
  | P.Mis_slocal ->
      let flags, _ = Ps_slocal.Greedy_mis.run ~seed g in
      P.mis_entry ~algorithm:"slocal"
        ~size:(Is.size (Is.of_indicator flags))
        ~locality:1 ()
  | P.Mis_derandomized ->
      let d = Ps_slocal.Derandomize.mis g in
      P.mis_entry ~algorithm:"derandomized"
        ~size:(Is.size (Is.of_indicator d.Ps_slocal.Derandomize.outputs))
        ~rounds:d.Ps_slocal.Derandomize.simulated_rounds ()
  | P.Mis_all -> assert false

let mis_entries ~seed algo g =
  match algo with
  | P.Mis_all ->
      List.map (mis_one ~seed g)
        [ P.Mis_greedy; P.Mis_luby; P.Mis_slocal; P.Mis_derandomized ]
  | one -> [ mis_one ~seed g one ]

let check_target = function
  | P.Check_multicoloring { hypergraph; multicoloring } ->
      P.check_result ~checks:[ "multicoloring" ]
        (Ps_check.Check_cfc.multicoloring hypergraph multicoloring)
  | P.Check_graph_sets { graph; independent_set; dominating_set } ->
      let csr = Ps_check.Check_graph.csr graph in
      let is_checks, is_diags =
        match independent_set with
        | None -> ([], [])
        | Some vs ->
            ([ "independent_set" ], Ps_check.Check_set.independent_list graph vs)
      in
      let ds_checks, ds_diags =
        match dominating_set with
        | None -> ([], [])
        | Some vs ->
            ([ "dominating_set" ], Ps_check.Check_set.dominating_list graph vs)
      in
      P.check_result
        ~checks:(("csr" :: is_checks) @ ds_checks)
        (csr @ is_diags @ ds_diags)

let decompose graph =
  let d = Ps_slocal.Decomposition.ball_carving graph in
  let check = Ps_slocal.Decomposition.verify graph d in
  P.decompose_result d ~verified:(Ps_slocal.Decomposition.check_all check)

let handle ~stats ~cancel (req : P.request) =
  match req.call with
  | P.Ping -> Ok (Json.Obj [ ("pong", Json.Bool true) ])
  | P.Stats -> Ok (stats ())
  | P.Check target -> Ok (check_target target)
  | P.Reduce p -> Ok (P.reduce_result ~detail:p.detail (solve ~cancel p))
  | P.Certify p ->
      Ok (P.certificate_json (solve ~cancel p).Ps_core.Pipeline.certificate)
  | P.Mis { graph; algo; seed } ->
      Ok (P.mis_result (mis_entries ~seed algo graph))
  | P.Decompose { graph } -> Ok (decompose graph)

(* ------------------------------------------------------------------ *)
(* Cache-aware paths.  Responses are built from the same encoders as
   the fresh paths over stored values that a fresh solve would produce
   bit-for-bit, so hits and misses are indistinguishable on the wire
   (hit-ness shows up only in the stats counters). *)

module Cache = Ps_cache.Cache

let solve_cached ~cache ~cancel (p : P.solve_params) =
  Cache.solve cache ~cancel p.spec p.hypergraph

(* Deterministic given the graph; no seed or solver choice in the key. *)
let decompose_key_seed = 0

(* Memory-tier only (the [_mem] lookups): this consult runs on the
   submitting thread — in the shard tier, the engine's sole submitter —
   where a disk read under the cache mutex would wedge every request
   behind one stall.  A memory miss falls through to a worker, whose
   cache-aware handlers ({!solve}, {!graph_result_cached}) consult the
   disk tier before solving. *)
let cached_lookup cache (call : P.call) =
  let parsed payload =
    match Json.parse payload with Ok j -> Some j | Error _ -> None
  in
  match call with
  | P.Reduce p ->
      Option.map
        (P.reduce_result ~detail:p.detail)
        (Cache.find_solve_mem cache p.spec p.hypergraph)
  | P.Certify p ->
      Option.map
        (fun r -> P.certificate_json r.Ps_core.Pipeline.certificate)
        (Cache.find_solve_mem cache p.spec p.hypergraph)
  | P.Mis { graph; algo; seed } ->
      Option.bind
        (Cache.find_graph_result_mem cache ~kind:Cache.Mis
           ~solver_name:(P.mis_algo_name algo) ~seed graph)
        parsed
  | P.Decompose { graph } ->
      Option.bind
        (Cache.find_graph_result_mem cache ~kind:Cache.Decompose
           ~solver_name:"ball-carving" ~seed:decompose_key_seed graph)
        parsed
  | P.Ping | P.Stats | P.Check _ -> None

let graph_result_cached cache ~kind ~solver_name ~seed graph render =
  match
    Option.bind
      (Cache.find_graph_result cache ~kind ~solver_name ~seed graph)
      (fun payload ->
        match Json.parse payload with Ok j -> Some j | Error _ -> None)
  with
  | Some j -> j
  | None ->
      let j = render () in
      Cache.store_graph_result cache ~kind ~solver_name ~seed graph
        (Json.to_string j);
      j

let handle_cached ~cache ~stats ~cancel (req : P.request) =
  match req.call with
  | P.Ping | P.Stats | P.Check _ -> handle ~stats ~cancel req
  | P.Reduce p ->
      Ok (P.reduce_result ~detail:p.detail (solve_cached ~cache ~cancel p))
  | P.Certify p ->
      Ok
        (P.certificate_json
           (solve_cached ~cache ~cancel p).Ps_core.Pipeline.certificate)
  | P.Mis { graph; algo; seed } ->
      Ok
        (graph_result_cached cache ~kind:Cache.Mis
           ~solver_name:(P.mis_algo_name algo) ~seed graph (fun () ->
             P.mis_result (mis_entries ~seed algo graph)))
  | P.Decompose { graph } ->
      Ok
        (graph_result_cached cache ~kind:Cache.Decompose
           ~solver_name:"ball-carving" ~seed:decompose_key_seed graph
           (fun () -> decompose graph))
