module P = Protocol
module Is = Ps_maxis.Independent_set
module Cache = Ps_cache.Cache
module D = Ps_slocal.Decomposition

let mis_one ~seed g algo =
  let row ?rounds ?locality size = { P.algo; size; rounds; locality } in
  let flagged flags = Is.size (Is.of_indicator flags) in
  match algo with
  | P.Mis_greedy -> row (Is.size (Ps_maxis.Greedy.min_degree g))
  | P.Mis_luby ->
      let flags, stats = Ps_local.Luby.run ~seed g in
      row ~rounds:stats.Ps_local.Network.rounds (flagged flags)
  | P.Mis_slocal ->
      row ~locality:1 (flagged (fst (Ps_slocal.Greedy_mis.run ~seed g)))
  | P.Mis_derandomized ->
      let d = Ps_slocal.Derandomize.mis g in
      row ~rounds:d.simulated_rounds (flagged d.outputs)
  | P.Mis_all -> assert false

let mis_rows ~seed algo g =
  match algo with
  | P.Mis_all ->
      List.map (mis_one ~seed g)
        [ P.Mis_greedy; P.Mis_luby; P.Mis_slocal; P.Mis_derandomized ]
  | one -> [ mis_one ~seed g one ]

let maxis (spec : Ps_core.Solve_spec.t) g =
  let rng = Ps_util.Rng.create spec.seed in
  let set, solver, entries, kernel =
    if String.equal spec.solver.name Ps_maxis.Portfolio.solver.name then
      let o = Ps_maxis.Portfolio.race rng g in
      let solver = "portfolio (winner: " ^ o.winner ^ ")" in
      (o.set, solver, o.sizes, Some o.kernel_stats)
    else
      let name = Ps_core.Solve_spec.solver_name spec in
      let set, kernel =
        match spec.presolve with
        | `Kernel ->
            let set, st = Ps_maxis.Kernel.solve spec.solver rng g in
            (set, Some st)
        | `None -> (spec.solver.solve rng g, None)
      in
      (set, name, [ (name, Is.size set) ], kernel)
  in
  let diags = Ps_check.Check_set.maximal_independent g set in
  { P.set; solver; entries; kernel; certified = List.is_empty diags }

let check_diagnostics = function
  | P.Check_multicoloring { hypergraph; multicoloring } ->
      ( [ "multicoloring" ],
        Ps_check.Check_cfc.multicoloring hypergraph multicoloring )
  | P.Check_graph_sets { graph; independent_set; dominating_set } ->
      let certify name check = function
        | None -> ([], [])
        | Some vs -> ([ name ], check graph vs)
      in
      let is_checks, is_diags =
        certify "independent_set" Ps_check.Check_set.independent_list
          independent_set
      in
      let ds_checks, ds_diags =
        certify "dominating_set" Ps_check.Check_set.dominating_list
          dominating_set
      in
      ( ("csr" :: is_checks) @ ds_checks,
        Ps_check.Check_graph.csr graph @ is_diags @ ds_diags )

let decomposition graph =
  let d = D.ball_carving graph in
  (d, D.verify graph d)

(* ------------------------------------------------------------------ *)
(* Dispatch, with or without the solved-instance cache.  Cached
   responses are built from the same encoders as the fresh paths over
   stored values that a fresh solve would produce bit-for-bit, so hits
   and misses are indistinguishable on the wire (hit-ness shows up only
   in the stats counters). *)

(* The opaque graph-result tier's key for the graph methods.  Decompose
   is deterministic given the graph: no seed or solver choice in it. *)
let graph_key = function
  | P.Mis { graph; algo; seed } ->
      Some (graph, Cache.Mis, P.mis_algo_name algo, seed)
  | P.Decompose { graph } -> Some (graph, Cache.Decompose, "ball-carving", 0)
  | P.Reduce _ | P.Certify _ | P.Check _ | P.Ping | P.Stats -> None

let parsed payload =
  match Json.parse payload with Ok j -> Some j | Error _ -> None

(* Memory-tier only (the [_mem] lookups): this consult runs on the
   submitting thread — in the shard tier, the engine's sole submitter —
   where a disk read under the cache mutex would wedge every request
   behind one stall.  A memory miss falls through to a worker, whose
   cache-aware handlers ({!solve}, {!graph_result_cached}) consult the
   disk tier before solving. *)
let cached_lookup cache (call : P.call) =
  match call with
  | P.Reduce p ->
      Option.map
        (P.reduce_result ~detail:p.detail)
        (Cache.find_solve_mem cache p.spec p.hypergraph)
  | P.Certify p ->
      Option.map
        (fun r -> P.certificate_json r.Ps_core.Pipeline.certificate)
        (Cache.find_solve_mem cache p.spec p.hypergraph)
  | _ ->
      Option.bind (graph_key call) (fun (graph, kind, solver_name, seed) ->
          Option.bind
            (Cache.find_graph_result_mem cache ~kind ~solver_name ~seed graph)
            parsed)

let graph_result_cached ?cache call render =
  match (cache, graph_key call) with
  | Some cache, Some (graph, kind, solver_name, seed) -> (
      match
        Option.bind
          (Cache.find_graph_result cache ~kind ~solver_name ~seed graph)
          parsed
      with
      | Some j -> j
      | None ->
          let j = render () in
          Cache.store_graph_result cache ~kind ~solver_name ~seed graph
            (Json.to_string j);
          j)
  | _ -> render ()

let solve ?cache ?cancel (spec : Ps_core.Solve_spec.t) h =
  match cache with
  | Some cache -> Cache.solve cache ?cancel spec h
  | None ->
      Ps_core.Pipeline.solve_unchecked ?cancel ~seed:spec.seed
        ~k:(Ps_core.Solve_spec.k_choice spec)
        ~presolve:spec.presolve ~solver:spec.solver h

let execute ?cache ~stats ~cancel call =
  match call with
  | P.Ping -> Json.Obj [ ("pong", Json.Bool true) ]
  | P.Stats -> stats ()
  | P.Check target ->
      let checks, diags = check_diagnostics target in
      P.check_result ~checks diags
  | P.Reduce { hypergraph; spec; detail } ->
      P.reduce_result ~detail (solve ?cache ~cancel spec hypergraph)
  | P.Certify { hypergraph; spec; _ } ->
      P.certificate_json (solve ?cache ~cancel spec hypergraph).certificate
  | P.Mis { graph; algo; seed } ->
      graph_result_cached ?cache call (fun () ->
          P.mis_result (mis_rows ~seed algo graph))
  | P.Decompose { graph } ->
      graph_result_cached ?cache call (fun () ->
          let d, check = decomposition graph in
          P.decompose_result d ~verified:(D.check_all check))

let handle ~stats ~cancel (req : P.request) =
  Ok (execute ~stats ~cancel req.call)

let handle_cached ~cache ~stats ~cancel (req : P.request) =
  Ok (execute ~cache ~stats ~cancel req.call)

let run ?cache call =
  execute ?cache ~stats:(fun () -> Json.Obj []) ~cancel:(fun () -> false) call
