(* Bechamel micro-benchmarks: wall-clock cost of each core operation.
   One Test.make per operation; estimates printed as a table. *)

open Bechamel
open Toolkit
module Rng = Ps_util.Rng
module Hgen = Ps_hypergraph.Hgen

let seed = 7

(* Conflict-graph construction at three scales (the CSR fast path), the
   list-based reference builder it replaced on the smallest scale, and
   the 2-domain parallel build — together they track the perf trajectory
   of the paper's central construction across PRs (BENCH_micro.json). *)

let build_scaling_instance m =
  let n = 4 * m / 3 in
  Hgen.uniform_random (Rng.create seed) ~n ~m ~k:4

let conflict_graph_build =
  let h = build_scaling_instance 24 in
  Test.make ~name:"conflict_graph.build (m=24,k=3)"
    (Staged.stage (fun () -> Ps_core.Conflict_graph.build h ~k:3))

let conflict_graph_build_m96 =
  let h = build_scaling_instance 96 in
  Test.make ~name:"conflict_graph.build (m=96,k=3)"
    (Staged.stage (fun () -> Ps_core.Conflict_graph.build h ~k:3))

let conflict_graph_build_m384 =
  let h = build_scaling_instance 384 in
  Test.make ~name:"conflict_graph.build (m=384,k=3)"
    (Staged.stage (fun () -> Ps_core.Conflict_graph.build h ~k:3))

let conflict_graph_build_reference =
  let h = build_scaling_instance 24 in
  Test.make ~name:"conflict_graph.build_reference (m=24,k=3)"
    (Staged.stage (fun () -> Ps_oracle.Conflict_graph.build_reference h ~k:3))

let conflict_graph_build_domains2 =
  let h = build_scaling_instance 384 in
  Test.make ~name:"conflict_graph.build domains=2 (m=384,k=3)"
    (Staged.stage (fun () -> Ps_core.Conflict_graph.build ~domains:2 h ~k:3))

(* The auto heuristic (domains:0) must never lose to the sequential
   build: on small instances or few cores it resolves to 1 domain and
   this row should match the plain m=384 row up to noise. *)
let conflict_graph_build_auto =
  let h = build_scaling_instance 384 in
  Test.make ~name:"conflict_graph.build domains=auto (m=384,k=3)"
    (Staged.stage (fun () -> Ps_core.Conflict_graph.build ~domains:0 h ~k:3))

(* Min-degree greedy on a sparse plain graph, where a live vertex
   rarely loses two neighbors in one step: batching turns 4482
   decrements into 4435 heap updates here, so this row tracks the heap,
   unlike the G_k row below. *)
let greedy_min_degree_n1024 =
  let g = Ps_graph.Gen.gnp (Rng.create seed) 1024 0.01 in
  Test.make ~name:"maxis.greedy_min_degree (n=1024)"
    (Staged.stage (fun () -> Ps_maxis.Greedy.min_degree g))

let greedy_on_conflict_graph =
  let h = Hgen.uniform_random (Rng.create seed) ~n:32 ~m:24 ~k:4 in
  let cg = Ps_core.Conflict_graph.build h ~k:3 in
  Test.make ~name:"maxis.greedy_min_degree on G_k"
    (Staged.stage (fun () -> Ps_maxis.Greedy.min_degree cg.Ps_core.Conflict_graph.graph))

let caro_wei_on_conflict_graph =
  let h = Hgen.uniform_random (Rng.create seed) ~n:32 ~m:24 ~k:4 in
  let cg = Ps_core.Conflict_graph.build h ~k:3 in
  let rng = Rng.create (seed + 1) in
  Test.make ~name:"maxis.caro_wei on G_k"
    (Staged.stage (fun () ->
         Ps_maxis.Caro_wei.run_maximal rng cg.Ps_core.Conflict_graph.graph))

let reduction_end_to_end =
  let h = Hgen.uniform_random (Rng.create seed) ~n:24 ~m:16 ~k:3 in
  Test.make ~name:"pipeline.solve (m=16)"
    (Staged.stage (fun () ->
         Ps_core.Pipeline.solve ~solver:Ps_maxis.Approx.greedy_min_degree h))

let luby_run =
  let g = Ps_graph.Gen.gnp (Rng.create seed) 256 0.02 in
  Test.make ~name:"local.luby (n=256)"
    (Staged.stage (fun () -> Ps_local.Luby.run ~seed:3 g))

let slocal_greedy_mis =
  let g = Ps_graph.Gen.gnp (Rng.create seed) 256 0.02 in
  Test.make ~name:"slocal.greedy_mis (n=256)"
    (Staged.stage (fun () -> Ps_slocal.Greedy_mis.run g))

let ball_carving =
  let g = Ps_graph.Gen.gnp (Rng.create seed) 256 0.02 in
  Test.make ~name:"slocal.ball_carving (n=256)"
    (Staged.stage (fun () -> Ps_slocal.Decomposition.ball_carving g))

let cf_conservative =
  let h = Hgen.uniform_random (Rng.create seed) ~n:64 ~m:48 ~k:4 in
  Test.make ~name:"cfc.conservative (m=48)"
    (Staged.stage (fun () -> Ps_cfc.Cf_greedy.conservative h))

(* The largest reduce-default size (4-uniform, m=768, n=1024), so that
   growth faster than linear in m shows, which the m=48 row cannot. *)
let cf_conservative_m768 =
  let h = build_scaling_instance 768 in
  Test.make ~name:"cfc.conservative (m=768)"
    (Staged.stage (fun () -> Ps_cfc.Cf_greedy.conservative h))

(* Conservative coloring plus the whole-coloring verify_exn: what the
   default reduce path pays to fix k. *)
let choose_k_m768 =
  let h = build_scaling_instance 768 in
  Test.make ~name:"pipeline.choose_k (m=768)"
    (Staged.stage (fun () ->
         Ps_core.Pipeline.choose_k Ps_core.Pipeline.From_conservative h))

let exact_maxis =
  let g = Ps_graph.Gen.gnp (Rng.create seed) 24 0.3 in
  Test.make ~name:"maxis.exact (n=24,p=.3)"
    (Staged.stage (fun () -> Ps_maxis.Exact.maximum g))

let exact_gk =
  let h = Hgen.random_intervals (Rng.create seed) ~n:32 ~m:24 ~min_len:2 ~max_len:6 in
  Test.make ~name:"core.exact_gk alpha (m=24)"
    (Staged.stage (fun () -> Ps_core.Exact_gk.independence_number h ~k:3))

let mpx_decompose =
  let g = Ps_graph.Gen.gnp (Rng.create seed) 256 0.02 in
  let rng = Rng.create (seed + 2) in
  Test.make ~name:"slocal.mpx (n=256,beta=.3)"
    (Staged.stage (fun () -> Ps_slocal.Mpx.decompose rng ~beta:0.3 g))

let compiled_mis =
  let g = Ps_graph.Gen.gnp (Rng.create seed) 256 0.02 in
  let module C = Ps_slocal.Compiler.Make (Ps_slocal.Greedy_mis.Algo) in
  Test.make ~name:"slocal.compiler MIS (n=256)"
    (Staged.stage (fun () -> C.run g))

let congest_bfs =
  let g = Ps_graph.Gen.grid 16 16 in
  Test.make ~name:"congest.bfs_tree (16x16)"
    (Staged.stage (fun () -> Ps_local.Congest.bfs_tree ~root:0 g))

let tests =
  Test.make_grouped ~name:"pslocal"
    [ conflict_graph_build; conflict_graph_build_m96;
      conflict_graph_build_m384; conflict_graph_build_reference;
      conflict_graph_build_domains2; conflict_graph_build_auto;
      greedy_min_degree_n1024; greedy_on_conflict_graph;
      caro_wei_on_conflict_graph; reduction_end_to_end; luby_run;
      slocal_greedy_mis; ball_carving; cf_conservative; cf_conservative_m768;
      choose_k_m768; exact_maxis;
      exact_gk; mpx_decompose; compiled_mis; congest_bfs ]

let run ?(quick = false) () =
  (* BENCH_micro.json tracks the production path across PRs: force the
     telemetry recorder off for the measurement window so a stray
     PSLOCAL_TRACE in the environment cannot skew the trajectory (and
     bechamel's thousands of reps don't accumulate spans). *)
  let telemetry_was = Ps_util.Telemetry.enabled () in
  Ps_util.Telemetry.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Ps_util.Telemetry.set_enabled telemetry_was)
  @@ fun () ->
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let quota = if quick then 0.05 else 0.5 in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  let table =
    Ps_util.Table.create
      ~aligns:[ Ps_util.Table.Left; Ps_util.Table.Right; Ps_util.Table.Right ]
      [ "benchmark"; "ns/run"; "r^2" ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun _measure per_test ->
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> x
            | Some [] | None -> nan
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with
            | Some r -> r
            | None -> nan
          in
          rows := (name, estimate, r2) :: !rows)
        per_test)
    merged;
  let rows =
    List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) !rows
  in
  List.iter
    (fun (name, estimate, r2) ->
      Ps_util.Table.add_row table
        [ name;
          Ps_util.Table.cell_float ~decimals:0 estimate;
          Ps_util.Table.cell_float ~decimals:4 r2 ])
    rows;
  Ps_util.Table.print
    ~title:"Micro-benchmarks (bechamel OLS estimate, monotonic clock)" table;
  (* name -> ns/run, for the machine-readable BENCH_micro.json *)
  List.map (fun (name, estimate, _) -> (name, estimate)) rows
