module H = Ps_hypergraph.Hypergraph
module G = Ps_graph.Graph
module Is = Ps_maxis.Independent_set
module Mc = Ps_cfc.Multicolor
module Cf = Ps_cfc.Cf_coloring
module Bs = Ps_util.Bitset
module Tm = Ps_util.Telemetry

type phase_record = {
  phase : int;
  edges_before : int;
  conflict_vertices : int;
  conflict_edges : int;
  is_size : int;
  newly_happy : int;
  lambda_effective : float;
}

type run = {
  hypergraph : H.t;
  k : int;
  solver_name : string;
  multicoloring : Mc.t;
  phases : phase_record list;
  total_phases : int;
  colors_used : int;
}

exception Stalled of int
exception Canceled

let log_src = Logs.Src.create "ps_core.reduction" ~doc:"Theorem 1.1 phases"

module Log = (val Logs.src_log log_src)

(* Deep per-phase certification, mirroring the PSLOCAL_DEBUG convention
   of [Ps_graph.Graph]'s fast constructors: off, the phase loop trusts
   its components; on, every conflict graph is audited for CSR
   well-formedness and every solver answer for independence before the
   phase commits.  A violation aborts loudly with the first positioned
   diagnostic — these invariants failing means a bug, not bad input.
   The compacted arena graph of every phase is certified exactly as a
   freshly built one would be. *)
let debug_checks =
  match Sys.getenv_opt "PSLOCAL_DEBUG" with
  | None | Some "" | Some "0" | Some "false" -> false
  | Some _ -> true

let phase_boundary_checks ~phase graph is =
  let fail what = function
    | [] -> ()
    | d :: _ ->
        invalid_arg
          (Printf.sprintf "Reduction.run: phase %d %s: %s" phase what
             (Ps_check.Diagnostic.to_string d))
  in
  fail "conflict graph" (Ps_check.Check_graph.csr graph);
  fail "solver output" (Ps_check.Check_set.independent graph is)

let run ?max_phases ?(cancel = fun () -> false) ?(seed = 0) ?(domains = 0)
    ?warm ?on_phase0 ?(presolve = (`Kernel : Ps_maxis.Kernel.choice))
    ~solver ~k h =
  Tm.with_span "reduction.run" @@ fun () ->
  let solver = Ps_maxis.Kernel.apply presolve solver in
  let m = H.n_edges h in
  Tm.set_int "m" m;
  Tm.set_int "k" k;
  Tm.set_str "solver" solver.Ps_maxis.Approx.name;
  let max_phases =
    match max_phases with Some p -> p | None -> (4 * m) + 16
  in
  let rng = Ps_util.Rng.create seed in
  let multicoloring = Mc.blank h in
  let phases = ref [] in
  (* Surviving-edge bookkeeping: a bitset plus an explicit count replaces
     the seed implementation's int list + O(|remaining|) List.filter per
     phase — removal is O(1) per retired edge and the loop guard is a
     counter read. *)
  let remaining = Bs.create (max m 1) in
  for e = 0 to m - 1 do
    Bs.add remaining e
  done;
  let n_remaining = ref m in
  let phase = ref 0 in
  (* Build G_k once; every later phase reuses the compacted arena.
     Per-phase this skips the hypergraph restriction, the indexer
     rebuild and both CSR passes — compaction is one filtered copy of
     the surviving rows.  Compaction reproduces the exact numbering a
     fresh build over the surviving edges would assign (see
     [Conflict_graph.Incremental]), so the solver sees the graph the
     proof's G_k^i names and the test suite's rebuild-every-phase
     oracle produces the same run bit for bit. *)
  let st =
    (* Warm start: skip the phase-0 CSR enumeration when the cache
       supplies a snapshot taken over an equal hypergraph at the same
       k; bit-identity with the cold path is the snapshot's contract. *)
    match warm with
    | Some snap ->
        if Conflict_graph.Incremental.snapshot_k snap <> k then
          invalid_arg "Reduction.run: warm snapshot built for another k";
        Conflict_graph.Incremental.create_from_snapshot h snap
    | None -> Conflict_graph.Incremental.create ~domains h ~k
  in
  (match on_phase0 with
  | Some f -> f (Conflict_graph.Incremental.snapshot st)
  | None -> ());
  let n_vertices = H.n_vertices h in
  let happy_cnt = Cf.happy_scratch ~k in
  while !n_remaining > 0 do
    if !phase >= max_phases then raise (Stalled !phase);
    if cancel () then raise Canceled;
    Tm.with_span "phase" @@ fun () ->
    Tm.set_int "phase" !phase;
    let graph = Conflict_graph.Incremental.graph st in
    let is =
      Tm.with_span "solve" (fun () ->
          Ps_maxis.Approx.solve_verified solver rng graph)
    in
    if debug_checks then phase_boundary_checks ~phase:!phase graph is;
    let f_i =
      Correspondence.coloring_of_is_with ~n_vertices
        ~decode:(Conflict_graph.Incremental.decode st)
        is
    in
    (* Publish the phase's colors on its fresh palette slice. *)
    Array.iteri
      (fun v c ->
        if c <> Cf.uncolored then
          Mc.add_color multicoloring v ((!phase * k) + c))
      f_i;
    (* Happy scan over surviving edges only, against the original
       hypergraph: global ids directly, no restriction to translate
       back from. *)
    let happy_global =
      List.rev
        (Bs.fold
           (fun e acc ->
             if Cf.happy_fast happy_cnt h f_i e then e :: acc else acc)
           remaining [])
    in
    let is_size = Is.size is in
    let newly_happy = List.length happy_global in
    if newly_happy = 0 then raise (Stalled !phase);
    let edges_before = !n_remaining in
    Log.debug (fun m ->
        m "phase %d: |E|=%d |V(Gk)|=%d |I|=%d happy=%d" !phase edges_before
          (G.n_vertices graph) is_size newly_happy);
    let lambda_effective =
      if is_size = 0 then infinity
      else float_of_int edges_before /. float_of_int is_size
    in
    if Tm.enabled () then begin
      Tm.set_int "edges_before" edges_before;
      Tm.set_int "conflict_vertices" (G.n_vertices graph);
      Tm.set_int "conflict_edges" (G.n_edges graph);
      Tm.set_int "is_size" is_size;
      Tm.set_int "newly_happy" newly_happy;
      Tm.set_float "lambda_effective" lambda_effective;
      Tm.set_float "decay_factor"
        (1.0 -. (float_of_int newly_happy /. float_of_int edges_before));
      Tm.incr "reduction.phases";
      Tm.count "reduction.edges_retired" newly_happy;
      Tm.gauge_max "reduction.lambda_max" lambda_effective
    end;
    phases :=
      { phase = !phase;
        edges_before;
        conflict_vertices = G.n_vertices graph;
        conflict_edges = G.n_edges graph;
        is_size;
        newly_happy;
        lambda_effective }
      :: !phases;
    List.iter (fun e -> Bs.remove remaining e) happy_global;
    n_remaining := !n_remaining - newly_happy;
    incr phase;
    Conflict_graph.Incremental.retire_edges st happy_global;
    Conflict_graph.Incremental.compact st;
    if Tm.enabled () then Tm.incr "reduction.compactions"
  done;
  let colors_used = Mc.total_colors multicoloring in
  Tm.set_int "total_phases" !phase;
  Tm.set_int "colors_used" colors_used;
  { hypergraph = h;
    k;
    solver_name = solver.Ps_maxis.Approx.name;
    multicoloring;
    phases = List.rev !phases;
    total_phases = !phase;
    colors_used }
