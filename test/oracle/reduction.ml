(* The seed implementation of the Theorem 1.1 phase loop that
   [Ps_core.Reduction.run] replaced, kept verbatim in structure: restrict
   the hypergraph to the surviving edges and rebuild tables, indexer and
   CSR from scratch every phase, then compute happiness on the
   restriction and translate back.  The product's loop builds G_k once
   and compacts it in place; the property suite checks that both produce
   the same multicoloring, phase records and audit verdicts, and
   bench/main.exe's reduce lane times one against the other. *)

module H = Ps_hypergraph.Hypergraph
module G = Ps_graph.Graph
module Is = Ps_maxis.Independent_set
module Mc = Ps_cfc.Multicolor
module Cf = Ps_cfc.Cf_coloring
module Bs = Ps_util.Bitset
module Red = Ps_core.Reduction
module Cg = Ps_core.Conflict_graph

let run ?(seed = 0) ?(domains = 0)
    ?(presolve = (`Kernel : Ps_maxis.Kernel.choice)) ~solver ~k h =
  let solver = Ps_maxis.Kernel.apply presolve solver in
  let m = H.n_edges h in
  let rng = Ps_util.Rng.create seed in
  let multicoloring = Mc.blank h in
  let phases = ref [] in
  let remaining = Bs.create (max m 1) in
  for e = 0 to m - 1 do
    Bs.add remaining e
  done;
  let n_remaining = ref m in
  let phase = ref 0 in
  while !n_remaining > 0 do
    let hi, back = H.restrict_edges h (Bs.to_list remaining) in
    let cg = Cg.build ~domains hi ~k in
    let is = Ps_maxis.Approx.solve_verified solver rng cg.Cg.graph in
    let f_i = Ps_core.Correspondence.coloring_of_is hi cg.Cg.indexer is in
    let happy_local = Cf.happy_edges hi f_i in
    let happy_global = List.map (fun e_local -> back.(e_local)) happy_local in
    Array.iteri
      (fun v c ->
        if c <> Cf.uncolored then
          Mc.add_color multicoloring v ((!phase * k) + c))
      f_i;
    let newly_happy = List.length happy_global in
    if newly_happy = 0 then raise (Red.Stalled !phase);
    let is_size = Is.size is in
    let edges_before = !n_remaining in
    let lambda_effective =
      if is_size = 0 then infinity
      else float_of_int edges_before /. float_of_int is_size
    in
    phases :=
      { Red.phase = !phase;
        edges_before;
        conflict_vertices = G.n_vertices cg.Cg.graph;
        conflict_edges = G.n_edges cg.Cg.graph;
        is_size;
        newly_happy;
        lambda_effective }
      :: !phases;
    List.iter (fun e -> Bs.remove remaining e) happy_global;
    n_remaining := !n_remaining - newly_happy;
    incr phase
  done;
  { Red.hypergraph = h;
    k;
    solver_name = solver.Ps_maxis.Approx.name;
    multicoloring;
    phases = List.rev !phases;
    total_phases = !phase;
    colors_used = Mc.total_colors multicoloring }
