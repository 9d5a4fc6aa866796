module H = Ps_hypergraph.Hypergraph
module Is = Ps_maxis.Independent_set
module Mc = Ps_cfc.Multicolor
module Cf = Ps_cfc.Cf_coloring
module Bs = Ps_util.Bitset
module Ix = Triple.Indexer
module Tm = Ps_util.Telemetry

type local_cost = {
  phases : int;
  virtual_rounds : int;
  host_rounds : int;
  messages : int;
}

type run = {
  reduction : Reduction.run;
  cost : local_cost;
}

(* Coordination cost charged per phase besides the Luby run: one round to
   publish the freshly chosen colors, one to re-evaluate happiness (both
   1-hop exchanges in H). *)
let coordination_rounds_per_phase = 2

let run ?max_phases ?(cancel = fun () -> false) ?(seed = 0) ~k h =
  Tm.with_span "reduction_local.run" @@ fun () ->
  let m = H.n_edges h in
  Tm.set_int "m" m;
  Tm.set_int "k" k;
  let max_phases =
    match max_phases with Some p -> p | None -> (4 * m) + 16
  in
  let multicoloring = Mc.blank h in
  let phases = ref [] in
  (* Bitset + count bookkeeping, as in [Reduction.run].  Unlike there,
     the conflict graph itself cannot be carried across phases: Luby
     runs on the {e implicit} G_k of the restricted hypergraph and its
     randomness is drawn per restricted-local id, so the per-phase
     [restrict_edges] must stay for bit-identical answers; only the
     bookkeeping is incremental — O(1) bitset removal and a
     [Cf.happy_fast] walk over a scratch reused across phases. *)
  let remaining = Bs.create (max m 1) in
  for e = 0 to m - 1 do
    Bs.add remaining e
  done;
  let n_remaining = ref m in
  let happy_cnt = Cf.happy_scratch ~k in
  let phase = ref 0 in
  let virtual_rounds = ref 0 and messages = ref 0 in
  while !n_remaining > 0 do
    if !phase >= max_phases then raise (Reduction.Stalled !phase);
    if cancel () then raise Reduction.Canceled;
    Tm.with_span "phase" @@ fun () ->
    Tm.set_int "phase" !phase;
    let hi, back = H.restrict_edges h (Bs.to_list remaining) in
    let ix = Ix.make hi ~k in
    (* Luby over the implicit conflict graph: no materialization. *)
    let sim = Simulate.luby_mis ~seed:(seed + !phase) hi ~k in
    virtual_rounds := !virtual_rounds + sim.Simulate.virtual_rounds;
    messages := !messages + sim.Simulate.messages;
    let is = sim.Simulate.independent_set in
    let f_i = Correspondence.coloring_of_is hi ix is in
    Array.iteri
      (fun v c ->
        if c <> Cf.uncolored then
          Mc.add_color multicoloring v ((!phase * k) + c))
      f_i;
    (* Walk the restricted edges with the scratch counter and translate
       to global ids as we go. *)
    let happy_global =
      let acc = ref [] in
      for e = H.n_edges hi - 1 downto 0 do
        if Cf.happy_fast happy_cnt hi f_i e then acc := back.(e) :: !acc
      done;
      !acc
    in
    let newly_happy = List.length happy_global in
    if newly_happy = 0 then raise (Reduction.Stalled !phase);
    let is_size = Is.size is in
    let lambda_effective =
      if is_size = 0 then infinity
      else float_of_int (H.n_edges hi) /. float_of_int is_size
    in
    if Tm.enabled () then begin
      Tm.set_int "edges_before" (H.n_edges hi);
      Tm.set_int "conflict_vertices" (Ix.total ix);
      Tm.set_int "is_size" is_size;
      Tm.set_int "newly_happy" newly_happy;
      Tm.set_float "lambda_effective" lambda_effective;
      Tm.set_int "virtual_rounds" sim.Simulate.virtual_rounds;
      Tm.set_int "messages" sim.Simulate.messages;
      Tm.incr "reduction_local.phases";
      Tm.count "reduction_local.virtual_rounds" sim.Simulate.virtual_rounds;
      Tm.count "reduction_local.messages" sim.Simulate.messages
    end;
    phases :=
      { Reduction.phase = !phase;
        edges_before = H.n_edges hi;
        conflict_vertices = Ix.total ix;
        conflict_edges = -1;
        (* never materialized; -1 marks "not measured" *)
        is_size;
        newly_happy;
        lambda_effective }
      :: !phases;
    List.iter (fun e -> Bs.remove remaining e) happy_global;
    n_remaining := !n_remaining - newly_happy;
    incr phase
  done;
  let reduction =
    { Reduction.hypergraph = h;
      k;
      solver_name = "luby-on-implicit-Gk";
      multicoloring;
      phases = List.rev !phases;
      total_phases = !phase;
      colors_used = Mc.total_colors multicoloring }
  in
  Tm.set_int "total_phases" !phase;
  Tm.set_int "virtual_rounds" !virtual_rounds;
  Tm.set_int "messages" !messages;
  { reduction;
    cost =
      { phases = !phase;
        virtual_rounds = !virtual_rounds;
        host_rounds =
          (Simulate.host_dilation * !virtual_rounds)
          + (coordination_rounds_per_phase * !phase);
        messages = !messages } }
