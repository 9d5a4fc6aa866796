(** The Theorem 1.1 reduction: conflict-free multicoloring via iterated
    MaxIS approximation — the paper's hardness direction, executable.

    Given a hypergraph [H] admitting a conflict-free k-coloring and an
    algorithm computing λ-approximations of MaxIS, run phases
    [i = 1, 2, ...]: build the conflict graph [G_k^i] of the still-unhappy
    edges [E_i], compute an independent set [I^i] with the approximation
    algorithm, let every hypergraph vertex with some [(·, v, c) ∈ I^i]
    take color [c] from phase [i]'s {e fresh} palette, and remove the
    edges that became happy.  Lemma 2.1 gives [α(G_k^i) = |E_i|], so a
    λ-approximation yields [|I^i| ≥ |E_i|/λ] and at least that many edges
    leave: [|E_{i+1}| ≤ (1 − 1/λ)|E_i|].  After [ρ = λ·ln m + 1] phases no
    edge remains, and the union of the per-phase colorings is a
    conflict-free multicoloring with [k·ρ] colors.

    This module runs exactly that loop with any {!Ps_maxis.Approx.solver}
    plugged in as the λ-approximation oracle, recording per-phase numbers
    so the experiments can compare the observed decay and phase count to
    the proof's bounds. *)

type phase_record = {
  phase : int;                (** 0-based phase index *)
  edges_before : int;         (** [|E_i|] *)
  conflict_vertices : int;    (** [|V(G_k^i)|] *)
  conflict_edges : int;       (** [|E(G_k^i)|] *)
  is_size : int;              (** [|I^i|] *)
  newly_happy : int;          (** edges removed after this phase (≥ is_size) *)
  lambda_effective : float;   (** [|E_i| / |I^i|] — the λ actually achieved,
                                  valid because [α(G_k^i) = |E_i|] *)
}

type run = {
  hypergraph : Ps_hypergraph.Hypergraph.t;
  k : int;
  solver_name : string;
  multicoloring : Ps_cfc.Multicolor.t;
      (** phase [i] contributes colors [i·k .. i·k + k - 1] *)
  phases : phase_record list; (** in phase order *)
  total_phases : int;
  colors_used : int;          (** distinct colors actually appearing *)
}

val log_src : Logs.src
(** Per-phase progress is logged here at debug level — enable with
    [Logs.Src.set_level Reduction.log_src (Some Logs.Debug)] (the CLI's
    [--verbose] does). *)

exception Stalled of int
(** Raised if a phase removes no edge (impossible for a solver returning
    non-empty independent sets on non-empty graphs; the guard exists so a
    broken solver cannot loop forever). Carries the phase index. *)

exception Canceled
(** Raised when the [cancel] hook of {!run} returns [true] — see below. *)

val run :
  ?max_phases:int ->
  ?cancel:(unit -> bool) ->
  ?seed:int ->
  ?domains:int ->
  ?warm:Conflict_graph.Incremental.snapshot ->
  ?on_phase0:(Conflict_graph.Incremental.snapshot -> unit) ->
  ?presolve:Ps_maxis.Kernel.choice ->
  solver:Ps_maxis.Approx.solver ->
  k:int ->
  Ps_hypergraph.Hypergraph.t ->
  run
(** Execute the reduction.  [max_phases] defaults to [4·m + 16] — far
    beyond the theoretical [ρ] of any reasonable solver, as even a
    1-edge-per-phase solver finishes in [m] phases.  The result's
    multicoloring is conflict-free by construction; {!Certify} re-checks
    everything independently.

    Phase 0 builds [G_k] once ({!Conflict_graph.Incremental.create});
    after each phase the retired edges' triples are dropped and the
    survivors renumbered in place, reproducing exactly the ids a fresh
    build over the surviving edges would assign, so each phase's solver
    sees [G_k^i].  [domains] is forwarded to the conflict-graph builder
    (default [0] — automatic, see {!Conflict_graph.build}) and affects
    only construction speed, never the result.

    [warm] hands the phase loop a phase-0 CSR snapshot taken
    over an {e equal} hypergraph at the same [k]
    ({!Conflict_graph.Incremental.create_from_snapshot}; equality is the
    caller's contract, [k] is checked — [Invalid_argument] on mismatch),
    replacing the phase-0 build with array copies; the run is
    bit-identical either way.  [on_phase0] is called once with a
    snapshot of the freshly built (or warm-started) phase-0 CSR, which
    is how the solved-instance cache populates its warm tier.

    [presolve] (default [`Kernel]) wraps the solver with
    {!Ps_maxis.Kernel.apply}: each phase's conflict graph is kernelized
    before the solver runs and the answer is lifted (and made maximal)
    on the original ids.  The effective solver name — and hence
    [run.solver_name] and every cache key derived from it — carries the
    ["kernel+"] prefix, so kernel-on and kernel-off runs never alias.
    Pass [`None] to study a solver's raw λ profile (the λ-degradation
    experiments do: the repair pass built into the lift would restore
    maximality and erase the degradation).

    [cancel] (default: never) is polled once per phase, before any phase
    work; a [true] answer raises {!Canceled}.  This is the cooperative
    hook the solve server uses for per-job deadlines: the check costs one
    call per phase and cancellation latency is bounded by one phase.

    With the [PSLOCAL_DEBUG] environment variable set, every phase
    boundary additionally runs the deep {!Ps_check} certifiers on its
    intermediate objects — CSR well-formedness of the conflict graph and
    independence of the solver's answer — and raises [Invalid_argument]
    with the first positioned diagnostic on a violation. *)
