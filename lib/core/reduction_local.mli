(** Theorem 1.1 as an actual LOCAL computation.

    {!Reduction} runs the phase loop with a centralized MaxIS oracle on a
    materialized conflict graph.  This module runs the {e same} loop the
    way the reduction statement means it: each phase's independent set is
    computed by Luby's algorithm on the {e implicit} [G_k^i] of the
    still-unhappy edges — pure message passing over the adjacency oracle,
    nothing materialized — and the LOCAL cost is accounted end to end:

    [host rounds = Σ_i 2·(Luby rounds on G_k^i) + O(1) per phase]

    (each virtual [G_k] round costs {!Simulate.host_dilation} rounds of
    [H]; the [O(1)] covers publishing the phase's colors and recomputing
    edge happiness, both 1-hop information).  A maximal independent set
    is not a polylog approximation in general, but on conflict graphs it
    is excellent (E6), so the loop terminates in few phases — and any
    better LOCAL MaxIS-approximation plugged into the same skeleton would
    inherit the paper's ρ bound. *)

type local_cost = {
  phases : int;
  virtual_rounds : int;    (** Σ Luby rounds over all phases *)
  host_rounds : int;       (** dilated + per-phase coordination *)
  messages : int;          (** Σ messages over all phases *)
}

type run = {
  reduction : Reduction.run;   (** same record as the centralized driver *)
  cost : local_cost;
}

val run :
  ?max_phases:int ->
  ?cancel:(unit -> bool) ->
  ?seed:int ->
  k:int ->
  Ps_hypergraph.Hypergraph.t ->
  run
(** Execute the message-passing reduction.  The output multicoloring is
    conflict-free (certify with {!Certify.certify} on [reduction]); raises
    {!Reduction.Stalled} under the same conditions as the centralized
    driver, and {!Reduction.Canceled} when [cancel] (polled once per
    phase, as in {!Reduction.run}) answers [true].

    Unlike {!Reduction.run}, the conflict graph is not carried across
    phases: Luby draws its randomness per restricted-local triple id,
    so every phase restricts the hypergraph to its surviving edges. *)
