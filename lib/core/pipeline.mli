(** One-call driver: pick [k], run the reduction, certify.

    The proof of Theorem 1.1 starts from "the graphs used for the
    hardness all admit a conflict-free k-coloring with k = polylog n; fix
    this k".  On concrete instances we obtain such a [k] constructively,
    by running a direct CF-coloring algorithm on [H] and counting its
    colors — this both fixes [k] and witnesses the premise. *)

type k_choice =
  | Fixed of int        (** caller-supplied [k] (must admit a CF coloring) *)
  | From_conservative   (** k = colors of {!Ps_cfc.Cf_greedy.conservative} *)
  | From_ruler          (** k = [⌊log2 n⌋+1] via {!Ps_cfc.Cf_greedy.ruler};
                            only sound on interval hypergraphs *)

val choose_k : k_choice -> Ps_hypergraph.Hypergraph.t -> int
(** Resolve the choice; for the algorithmic choices the witness coloring
    is verified conflict-free first (raises [Invalid_argument] if not —
    e.g. [From_ruler] on a non-interval hypergraph). Returns at least 1.
    [From_conservative] is near-linear in the incidence size — one pass
    of {!Ps_cfc.Cf_greedy.conservative} plus one single-pass
    {!Ps_cfc.Cf_coloring.verify_exn}.  Its [k] is test-pinned against a
    quadratic rescan-from-edge-0 formulation of the same greedy. *)

type result = {
  reduction : Reduction.run;
  certificate : Certify.t;
  k : int;
}

val solve :
  ?cancel:(unit -> bool) ->
  ?seed:int ->
  ?domains:int ->
  ?warm:Conflict_graph.Incremental.snapshot ->
  ?on_phase0:(Conflict_graph.Incremental.snapshot -> unit) ->
  ?presolve:Ps_maxis.Kernel.choice ->
  ?k:k_choice ->
  solver:Ps_maxis.Approx.solver ->
  Ps_hypergraph.Hypergraph.t ->
  result
(** Run end to end ([k] defaults to [From_conservative]).  Raises
    [Failure] when the certificate fails — by Theorem 1.1 that can only
    mean a bug, so it is loud.  [cancel], [domains], [warm], [on_phase0]
    and [presolve] are forwarded to {!Reduction.run} (defaults there:
    per-phase cooperative-cancellation poll off, automatic domain count,
    no warm start, no snapshot callback, kernel presolve).
    Callers passing [warm] must resolve [k] with {!choose_k} first and
    pass [Fixed] so the snapshot's [k] is the one used. *)

val solve_unchecked :
  ?cancel:(unit -> bool) ->
  ?seed:int ->
  ?domains:int ->
  ?warm:Conflict_graph.Incremental.snapshot ->
  ?on_phase0:(Conflict_graph.Incremental.snapshot -> unit) ->
  ?presolve:Ps_maxis.Kernel.choice ->
  ?k:k_choice ->
  solver:Ps_maxis.Approx.solver ->
  Ps_hypergraph.Hypergraph.t ->
  result
(** Same but returns the (possibly failing) certificate instead of
    raising — for experiments that chart failure modes (e.g. the
    palette-reuse ablation). *)
