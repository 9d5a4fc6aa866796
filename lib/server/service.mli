(** Request semantics: one validated {!Protocol.request} in, one result
    out.  Pure dispatch — no queues, no IO — so the engine, the one-shot
    CLI and the tests all execute methods through the same code path:
    the engine through {!handle} / {!handle_cached}, the CLI's [--json]
    [mis] and [decompose] through {!run}, its [reduce] through {!solve},
    [mis --solver] through {!maxis}, and its human-readable tables
    through {!mis_rows}, {!decomposition} and {!check_diagnostics}, the
    values the wire encoders are fed from.

    [cancel] is the cooperative deadline hook threaded into the phase
    loop ({!Ps_core.Reduction.run}); a cancelled solve escapes as
    {!Ps_core.Reduction.Canceled}, which the caller (the engine) maps to
    a [timeout] or [shutting_down] error.  Any other exception is the
    caller's to turn into an [internal] error. *)

val handle :
  stats:(unit -> Json.t) ->
  cancel:(unit -> bool) ->
  Protocol.request ->
  (Json.t, Protocol.error) result
(** Execute the request.  [stats] supplies the [stats] method's snapshot
    (the engine closes over itself).  Never returns [Error] for [reduce]
    on a valid instance — a failed certificate is reported inside the
    result ([certified: false]), not as a protocol error. *)

val handle_cached :
  cache:Ps_cache.Cache.t ->
  stats:(unit -> Json.t) ->
  cancel:(unit -> bool) ->
  Protocol.request ->
  (Json.t, Protocol.error) result
(** {!handle} with the solved-instance cache in the loop: [reduce] /
    [certify] go through {!Ps_cache.Cache.solve} (result reuse +
    phase-0 warm start), [mis] / [decompose] through the opaque
    graph-result tier.  Responses are bit-identical to {!handle} — a
    hit is observable only in the cache counters. *)

val run : ?cache:Ps_cache.Cache.t -> Protocol.call -> Json.t
(** One call with no deadline, as a one-shot command runs it: through
    the cache when given.  [stats] answers an empty object. *)

val solve :
  ?cache:Ps_cache.Cache.t ->
  ?cancel:(unit -> bool) ->
  Ps_core.Solve_spec.t ->
  Ps_hypergraph.Hypergraph.t ->
  Ps_core.Pipeline.result
(** The [reduce] and [certify] methods' pipeline run, certificate
    included but not enforced: {!Ps_cache.Cache.solve} with [cache],
    {!Ps_core.Pipeline.solve_unchecked} without. *)

val cached_lookup : Ps_cache.Cache.t -> Protocol.call -> Json.t option
(** Lookup-only fast path (no solving, no storing): the rendered
    response payload when the call is cacheable and present (equality
    verified, sampled audit passed).  The engine calls this before
    enqueueing so hits never consume a queue slot or a worker. *)

val maxis : Ps_core.Solve_spec.t -> Ps_graph.Graph.t -> Protocol.maxis_outcome
(** One MaxIS solve on a graph, uncached.  The portfolio runs
    {!Ps_maxis.Portfolio.race} (which kernelizes whatever [presolve]
    says) and reports every lane; another solver runs under
    {!Ps_maxis.Kernel.solve} when [presolve] is [`Kernel], raw
    otherwise.  [certified] is {!Ps_check.Check_set.maximal_independent}
    on the input graph. *)

val mis_rows :
  seed:int -> Protocol.mis_algo -> Ps_graph.Graph.t -> Protocol.mis_row list
(** The [mis] method's rows ([Mis_all]: greedy, luby, slocal,
    derandomized). *)

val decomposition :
  Ps_graph.Graph.t ->
  Ps_slocal.Decomposition.t * Ps_slocal.Decomposition.check
(** The [decompose] method's ball carving and its verification. *)

val check_diagnostics :
  Protocol.check_target -> string list * Ps_check.Diagnostic.t list
(** The [check] method's certifiers that ran, and their diagnostics. *)
