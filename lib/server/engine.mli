(** The job engine: a bounded request queue in front of a pool of OCaml 5
    worker domains, with explicit load shedding, per-job deadlines and a
    draining shutdown.

    {b Shed policy.}  The queue is the only buffer in the system, and it
    is bounded: a submission that finds it full is rejected {e now} with
    an [overloaded] error response instead of queueing unboundedly —
    callers get immediate backpressure and latency of accepted jobs stays
    bounded by [capacity / throughput].  The serve path never meets this
    edge: {!Ps_shard.Batch} waits for capacity ({!wait_capacity}) before
    it submits.

    {b Deadlines.}  A job's deadline is measured from the moment it is
    accepted (so time spent queued counts — a job that waited past its
    deadline is answered [timeout] without running).  During a solve the
    deadline is enforced cooperatively: the cancel hook is polled once
    per phase of the reduction loop ({!Ps_core.Reduction.run}), so
    cancellation latency is one phase, not one instruction.

    {b Shutdown.}  [shutdown] (drain mode, the default) stops accepting,
    lets the workers finish every queued and in-flight job, and joins the
    pool; with [~drain:false] the queue is still emptied but the cancel
    hook answers [true] immediately, so running solves abort at the next
    phase boundary and remaining jobs are answered [shutting_down].

    {b Observability.}  Every finished job becomes a [server.job]
    telemetry span (fields: method, ok, queue_wait_ns, solve_ns,
    serialize_ns) and feeds the [server.*] counters and gauges; the same
    numbers, plus latency percentiles over a sliding window, are returned
    by {!stats_json} — which is exactly what the protocol's [stats]
    method responds with. *)

type config = {
  domains : int;                  (** worker pool size (≥ 1) *)
  queue_capacity : int;           (** pending-job bound (≥ 1) *)
  default_timeout_ms : int option;
      (** deadline for requests that carry none; [None] = unbounded *)
  cache : Ps_cache.Cache.t option;
      (** solved-instance cache.  When set, {!submit} consults it
          before enqueueing (a verified hit replies synchronously,
          consuming no queue slot or worker), the default handler
          becomes {!Service.handle_cached}, and {!stats_json} reports a
          ["cache"] counter block.  [None] = uncached (the default). *)
}

val default_config : config
(** 4 workers (clamped to the machine), capacity 4096, no default
    deadline, no cache.  The capacity is deep because the serve path's
    batched dispatch turns a full queue into waiting, not shedding: a
    deep queue absorbs a burst as latency. *)

type handler =
  stats:(unit -> Json.t) ->
  cancel:(unit -> bool) ->
  Protocol.request ->
  (Json.t, Protocol.error) result
(** What workers run.  [Ps_core.Reduction.Canceled] escaping the handler
    is mapped to [timeout] (deadline) or [shutting_down] (abort); any
    other exception to an [internal] error.  The [stats] argument is this
    engine's own {!stats_json}. *)

type t

val create : ?handler:handler -> ?render:(Json.t -> string) -> config -> t
(** Spawn the worker domains.  [handler] defaults to {!Service.handle},
    or to {!Service.handle_cached} when [config.cache] is set.  [render]
    serializes every response handed to a [reply] callback — the compact
    JSON line ({!Protocol.response_to_line}, the default) or a binary
    frame ({!Protocol.Binary.frame}) when the transport speaks frames. *)

type submit_outcome = Accepted | Rejected_overloaded | Rejected_shutting_down

val submit : t -> Protocol.request -> reply:(string -> unit) -> submit_outcome
(** Hand a validated request to the pool.  [reply] is invoked exactly
    once per submission with the serialized response (rendered by the
    engine's [render]; no newline appended): from a worker domain for
    accepted jobs, or synchronously on the calling thread with the
    [overloaded] / [shutting_down] error when the job is shed.  [reply]
    must be thread-safe and must not block for long (it holds a worker);
    exceptions it raises are swallowed and counted as
    [server.reply_failures]. *)

val submit_batch :
  t -> (Protocol.request * (string -> unit)) list -> submit_outcome list
(** [submit] for a whole coalesced batch under one mutex acquisition and
    at most one worker wakeup (broadcast): the entry point for readers
    that stage decoded requests and dispatch per wakeup
    ({!Ps_shard.Batch}) instead of enqueueing one at a time.  Outcomes
    are in input order, each with exactly [submit]'s per-request
    semantics — admission is still per request, so one batch can mix
    accepted, cache-served and shed members. *)

val record_invalid : t -> unit
(** Count a line the transport rejected before submission (parse or
    validation failure) so [stats] reflects malformed traffic too. *)

val stats_json : t -> Json.t
(** Snapshot: configuration, uptime, queue depth, in-flight count,
    accepted/rejected/completed/failed/timeout totals, throughput, and
    p50/p95/p99/max/mean latency (ms) over the last 4096 jobs.  The
    completion counters are disjoint: [completed] splits exactly into
    ok responses, [failed] (non-timeout errors) and [timeouts] — this
    is the wire contract of the protocol's [stats] method, pinned by
    test.  With a cache configured, a ["cache"] object carries the
    {!Ps_cache.Cache.stats} counters (hits/misses/stores/evictions/
    bytes/audits/poisoned/warm_hits/disk_hits…).  Also refreshes the
    [server.latency_p*_ms] telemetry gauges. *)

val set_stats_extra : t -> (unit -> (string * Json.t) list) -> unit
(** Register transport-level fields appended to every {!stats_json}
    snapshot (e.g. a shard's batching and quota counters).  The hook
    runs outside the engine lock; last registration wins. *)

val wait_capacity : t -> int
(** Block until the request queue has at least one free slot (or the
    engine is shut down) and return the free-slot count.  The count is
    a promise only to a {e sole} submitter — the tier's batch
    dispatcher uses it to size each {!submit_batch} to what the engine
    will admit, turning queue overflow into backpressure instead of
    shed.  Returns [max_int] once the engine is closed (submit anyway;
    every item is answered [shutting_down]). *)

val queue_depth : t -> int
val inflight : t -> int
val completed : t -> int

val shutdown : ?drain:bool -> t -> unit
(** Stop accepting, dispose of every pending job as described above, join
    the workers.  Idempotent; concurrent submissions during shutdown are
    answered [shutting_down]. *)
