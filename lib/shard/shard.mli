(** One shard: a complete solve server built from the existing
    {!Ps_server.Engine} plus the three per-request layers — {!Frame}
    (codec), {!Quota} (per-tenant admission), {!Batch} (coalesced
    dispatch).  This is the only request path: [pslocal serve] runs one
    in-process over [--socket] or stdin/stdout, and the [--shards]
    supervisor runs one per child process.

    Request path per connection: framed read → typed-error reject or
    quota check → staging queue → batched engine submit → rendered
    reply through the connection's coalescing writer.  A connection
    that ends (EOF, hang-up, poisoned stream) still receives every
    reply it is owed; then its writer and fd are released.

    Lifecycle: bind (stale socket files replaced, live ones refused),
    accept until [SIGTERM]/[SIGINT] — or, on stdin/stdout, until end of
    input — then stop accepting, flush the staging queue, drain the
    engine and flush every connection writer: an accepted request never
    loses its reply to shutdown.

    The [shard] stats block (index, pid, framing, batching and quota
    counters) is injected into the engine's [stats] response so the
    metrics collector can scrape everything over the ordinary
    protocol. *)

type quota_config = {
  rate : float;   (** tokens/second per tenant *)
  burst : float;  (** bucket capacity *)
}

type config = {
  engine : Ps_server.Engine.config;
  framing : Frame.framing;
  max_message_bytes : int;  (** line / frame-payload cap *)
  quota : quota_config option;  (** [None] = no per-tenant limits *)
  index : int;  (** this shard's position, echoed in stats/metrics *)
}

val default_config : config
(** {!Ps_server.Engine.default_config}, JSON lines,
    {!Ps_server.Protocol.default_max_bytes}, no quota, index 0. *)

val serve : ?config:config -> ?path:string -> unit -> unit
(** Bind [path] and serve until a termination signal, or serve
    stdin → stdout when [path] is absent; returns after the drain
    described above. *)
