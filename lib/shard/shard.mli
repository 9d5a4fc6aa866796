(** One shard: a complete solve server built from the existing
    {!Ps_server.Engine} plus two per-request layers — {!Frame} (codec)
    and {!Quota} (per-tenant admission).  This is the only request
    path: [pslocal serve] runs one in-process over [--socket] or
    stdin/stdout, and the [--shards] supervisor runs one per child
    process.

    Request path per connection: framed read → typed-error reject or
    quota check → {!Ps_server.Engine.submit} → rendered reply through
    the connection's coalescing writer.  A full engine queue blocks the
    connection's reader in [submit], so a flood becomes socket
    backpressure; quota is the only [overloaded] answer.  A connection
    that ends (EOF, hang-up, poisoned stream) still receives every
    reply it is owed; then its writer and fd are released.

    Lifecycle: bind (stale socket files replaced, live ones refused),
    accept until [SIGTERM]/[SIGINT] — or, on stdin/stdout, until end of
    input — then stop accepting, drain the engine (which wakes every
    blocked reader) and flush every connection writer: every request
    read gets exactly one reply.

    The [shard] stats block (index, pid, framing and quota counters)
    is injected into the engine's [stats] response so the metrics
    collector can scrape everything over the ordinary protocol. *)

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
