(** Message framing for shard connections: newline-delimited JSON (the
    compatibility protocol) or length-prefixed binary frames
    ({!Ps_server.Protocol.Binary}), behind one reader/writer surface so
    the serve loop is codec-agnostic.

    {b Reading} turns a connection into a stream of typed {!event}s.
    Malformed input never raises and never kills the process: a bad
    message on a recoverable boundary is a [Request (Error _)] (answer
    the typed error, keep reading), while damage that desynchronizes
    the stream itself — truncated frame header, EOF mid-payload, an
    over-cap length prefix, JSON text arriving at a binary port — is
    {!Poisoned} (answer once, then hang up: the next byte boundary is
    unknowable).

    {b Writing} goes through a per-connection coalescing writer thread:
    {!send} appends to a pending buffer and returns; the thread flushes
    everything accumulated per wakeup with a single [write].  Under
    load, many replies share one syscall. *)

type framing = Json_lines | Binary

val framing_name : framing -> string
(** ["json"] / ["binary"] — wire and CLI spelling. *)

val framing_of_name : string -> framing option

(** {1 Reading} *)

type event =
  | Request of (Ps_server.Protocol.request, Ps_server.Json.t * Ps_server.Protocol.error) result
      (** One decoded message: a valid request, or a typed rejection to
          answer (stream still usable). *)
  | Eof  (** clean end of stream at a message boundary *)
  | Poisoned of Ps_server.Protocol.error
      (** The byte stream is desynchronized; answer this once (id
          [Null]) and close. *)

val read_event :
  in_channel -> framing:framing -> max_bytes:int -> event
(** Read one message.  [max_bytes] bounds what the reader buffers in
    both codecs.  JSON mode skips blank lines; a longer line is dropped
    up to its newline and answered [Request (Error payload_too_large)],
    so the connection stays usable.  Binary mode enforces [max_bytes]
    against the declared frame length {e before} reading the payload,
    so a hostile length prefix cannot make the reader allocate or block
    unboundedly. *)

val read_message :
  in_channel ->
  framing:framing ->
  max_bytes:int ->
  (Ps_server.Json.t, string) result option
(** Client-side: one whole message as a value ([None] = EOF).  Used by
    the metrics collector and the load generator. *)

val encode_message : framing -> Ps_server.Json.t -> string
(** Client-side: the full wire bytes of one message (JSON line with
    trailing newline, or a binary frame). *)

(** {1 Writing} *)

type writer

val writer : Unix.file_descr -> framing:framing -> writer
(** Spawn the coalescing writer thread for one connection.  The caller
    keeps fd ownership (the writer never closes it). *)

val send : writer -> string -> unit
(** Queue one rendered response (engine [render] output: a JSON line
    without newline, or a complete binary frame).  Thread-safe; returns
    without blocking on the socket.  Raises [Failure] once the writer
    has failed (peer hung up) or is closing — callers inside the engine
    reply path count that as a reply failure. *)

val close_writer : writer -> unit
(** Flush everything pending and wait for the writer thread to exit.
    Idempotent, and safe to call from several threads at once; the fd
    itself stays open. *)

val writer_failed : writer -> bool
