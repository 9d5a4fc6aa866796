(** What every listener of the solve service shares: the termination
    latch, stale-socket handling, and the one accept loop.  The request
    path itself — framed read, validation, blocking engine submit,
    coalesced replies — is {!Ps_shard.Shard.serve}, which
    [pslocal serve] runs in-process over a socket or stdin/stdout, and
    once per child under [--shards]. *)

val prepare_socket_path : string -> (unit, string) result
(** Make [path] bindable: nothing there is fine; a socket file whose
    owner died (connect probe answers [ECONNREFUSED]) is unlinked; a
    socket with a {e live} listener, a non-socket file, or an unlinkable
    stale file is an [Error] explaining why — so a crashed server's
    leftover never causes [EADDRINUSE], and a running server's address
    is never hijacked. *)

val bind_unix_socket : string -> Unix.file_descr
(** {!prepare_socket_path} (raising [Failure] on its errors), then
    bind + listen(64). *)

val accept_loop :
  ?accept:(unit -> Unix.file_descr * Unix.sockaddr) ->
  listen_fd:Unix.file_descr ->
  should_stop:(unit -> bool) ->
  restart_counter:string ->
  (Unix.file_descr -> unit) ->
  unit
(** Accept on [listen_fd] until [should_stop] (polled at least every
    250 ms), handing each connection to the callback.  [EINTR] and
    [ECONNABORTED] are retried, fd/buffer exhaustion ([EMFILE],
    [ENFILE], [ENOBUFS], [ENOMEM]) backs off 50 ms and retries, [EBADF]
    (listener closed) returns.  Any other exception — from [select],
    [accept] or the callback — restarts the loop after 50 ms and bumps
    the [restart_counter] telemetry counter, so the acceptor never dies
    while the process looks healthy.  [accept] (default
    [Unix.accept listen_fd]) exists so tests can inject failures. *)

(** {2 Termination latch}

    The async-signal-safe stop flag the servers block on (see the
    comment in the implementation for why it is a polled atomic rather
    than a condvar or [Thread.wait_signal]). *)

type latch

val with_termination_latch : (latch -> 'a) -> 'a
(** Run with [SIGTERM]/[SIGINT] tripping the latch; previous signal
    dispositions are restored on exit. *)

val trip : latch -> unit
val tripped : latch -> bool

val await : latch -> unit
(** Block (50 ms poll) until the latch trips. *)
