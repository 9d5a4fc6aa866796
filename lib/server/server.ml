(* Stop latch: the accept/read loops block in their own threads; the
   main thread sleeps in [await] until SIGTERM/SIGINT/EOF trips the
   latch, then runs the drain.

   The latch is a bare atomic and [await] polls it, deliberately.  Two
   alternatives both fail here:
   - A mutex/condvar latch woken from a [Sys.signal] handler: OCaml
     signal handlers run at poll points on whatever thread polls next,
     which can be the thread already holding the latch mutex (relocking
     raises mid-handler), and with main, the readers and every worker
     domain parked in blocking C calls there may be no poll point at
     all — SIGTERM hangs.  The handler below only flips the atomic,
     which is async-safe, and the 50 ms poll in [await] guarantees a
     prompt poll point.
   - Masking + [Thread.wait_signal]: the runtime's internal threads
     (the systhreads tick thread, domain 0's backup thread) are created
     before user code and keep the signals unblocked, so with the
     disposition left at default the kernel can deliver there and kill
     the process.  Installing a handler fixes the disposition
     process-wide whichever thread the kernel picks. *)
type latch = { stopped : bool Atomic.t }

let make_latch () = { stopped = Atomic.make false }
let trip latch = Atomic.set latch.stopped true
let tripped latch = Atomic.get latch.stopped

let await latch =
  while not (tripped latch) do
    Thread.delay 0.05
  done

(* [f latch] runs with SIGTERM/SIGINT tripping the latch; previous
   dispositions are restored on exit. *)
let with_termination_latch f =
  let latch = make_latch () in
  let install s = Sys.signal s (Sys.Signal_handle (fun _ -> trip latch)) in
  let prev_term = install Sys.sigterm and prev_int = install Sys.sigint in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int)
    (fun () -> f latch)

(* ------------------------------------------------------------------ *)
(* Accepting *)

(* Retry [accept_fn] through the transient accept failures: EINTR (a
   signal landed mid-accept — routine for a process that fields SIGTERM
   and friends) and ECONNABORTED (the peer gave up while queued — says
   nothing about the listener).  Without this, one such failure inside
   the ready branch of the accept loop killed the acceptor thread and
   the server silently stopped accepting while looking healthy.  [None]
   when [should_stop] answers [true] between retries or the socket is
   gone (EBADF); every other exception propagates. *)
let rec accept_retrying ~should_stop accept_fn =
  match accept_fn () with
  | conn -> Some conn
  | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      if should_stop () then None
      else accept_retrying ~should_stop accept_fn
  | exception
      Unix.Unix_error
        ((Unix.EMFILE | Unix.ENFILE | Unix.ENOBUFS | Unix.ENOMEM), _, _) ->
      (* Resource exhaustion: the listener is fine, the process (or the
         host) is out of fds or buffer space.  Retrying immediately
         would spin at 100% CPU; give in-flight connections 50 ms to
         release resources and try again.  Killing the acceptor here
         would turn a transient spike into a permanently deaf server. *)
      if should_stop () then None
      else begin
        Ps_util.Telemetry.incr "server.accept_backoff";
        Thread.delay 0.05;
        accept_retrying ~should_stop accept_fn
      end
  | exception Unix.Unix_error (Unix.EBADF, _, _) -> None

(* The one accept loop behind every listener (shard, router, metrics).
   Poll with a timeout so [should_stop] is seen promptly, retry the
   transient accept failures above, and hand each connection to
   [on_accept].

   A dead acceptor is a server's worst failure mode: the process looks
   healthy (and up to a supervisor) while refusing every new client.
   Anything the retry ladder does not classify (ENOMEM out of [select],
   EPERM from a security module, an accept error outside the transient
   set, a raising [on_accept]) lands in [run]: count it under
   [restart_counter], back off, and keep accepting until told to stop.

   Accepted fds are close-on-exec, like every socket the servers open:
   the tier front fork+execs shard children, and a child that inherits
   a client connection holds it open after the front closes it — the
   client never sees its EOF. *)
let accept_loop ?accept ~listen_fd ~should_stop ~restart_counter on_accept =
  let accept_fn () =
    match accept with
    | Some f -> f ()
    | None -> Unix.accept ~cloexec:true listen_fd
  in
  let rec loop () =
    match Unix.select [ listen_fd ] [] [] 0.25 with
    | [], _, _ -> if should_stop () then () else loop ()
    | _ :: _, _, _ ->
        (match accept_retrying ~should_stop accept_fn with
        | Some (fd, _) -> on_accept fd
        | None -> ());
        if should_stop () then () else loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        if should_stop () then () else loop ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
  in
  let rec run () =
    try loop ()
    with _ ->
      Ps_util.Telemetry.incr restart_counter;
      if should_stop () then ()
      else begin
        Thread.delay 0.05;
        run ()
      end
  in
  run ()

(* ------------------------------------------------------------------ *)
(* Socket paths *)

(* A leftover socket file makes a fresh bind fail with EADDRINUSE, but
   blindly unlinking would silently hijack the address from a server
   that is still alive.  Disambiguate with a connect probe: a live
   listener accepts (or at least queues) the probe, while a file whose
   owner died answers ECONNREFUSED — that one is stale and safe to
   remove.  Every outcome is a [result]; callers turn the message into
   their own clean exit. *)
let prepare_socket_path path =
  if not (Sys.file_exists path) then Ok ()
  else
    match (Unix.stat path).Unix.st_kind with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()
    | Unix.S_SOCK -> (
        let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let verdict =
          Fun.protect
            ~finally:(fun () ->
              try Unix.close probe with Unix.Unix_error _ -> ())
            (fun () ->
              match Unix.connect probe (Unix.ADDR_UNIX path) with
              | () -> `Live
              | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> `Stale
              | exception Unix.Unix_error (Unix.ENOENT, _, _) -> `Gone
              | exception Unix.Unix_error (e, _, _) -> `Err e)
        in
        match verdict with
        | `Live ->
            Error
              (Printf.sprintf
                 "%s is in use by a live server (connect probe succeeded)"
                 path)
        | `Gone -> Ok ()
        | `Stale -> (
            match Unix.unlink path with
            | () -> Ok ()
            | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()
            | exception Unix.Unix_error (e, _, _) ->
                Error
                  (Printf.sprintf "cannot remove stale socket %s: %s" path
                     (Unix.error_message e)))
        | `Err e ->
            Error
              (Printf.sprintf "probing %s failed: %s" path
                 (Unix.error_message e)))
    | _ -> Error (Printf.sprintf "%s exists and is not a socket" path)

let bind_unix_socket path =
  match prepare_socket_path path with
  | Error msg -> failwith (Printf.sprintf "serve: %s" msg)
  | Ok () ->
      let listen_fd =
        Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
      in
      Unix.bind listen_fd (Unix.ADDR_UNIX path);
      Unix.listen listen_fd 64;
      listen_fd
