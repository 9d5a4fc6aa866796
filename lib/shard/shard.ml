module Engine = Ps_server.Engine
module Server = Ps_server.Server
module P = Ps_server.Protocol
module Json = Ps_server.Json

type quota_config = { rate : float; burst : float }

type config = {
  engine : Engine.config;
  framing : Frame.framing;
  max_message_bytes : int;
  quota : quota_config option;
  index : int;
}

let default_config =
  {
    engine = Engine.default_config;
    framing = Frame.Json_lines;
    max_message_bytes = P.default_max_bytes;
    quota = None;
    index = 0;
  }

let quota_error =
  {
    P.code = P.Overloaded;
    message = "per-tenant quota exhausted — retry after backoff";
  }

let shard_stats_fields ~config ~quota () =
  let base =
    [
      ("index", Json.Int config.index);
      ("pid", Json.Int (Unix.getpid ()));
      ("framing", Json.Str (Frame.framing_name config.framing));
    ]
  in
  let quota_fields =
    match quota with
    | None -> []
    | Some q ->
        let qs = Quota.stats q in
        [
          ("quota_admitted", Json.Int qs.Quota.admitted);
          ("quota_rejected", Json.Int qs.Quota.rejected);
          ("quota_tenants", Json.Int qs.Quota.tenants);
        ]
  in
  [ ("shard", Json.Obj (base @ quota_fields)) ]

(* One connection's requests: framed read → typed-error reject or quota
   check → engine submit, every reply through the connection's writer
   [w].  A full engine queue blocks the submit, so this reader stops
   reading and the socket pushes back on the client.
   Returns once the stream has ended (EOF, a poisoned frame, a hang-up)
   {e and} every reply it is owed has been handed to [w]: [pending]
   counts requests from read to reply, so a client that half-closes
   and then waits still gets exactly one reply per request before the
   caller closes the writer. *)
let read_requests ~config ~engine ~quota ~render ic w =
  let pending = Atomic.make 0 in
  let reply line =
    Fun.protect
      ~finally:(fun () -> Atomic.decr pending)
      (fun () -> Frame.send w line)
  in
  (* [Frame.send] raises once the writer has failed (the peer hung up);
     the engine counts that for its replies, answers sent here drop it. *)
  let answer response =
    Atomic.incr pending;
    try reply (render response) with Failure _ -> ()
  in
  let reject ~id err =
    Engine.record_invalid engine;
    answer (P.error_response ~id err)
  in
  let rec loop () =
    match
      Frame.read_event ic ~framing:config.framing
        ~max_bytes:config.max_message_bytes
    with
    | Frame.Eof -> ()
    | Frame.Poisoned err ->
        (* Stream desynchronized: one typed answer, then stop reading
           this connection. *)
        reject ~id:Json.Null err
    | Frame.Request (Error (id, err)) ->
        reject ~id err;
        loop ()
    | Frame.Request (Ok req) ->
        (match quota with
        | Some q
          when not
                 (Quota.admit q ~tenant:(Option.value req.P.tenant ~default:""))
          ->
            answer (P.error_response ~id:req.P.id quota_error)
        | _ ->
            Atomic.incr pending;
            ignore (Engine.submit engine req ~reply : Engine.submit_outcome));
        loop ()
  in
  (* [Failure] is in the catch set because [Frame.send] raises it once
     the writer is closed — the reader should stop, not die noisily. *)
  (try loop () with Sys_error _ | Unix.Unix_error _ | Failure _ -> ());
  while Atomic.get pending > 0 do
    Thread.delay 0.005
  done

let serve ?(config = default_config) ?path () =
  Server.with_termination_latch @@ fun latch ->
  let render =
    match config.framing with
    | Frame.Json_lines -> P.response_to_line
    | Frame.Binary -> P.Binary.frame
  in
  let engine = Engine.create ~render config.engine in
  let quota =
    Option.map (fun q -> Quota.create ~rate:q.rate ~burst:q.burst) config.quota
  in
  Engine.set_stats_extra engine (shard_stats_fields ~config ~quota);
  let listen_fd = Option.map Server.bind_unix_socket path in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  (* The writers of connections still open at shutdown: the drain
     flushes them after the engine is empty, so every reply reaches the
     wire before the process exits. *)
  let writers_mutex = Mutex.create () in
  let writers = ref [] in
  let connection ~ic ~out ~on_close () =
    (match Frame.writer out ~framing:config.framing with
    | exception Sys_error _ -> ()
    | w ->
        Mutex.protect writers_mutex (fun () -> writers := w :: !writers);
        read_requests ~config ~engine ~quota ~render ic w;
        Frame.close_writer w;
        Mutex.protect writers_mutex (fun () ->
            writers := List.filter (fun x -> x != w) !writers));
    on_close ()
  in
  let accept listen_fd =
    Server.accept_loop ~listen_fd
      ~should_stop:(fun () -> Server.tripped latch)
      ~restart_counter:"shard.acceptor_restart"
      (fun fd ->
        match Unix.in_channel_of_descr fd with
        | exception Unix.Unix_error _ -> (
            try Unix.close fd with Unix.Unix_error _ -> ())
        | ic ->
            let on_close () = close_in_noerr ic in
            let _t : Thread.t =
              Thread.create (connection ~ic ~out:fd ~on_close) ()
            in
            ())
  in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigpipe prev_pipe;
      Option.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        listen_fd;
      Option.iter
        (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ())
        path)
    (fun () ->
      (match listen_fd with
      | Some fd ->
          let acceptor = Thread.create accept fd in
          Server.await latch;
          Thread.join acceptor
      | None ->
          (* stdin/stdout is one more connection, and its end is the
             stop signal.  The reader is not joined: on SIGTERM it may
             stay blocked on stdin, holding no locks, until exit. *)
          let on_close () = Server.trip latch in
          let _reader : Thread.t =
            Thread.create (connection ~ic:stdin ~out:Unix.stdout ~on_close) ()
          in
          Server.await latch);
      (* Order matters: drain the engine (every accepted request renders
         its reply into a writer; a reader blocked on a full queue wakes
         and its request is answered [shutting_down]), then flush the
         writers still open — zero dropped replies on SIGTERM. *)
      Engine.shutdown ~drain:true engine;
      List.iter Frame.close_writer
        (Mutex.protect writers_mutex (fun () -> !writers)))
