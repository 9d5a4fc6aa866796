module Server = Ps_server.Server

type t = {
  shard_sockets : string array;
  rr : int Atomic.t;
  accepted : int Atomic.t;
  active : int Atomic.t;
  failovers : int Atomic.t;
  unrouted : int Atomic.t;
}

type stats = {
  accepted : int;
  active : int;
  failovers : int;
  unrouted : int;
}

let create ~shard_sockets =
  if Array.length shard_sockets = 0 then
    invalid_arg "Router.create: need at least one shard socket";
  {
    shard_sockets;
    rr = Atomic.make 0;
    accepted = Atomic.make 0;
    active = Atomic.make 0;
    failovers = Atomic.make 0;
    unrouted = Atomic.make 0;
  }

let stats (t : t) =
  {
    accepted = Atomic.get t.accepted;
    active = Atomic.get t.active;
    failovers = Atomic.get t.failovers;
    unrouted = Atomic.get t.unrouted;
  }

(* Round-robin with connect failover: a shard that refuses (just
   crashed; its replacement not bound yet) costs one failover tick and
   the connection lands on the next shard — callers never see the
   restart window as long as one shard accepts. *)
let connect_shard (t : t) =
  let n = Array.length t.shard_sockets in
  let first = Atomic.fetch_and_add t.rr 1 in
  let rec attempt k =
    if k >= n then None
    else
      let idx = (first + k) mod n in
      match Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error _ ->
          (* Out of fds (EMFILE and friends): for routing purposes
             indistinguishable from a refusing shard — count a failover
             and move on, down to [None] once the ring is exhausted,
             which hangs up this client without killing its thread. *)
          Atomic.incr t.failovers;
          attempt (k + 1)
      | s -> (
          match Unix.connect s (Unix.ADDR_UNIX t.shard_sockets.(idx)) with
          | () -> Some (s, idx)
          | exception Unix.Unix_error _ ->
              (try Unix.close s with Unix.Unix_error _ -> ());
              Atomic.incr t.failovers;
              attempt (k + 1))
  in
  attempt 0

let rec write_all fd bytes off len =
  if len > 0 then
    match Unix.write fd bytes off len with
    | n -> write_all fd bytes (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd bytes off len

(* Splice bytes one way until EOF or either side dies, then half-close
   the destination so the peer sees EOF for this direction.  The router
   never parses what it relays — both codecs (and future ones) flow
   through unchanged. *)
let pump ~src ~dst =
  let buf = Bytes.create 65536 in
  let rec loop () =
    match Unix.read src buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n -> (
        match write_all dst buf 0 n with
        | () -> loop ()
        | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()
  in
  loop ();
  try Unix.shutdown dst Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()

let handle (t : t) client =
  match connect_shard t with
  | None ->
      (* Every shard refused: nothing to say in-protocol (the router is
         codec-blind), so hang up and count it. *)
      Atomic.incr t.unrouted;
      (try Unix.close client with Unix.Unix_error _ -> ())
  | Some (shard_fd, _idx) ->
      Atomic.incr t.active;
      let forward = Thread.create (fun () -> pump ~src:client ~dst:shard_fd) () in
      pump ~src:shard_fd ~dst:client;
      (* The shard hung up (its EOF ended the backward pump), so this
         connection is over in both directions: the forward pump may
         still be parked in [read client] waiting for bytes the shard
         will never see — half-close the read side so that read returns
         0 now, not when the client eventually closes.  Without this a
         drain with idle-but-open clients stalls on the join below. *)
      (try Unix.shutdown client Unix.SHUTDOWN_RECEIVE
       with Unix.Unix_error _ -> ());
      Thread.join forward;
      (try Unix.close shard_fd with Unix.Unix_error _ -> ());
      (try Unix.close client with Unix.Unix_error _ -> ());
      Atomic.decr t.active

let accept_loop (t : t) ~listen_fd ~should_stop =
  Server.accept_loop ~listen_fd ~should_stop
    ~restart_counter:"router.acceptor_restart" (fun fd ->
      Atomic.incr t.accepted;
      let _conn : Thread.t =
        Thread.create
          (fun () ->
            try handle t fd
            with _ ->
              (* Last resort: a relay failure must not leak the
                 accepted fd.  [handle] only raises before it has
                 closed [fd] itself, so this close cannot double up
                 with its normal cleanup. *)
              Atomic.incr t.unrouted;
              (try Unix.close fd with Unix.Unix_error _ -> ()))
          ()
      in
      ())

(* Shutdown helper: connections accepted before the stop are still
   relaying the shards' drain output; wait for the pumps to finish so
   every reply reaches its client before the front process exits. *)
let await_drained ?(timeout_s = 30.0) (t : t) =
  let deadline =
    Int64.add (Ps_util.Telemetry.now_ns ()) (Int64.of_float (timeout_s *. 1e9))
  in
  let rec wait () =
    if Atomic.get t.active = 0 then true
    else if Int64.compare (Ps_util.Telemetry.now_ns ()) deadline > 0 then false
    else begin
      Thread.delay 0.02;
      wait ()
    end
  in
  wait ()
