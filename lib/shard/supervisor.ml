module Tm = Ps_util.Telemetry
module Server = Ps_server.Server

type child = {
  index : int;
  socket : string;
  mutable pid : int;
  mutable restarts : int;
  mutable up : bool;
  mutable spawned_ns : int64;
}

type child_info = { c_index : int; c_pid : int; c_restarts : int; c_up : bool }

type t = {
  spawn : int -> string -> int;
  children : child array;
  mutex : Mutex.t;
  mutable stopping : bool;
}

let shard_socket_path ~front index = Printf.sprintf "%s.shard.%d" front index

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let start ~spawn ~front ~shards =
  if shards < 1 then invalid_arg "Supervisor.start: shards must be >= 1";
  (* Refuse to start over a live foreign listener before forking
     anything; each child re-checks its own path at bind time (and
     cleans genuinely stale files itself). *)
  let sockets =
    List.init shards (fun i ->
        let socket = shard_socket_path ~front i in
        match Server.prepare_socket_path socket with
        | Ok () -> socket
        | Error msg -> failwith (Printf.sprintf "serve: %s" msg))
  in
  let children =
    Array.of_list
      (List.mapi
         (fun i socket ->
           let pid = spawn i socket in
           {
             index = i;
             socket;
             pid;
             restarts = 0;
             up = true;
             spawned_ns = Tm.now_ns ();
           })
         sockets)
  in
  { spawn; children; mutex = Mutex.create (); stopping = false }

let sockets t = Array.to_list (Array.map (fun c -> c.socket) t.children)

let children_info t =
  locked t (fun () ->
      Array.to_list
        (Array.map
           (fun c ->
             {
               c_index = c.index;
               c_pid = c.pid;
               c_restarts = c.restarts;
               c_up = c.up;
             })
           t.children))

let restarts_total t =
  locked t (fun () ->
      Array.fold_left (fun acc c -> acc + c.restarts) 0 t.children)

let socket_ready path =
  let s = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect s (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

let wait_ready ?(timeout_s = 10.0) t =
  let deadline = Int64.add (Tm.now_ns ()) (Int64.of_float (timeout_s *. 1e9)) in
  let rec wait_one c =
    if socket_ready c.socket then Ok ()
    else if Int64.compare (Tm.now_ns ()) deadline > 0 then
      Error
        (Printf.sprintf "shard %d (pid %d) not accepting on %s after %.1fs"
           c.index c.pid c.socket timeout_s)
    else begin
      Thread.delay 0.02;
      wait_one c
    end
  in
  Array.fold_left
    (fun acc c -> match acc with Error _ -> acc | Ok () -> wait_one c)
    (Ok ()) t.children

(* The supervision loop: reap with WNOHANG, respawn what died.  A child
   that dies young (< 1 s) trips a short brake before its respawn so a
   crash loop burns retries at ~5/s instead of as fast as fork can go.
   Run this on its own thread; [terminate] must only be called after it
   has returned (single reaper — no waitpid races). *)
let supervise t ~should_stop =
  let check_child c =
    if c.up then
      match Unix.waitpid [ Unix.WNOHANG ] c.pid with
      | 0, _ -> ()
      | _, _status ->
          let stopping = locked t (fun () -> t.stopping) in
          if stopping then locked t (fun () -> c.up <- false)
          else begin
            let lived_ns = Int64.sub (Tm.now_ns ()) c.spawned_ns in
            if Int64.compare lived_ns 1_000_000_000L < 0 then
              Thread.delay 0.2;
            let pid = t.spawn c.index c.socket in
            locked t (fun () ->
                c.restarts <- c.restarts + 1;
                c.pid <- pid;
                c.spawned_ns <- Tm.now_ns ());
            Tm.incr "shard.restarts"
          end
      | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
          (* Already reaped, or the pid went stale after a failed
             respawn: nothing left to wait for. *)
          locked t (fun () -> c.up <- false)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  while not (should_stop ()) do
    (* The reaper is the only thread allowed to [waitpid] (single-reaper
       rule), so if it dies the tier silently stops respawning children.
       A respawn that fails (fork EAGAIN, fd exhaustion in child setup)
       is counted here and the child is marked down by the ECHILD branch
       on the next sweep — never reaper death. *)
    Array.iter
      (fun c -> try check_child c with _ -> Tm.incr "shard.reaper_error")
      t.children;
    Thread.delay 0.05
  done

let terminate ?(grace_s = 30.0) t =
  locked t (fun () -> t.stopping <- true);
  Array.iter
    (fun c ->
      if c.up then
        try Unix.kill c.pid Sys.sigterm with Unix.Unix_error _ -> ())
    t.children;
  let deadline = Int64.add (Tm.now_ns ()) (Int64.of_float (grace_s *. 1e9)) in
  let rec reap c =
    match Unix.waitpid [ Unix.WNOHANG ] c.pid with
    | 0, _ ->
        if Int64.compare (Tm.now_ns ()) deadline > 0 then begin
          (* Grace expired: the child is wedged mid-drain.  Kill it so
             the tier's own shutdown stays bounded. *)
          (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
          match Unix.waitpid [] c.pid with
          | _ -> ()
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
        end
        else begin
          Thread.delay 0.02;
          reap c
        end
    | _, _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  Array.iter
    (fun c ->
      if c.up then begin
        reap c;
        locked t (fun () -> c.up <- false)
      end;
      try Unix.unlink c.socket with Unix.Unix_error _ -> ())
    t.children
