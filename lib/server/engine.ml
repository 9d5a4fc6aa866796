module P = Protocol
module Tm = Ps_util.Telemetry

type config = {
  domains : int;
  queue_capacity : int;
  default_timeout_ms : int option;
  cache : Ps_cache.Cache.t option;
}

let default_config =
  { domains = max 1 (min 4 (Ps_util.Parallel.available ()));
    queue_capacity = 4096;
    default_timeout_ms = None;
    cache = None }

type handler =
  stats:(unit -> Json.t) ->
  cancel:(unit -> bool) ->
  Protocol.request ->
  (Json.t, Protocol.error) result

type job = {
  req : P.request;
  reply : string -> unit;
  enqueued_ns : int64;
  deadline_ns : int64 option;
}

(* Latencies of the last [Array.length ring] jobs, in ms, as a circular
   buffer — enough for meaningful p99 without unbounded memory. *)
type latency_window = {
  ring : float array;
  mutable next : int;
  mutable filled : int;
}

type t = {
  cfg : config;
  handler : handler;
  render : Json.t -> string;  (* response serializer: JSON line (the
                                 default) or a binary frame *)
  queue : job Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  not_full : Condition.t;  (* signalled when a worker frees a slot *)
  mutable closed : bool;     (* no new submissions; guarded by [mutex] *)
  aborting : bool Atomic.t;  (* cancel hook answers true for everyone *)
  mutable joined : bool;
  mutable workers : unit Domain.t array;
  mutable stats_extra : (unit -> (string * Json.t) list) option;
      (* transport-level counters appended to stats_json; guarded by
         [mutex], called outside it *)
  started_ns : int64;
  (* stats, all guarded by [mutex] *)
  mutable accepted : int;
  mutable rejected : int;
  mutable invalid : int;
  mutable completed : int;
  mutable failed : int;   (* completed with ok=false for a non-timeout
                             reason; disjoint from [timeouts], so
                             completed = ok + failed + timeouts *)
  mutable timeouts : int;
  mutable inflight : int;
  mutable reply_failures : int;
  window : latency_window;
}

type submit_outcome = Accepted | Rejected_shutting_down

(* [@pslint.blocking_ok]: every critical section under the engine mutex
   is bounded bookkeeping (queue push/pop, counters); nothing solves,
   renders, or touches I/O while holding it. *)
let[@pslint.blocking_ok] locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let record_latency t ms =
  let w = t.window in
  w.ring.(w.next) <- ms;
  w.next <- (w.next + 1) mod Array.length w.ring;
  if w.filled < Array.length w.ring then w.filled <- w.filled + 1

let safe_reply t job line =
  try job.reply line
  with _ ->
    locked t (fun () -> t.reply_failures <- t.reply_failures + 1);
    Tm.incr "server.reply_failures"

let ms_of_ns ns = Int64.to_float ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Stats *)

let stats_json t =
  let snapshot =
    locked t (fun () ->
        let w = t.window in
        let lat = Array.make w.filled 0.0 in
        (* Oldest-to-newest order is irrelevant for percentiles; copy the
           live prefix (the ring wraps in place). *)
        Array.blit w.ring 0 lat 0 w.filled;
        ( t.accepted,
          t.rejected,
          t.invalid,
          t.completed,
          t.failed,
          t.timeouts,
          t.inflight,
          Queue.length t.queue,
          t.reply_failures,
          lat ))
  in
  let ( accepted,
        rejected,
        invalid,
        completed,
        failed,
        timeouts,
        inflight,
        depth,
        reply_failures,
        lat ) =
    snapshot
  in
  Array.sort Float.compare lat;
  let p50 = Ps_util.Stats.percentile_nearest lat 0.50
  and p95 = Ps_util.Stats.percentile_nearest lat 0.95
  and p99 = Ps_util.Stats.percentile_nearest lat 0.99 in
  let mean =
    if Array.length lat = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 lat /. float_of_int (Array.length lat)
  in
  let lat_max = if Array.length lat = 0 then 0.0 else lat.(Array.length lat - 1) in
  Tm.gauge "server.latency_p50_ms" p50;
  Tm.gauge "server.latency_p95_ms" p95;
  Tm.gauge "server.latency_p99_ms" p99;
  let uptime_s = ms_of_ns (Int64.sub (Tm.now_ns ()) t.started_ns) /. 1e3 in
  let cache_fields =
    match t.cfg.cache with
    | None -> []
    | Some c ->
        let s = Ps_cache.Cache.stats c in
        [ ( "cache",
            Json.Obj
              [ ("hits", Json.Int s.Ps_cache.Cache.hits);
                ("misses", Json.Int s.misses);
                ("stores", Json.Int s.stores);
                ("evictions", Json.Int s.evictions);
                ("entries", Json.Int s.entries);
                ("bytes", Json.Int s.bytes);
                ("budget", Json.Int s.budget);
                ("audits", Json.Int s.audits);
                ("poisoned", Json.Int s.poisoned);
                ("warm_hits", Json.Int s.warm_hits);
                ("warm_entries", Json.Int s.warm_entries);
                ("warm_bytes", Json.Int s.warm_bytes);
                ("disk_hits", Json.Int s.disk_hits) ] ) ]
  in
  let extra_fields =
    (* Snapshot the hook under the lock, run it outside: extras come
       from the transport layer (quotas), which has locks of
       its own. *)
    match locked t (fun () -> t.stats_extra) with
    | None -> []
    | Some f -> f ()
  in
  Json.Obj
    ([ ("domains", Json.Int t.cfg.domains);
      ("queue_capacity", Json.Int t.cfg.queue_capacity);
      ("uptime_s", Json.Float uptime_s);
      ("queue_depth", Json.Int depth);
      ("inflight", Json.Int inflight);
      ("accepted", Json.Int accepted);
      ("rejected", Json.Int rejected);
      ("invalid_lines", Json.Int invalid);
      ("completed", Json.Int completed);
      ("failed", Json.Int failed);
      ("timeouts", Json.Int timeouts);
      ("reply_failures", Json.Int reply_failures);
      ( "throughput_rps",
        Json.Float
          (if uptime_s > 0.0 then float_of_int completed /. uptime_s else 0.0)
      );
      ( "latency_ms",
        Json.Obj
          [ ("window", Json.Int (Array.length lat));
            ("p50", Json.Float p50);
            ("p95", Json.Float p95);
            ("p99", Json.Float p99);
            ("max", Json.Float lat_max);
            ("mean", Json.Float mean) ] ) ]
    @ cache_fields @ extra_fields)

(* ------------------------------------------------------------------ *)
(* Workers *)

let run_job t job =
  let start_ns = Tm.now_ns () in
  let queue_wait_ns = Int64.sub start_ns job.enqueued_ns in
  let deadline_passed () =
    match job.deadline_ns with
    | Some d -> Tm.now_ns () > d
    | None -> false
  in
  let cancel () = Atomic.get t.aborting || deadline_passed () in
  let timeout_error () =
    P.
      { code = Timeout;
        message =
          Printf.sprintf "deadline of %d ms exceeded"
            (match (job.req.timeout_ms, t.cfg.default_timeout_ms) with
            | Some ms, _ | None, Some ms -> ms
            | None, None -> 0) }
  in
  let result =
    if Atomic.get t.aborting then
      Error P.{ code = Shutting_down; message = "server is shutting down" }
    else if deadline_passed () then
      (* Spent its whole budget in the queue: answer without solving. *)
      Error (timeout_error ())
    else
      match t.handler ~stats:(fun () -> stats_json t) ~cancel job.req with
      | result -> result
      | exception Ps_core.Reduction.Canceled ->
          if Atomic.get t.aborting then
            Error
              P.{ code = Shutting_down; message = "canceled by shutdown" }
          else Error (timeout_error ())
      | exception e ->
          Error
            P.
              { code = Internal;
                message = "handler raised: " ^ Printexc.to_string e }
  in
  let solved_ns = Tm.now_ns () in
  let response =
    match result with
    | Ok payload -> P.ok_response ~id:job.req.id payload
    | Error e -> P.error_response ~id:job.req.id e
  in
  let line = t.render response in
  let done_ns = Tm.now_ns () in
  safe_reply t job line;
  let total_ms = ms_of_ns (Int64.sub done_ns job.enqueued_ns) in
  locked t (fun () ->
      t.inflight <- t.inflight - 1;
      t.completed <- t.completed + 1;
      (match result with
      | Ok _ -> ()
      | Error { code = Timeout; _ } -> t.timeouts <- t.timeouts + 1
      | Error _ -> t.failed <- t.failed + 1);
      record_latency t total_ms);
  if Tm.enabled () then begin
    Tm.incr "server.completed";
    (match result with Ok _ -> () | Error _ -> Tm.incr "server.failed");
    Tm.gauge "server.inflight" (float_of_int (locked t (fun () -> t.inflight)));
    Tm.add_completed_span ~name:"server.job" ~start_ns:job.enqueued_ns
      ~stop_ns:done_ns
      [ ("method", Tm.Str (P.method_name job.req.call));
        ("ok", Tm.Bool (Result.is_ok result));
        ("queue_wait_ns", Tm.Int (Int64.to_int queue_wait_ns));
        ("solve_ns", Tm.Int (Int64.to_int (Int64.sub solved_ns start_ns)));
        ("serialize_ns", Tm.Int (Int64.to_int (Int64.sub done_ns solved_ns)))
      ]
  end

let worker_loop t () =
  let rec next () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.closed do
      Condition.wait t.nonempty t.mutex
    done;
    if Queue.is_empty t.queue then begin
      (* closed and drained: the pool winds down *)
      Mutex.unlock t.mutex;
      ()
    end
    else begin
      let job = Queue.pop t.queue in
      t.inflight <- t.inflight + 1;
      Condition.signal t.not_full;
      Mutex.unlock t.mutex;
      run_job t job;
      next ()
    end
  in
  next ()

(* ------------------------------------------------------------------ *)

let create ?handler ?(render = P.response_to_line) cfg =
  let handler =
    match handler with
    | Some h -> h
    | None -> (
        (* With a cache configured, the default dispatch becomes the
           cache-aware one (misses store, solves warm-start). *)
        match cfg.cache with
        | Some cache -> Service.handle_cached ~cache
        | None -> Service.handle)
  in
  if cfg.domains < 1 then invalid_arg "Engine.create: domains must be >= 1";
  if cfg.queue_capacity < 1 then
    invalid_arg "Engine.create: queue_capacity must be >= 1";
  let t =
    { cfg;
      handler;
      render;
      stats_extra = None;
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      not_full = Condition.create ();
      closed = false;
      aborting = Atomic.make false;
      joined = false;
      workers = [||];
      started_ns = Tm.now_ns ();
      accepted = 0;
      rejected = 0;
      invalid = 0;
      completed = 0;
      failed = 0;
      timeouts = 0;
      inflight = 0;
      reply_failures = 0;
      window = { ring = Array.make 4096 0.0; next = 0; filled = 0 } }
  in
  t.workers <- Array.init cfg.domains (fun _ -> Domain.spawn (worker_loop t));
  t

(* The one admission path.  Deadline arithmetic and the cache consult
   run outside the lock: a verified hit is answered synchronously on the
   submitting thread and never consumes a queue slot or a worker.  The
   sampled re-audit (when drawn) runs here — it is bounded by the
   instance size, far below a solve, and queue pressure is exactly what
   the cache exists to relieve.  A miss waits for a free slot, so a full
   queue holds the submitter (in the shard tier, a connection's reader:
   it stops reading and the kernel socket buffers push back on the
   client) instead of shedding.  The deadline clock starts when the job
   enters the queue, so time spent waiting for a slot is not charged. *)
let[@pslint.blocking_ok] submit t (req : P.request) ~reply =
  let start_ns = Tm.now_ns () in
  let timeout_ns =
    Option.map
      (fun ms -> Int64.of_int (ms * 1_000_000))
      (match req.P.timeout_ms with
      | Some _ as s -> s
      | None -> t.cfg.default_timeout_ms)
  in
  let cached =
    match t.cfg.cache with
    | None -> None
    | Some c -> (
        (* The consult re-renders results and re-audits certificates
           with real solver code; a bug there must degrade to a cache
           miss — the job takes the ordinary worker path — not unwind
           the submitting thread. *)
        try Service.cached_lookup c req.P.call
        with _ ->
          Tm.incr "engine.cache_consult_error";
          None)
  in
  let outcome =
    locked t (fun () ->
        if Option.is_none cached then
          (* [@pslint.blocking_ok]: parking here is the design — a full
             queue turns into waiting (socket backpressure) instead of
             shed; [shutdown] broadcasts [not_full], so no submitter
             outlives the engine. *)
          while (not t.closed) && Queue.length t.queue >= t.cfg.queue_capacity
          do
            Condition.wait t.not_full t.mutex
          done;
        if t.closed then begin
          t.rejected <- t.rejected + 1;
          Rejected_shutting_down
        end
        else begin
          t.accepted <- t.accepted + 1;
          (match cached with
          | Some _ ->
              t.completed <- t.completed + 1;
              record_latency t (ms_of_ns (Int64.sub (Tm.now_ns ()) start_ns))
          | None ->
              let enqueued_ns = Tm.now_ns () in
              let deadline_ns = Option.map (Int64.add enqueued_ns) timeout_ns in
              Queue.push { req; reply; enqueued_ns; deadline_ns } t.queue;
              Condition.signal t.nonempty);
          Accepted
        end)
  in
  (* Replies that happen on the submitting thread: cache hits and the
     shutdown rejection.  Enqueued jobs answer from a worker. *)
  let answer response =
    try reply (t.render response)
    with _ -> locked t (fun () -> t.reply_failures <- t.reply_failures + 1)
  in
  (match (outcome, cached) with
  | Accepted, Some payload ->
      Tm.incr "server.accepted";
      Tm.incr "server.completed";
      Tm.incr "server.cache_served";
      answer (P.ok_response ~id:req.P.id payload)
  | Accepted, None -> Tm.incr "server.accepted"
  | Rejected_shutting_down, _ ->
      Tm.incr "server.rejected";
      answer
        (P.error_response ~id:req.P.id
           P.{ code = Shutting_down; message = "server is shutting down" }));
  outcome

let set_stats_extra t f = locked t (fun () -> t.stats_extra <- Some f)

let record_invalid t =
  locked t (fun () -> t.invalid <- t.invalid + 1);
  Tm.incr "server.invalid"

let queue_depth t = locked t (fun () -> Queue.length t.queue)
let inflight t = locked t (fun () -> t.inflight)
let completed t = locked t (fun () -> t.completed)

let shutdown ?(drain = true) t =
  let join_now =
    locked t (fun () ->
        let first = not t.closed in
        t.closed <- true;
        if not drain then Atomic.set t.aborting true;
        Condition.broadcast t.nonempty;
        Condition.broadcast t.not_full;
        first && not t.joined)
  in
  if join_now then begin
    Array.iter Domain.join t.workers;
    locked t (fun () -> t.joined <- true)
  end
