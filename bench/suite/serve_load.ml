module Json = Ps_server.Json
module Protocol = Ps_server.Protocol
module Engine = Ps_server.Engine
module Service = Ps_server.Service
module Cache = Ps_cache.Cache
module Hgen = Ps_hypergraph.Hgen
module Hio = Ps_hypergraph.Hio
module Rng = Ps_util.Rng
module M = Measure

type params = {
  ladder : (int * float) list;
  nominal_rps : int;
  closed_share : float;
  setups : int;
  dir : string;
}

let pool_size = 32
let hit_share = 0.7

(* The closed loop keeps this many requests in flight: enough to keep
   both server workers busy between the sender's polls, and below the
   engine's queue capacity (64), so the loop never sheds. *)
let window = 32

(* A rung counts for rps_at_slo only if it meets all of these. *)
let slo_p99_ms = 25.
let slo_lag_p99_ms = 5.
let slo_backlog_s = 0.1

(* Fresh instances are generated before the run, so the closed loop has
   a fixed budget; it ends early rather than repeat an instance. *)
let closed_max_rps = 3000.

(* ------------------------------------------------------------------ *)
(* Request stream *)

(* Small instances: a miss pays a full solve with derived k (choose_k
   included) but stays in the millisecond range.  Half are intervals, so
   the latency p90 (70% hits + 30% misses) falls inside the slowest
   family's cluster rather than on the gap below it. *)
let instance rng =
  match Rng.int rng 4 with
  | 0 -> Hgen.uniform_random rng ~n:32 ~m:24 ~k:4
  | 1 -> Hgen.uniform_random rng ~n:64 ~m:48 ~k:4
  | _ -> Hgen.random_intervals rng ~n:64 ~m:48 ~min_len:2 ~max_len:8

(* Everything after the id: no k, so the server derives it. *)
let request_tail rng =
  let text = Hio.to_text (instance rng) in
  Printf.sprintf
    ",\"method\":\"reduce\",\"params\":{\"hypergraph\":%s,\"solver\":\"greedy\",\"seed\":%d}}"
    (Json.to_string (Json.Str text))
    (Rng.int rng 1_000_000)

(* Ids [0, pool_size) send each pool instance once (set-up); later ids
   are drawn: a zipf(1) pool instance, or a fresh one. *)
type stream = { tails : string array; pool_of : int array (* -1: fresh *) }

let make_stream ~seed ~length =
  let rng = Rng.create seed in
  let pool = Array.init pool_size (fun _ -> request_tail rng) in
  let cdf = Array.make pool_size 0. in
  Array.iteri
    (fun i _ ->
      cdf.(i) <-
        (if i = 0 then 0. else cdf.(i - 1)) +. (1. /. float_of_int (i + 1)))
    cdf;
  let zipf () =
    let u = Rng.float rng cdf.(pool_size - 1) in
    let rec find i = if i = pool_size - 1 || u < cdf.(i) then i else find (i + 1) in
    find 0
  in
  let pool_of =
    Array.init length (fun i ->
        if i < pool_size then i
        else if Rng.float rng 1. < hit_share then zipf ()
        else -1)
  in
  let tails =
    Array.init length (fun i ->
        if pool_of.(i) >= 0 then pool.(pool_of.(i)) else request_tail rng)
  in
  { tails; pool_of }

let request_line s id = Printf.sprintf "{\"id\":%d%s" id s.tails.(id)

let check_reply ~first line =
  match Json.parse line with
  | Error e -> (-1, Error ("unparsable reply: " ^ e))
  | Ok j ->
      let id = match Json.member "id" j with Some (Json.Int i) -> i | _ -> -1 in
      let verdict =
        match (Json.member "ok" j, Json.member "result" j) with
        | Some (Json.Bool true), Some r -> (
            match (Json.member "certified" r, first id) with
            | Some (Json.Bool true), Some f when not (Json.equal f r) ->
                Error "result differs from the instance's first reply"
            | Some (Json.Bool true), _ -> Ok r
            | _ -> Error "not certified")
        | _ -> (
            match Option.bind (Json.member "error" j) (Json.member "code") with
            | Some (Json.Str code) -> Error code
            | _ -> Error "malformed reply")
      in
      (id, verdict)

(* ------------------------------------------------------------------ *)
(* Socket client: the sender is the calling thread, replies are read
   and checked by one reader thread. *)

type status = Pending | Answered | Shed | Wrong

type client = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  base : int64;
  due : float array;  (** ms since [base] *)
  done_at : float array;
  status : status array;
  received : int Atomic.t;
  eof : bool Atomic.t;
}

let clock c = M.ms c.base (M.now ())

let firsts_lookup s firsts id =
  if id >= 0 && id < Array.length s.pool_of && s.pool_of.(id) >= 0 then
    firsts.(s.pool_of.(id))
  else None

let read_replies c s firsts () =
  let rec loop () =
    match input_line c.ic with
    | exception (End_of_file | Sys_error _) -> Atomic.set c.eof true
    | line ->
        let t = clock c in
        let id, verdict = check_reply ~first:(firsts_lookup s firsts) line in
        if id >= 0 && id < Array.length c.status then begin
          c.done_at.(id) <- t;
          c.status.(id) <-
            (match verdict with
            | Ok r ->
                let p = s.pool_of.(id) in
                if p >= 0 && Option.is_none firsts.(p) then firsts.(p) <- Some r;
                Answered
            | Error "overloaded" -> Shed
            | Error e ->
                prerr_endline (Printf.sprintf "suite: reply %d: %s" id e);
                Wrong)
        end
        else prerr_endline ("suite: reply without a known id: " ^ line);
        Atomic.incr c.received;
        loop ()
  in
  loop ()

let send c s id ~due =
  c.due.(id) <- due;
  output_string c.oc (request_line s id);
  output_char c.oc '\n'

(* Wait until [upto] replies have arrived in total. *)
let drain c ~upto =
  let deadline = Int64.add (M.now ()) 30_000_000_000L in
  while
    Atomic.get c.received < upto
    && (not (Atomic.get c.eof))
    && Int64.compare (M.now ()) deadline < 0
  do
    Thread.delay 0.001
  done;
  if Atomic.get c.received < upto then
    failwith
      (Printf.sprintf "suite: server answered %d of %d requests"
         (Atomic.get c.received) upto)

type rung = {
  rate : int;
  lat : float array;  (** answered requests, ms from due time *)
  failed : int;  (** shed, wrong or missing *)
  shed_n : int;
  lag : float array;  (** ms from due time to send *)
  backlog : int;  (** replies outstanding when the rung's last request went out *)
}

let tally_range c ~from ~upto =
  let lat = ref [] and failed = ref 0 and shed_n = ref 0 in
  for id = from to upto - 1 do
    match c.status.(id) with
    | Answered -> lat := (c.done_at.(id) -. c.due.(id)) :: !lat
    | Shed ->
        incr failed;
        incr shed_n
    | Pending | Wrong -> incr failed
  done;
  (Array.of_list !lat, !failed, !shed_n)

(* A sleep overshoots its deadline by the kernel's timer slack plus the
   wake-up, about as long as a cache hit takes; the sender sleeps until
   this much before a due time and spins the rest. *)
let spin_ms = 0.2

let wait_until clock t =
  let early = t -. clock () -. spin_ms in
  if early > 0. then Thread.delay (early /. 1000.);
  while clock () < t do
    Domain.cpu_relax ()
  done

(* Open loop: request i of the rung is due at t0 + i/rate whatever the
   replies do; everything due is sent at once, then the sender waits for
   the next due time. *)
let open_rung c s ~from ~rate ~seconds =
  let n = max 1 (int_of_float (float_of_int rate *. seconds)) in
  let period = 1000. /. float_of_int rate in
  let lag = Array.make n 0. in
  let t0 = clock c in
  let sent = ref 0 in
  while !sent < n do
    let due_now = min n (1 + int_of_float ((clock c -. t0) /. period)) in
    let batch = !sent in
    while !sent < due_now do
      send c s (from + !sent) ~due:(t0 +. (float_of_int !sent *. period));
      incr sent
    done;
    flush c.oc;
    let t = clock c in
    for i = batch to !sent - 1 do
      lag.(i) <- t -. c.due.(from + i)
    done;
    if !sent < n then wait_until (fun () -> clock c) (t0 +. (float_of_int !sent *. period))
  done;
  let backlog = from + n - Atomic.get c.received in
  drain c ~upto:(from + n);
  let lat, failed, shed_n = tally_range c ~from ~upto:(from + n) in
  ({ rate; lat; failed; shed_n; lag; backlog }, from + n)

let meets_slo r =
  r.failed = 0
  && M.percentile r.lat 0.99 <= slo_p99_ms
  && M.percentile r.lag 0.99 <= slo_lag_p99_ms
  && float_of_int r.backlog <= slo_backlog_s *. float_of_int r.rate

(* Closed loop: keep [window] requests in flight, refilling every
   millisecond; at this workload's rates fewer than two replies arrive in
   that time, so the window stays nearly full.  Throughput is answered
   requests over the time to the last reply. *)
let closed_loop c s ~from ~limit ~seconds =
  let t0 = clock c in
  let t_end = t0 +. (seconds *. 1000.) in
  let next = ref from in
  while clock c < t_end && !next < limit do
    let room = window - (!next - Atomic.get c.received) in
    if room > 0 then begin
      let t = clock c in
      for _ = 1 to min room (limit - !next) do
        send c s !next ~due:t;
        incr next
      done;
      flush c.oc
    end;
    Thread.delay 0.001
  done;
  drain c ~upto:!next;
  let lat, _, _ = tally_range c ~from ~upto:!next in
  let t_last = ref t0 in
  for id = from to !next - 1 do
    t_last := Float.max !t_last c.done_at.(id)
  done;
  (float_of_int (Array.length lat) /. ((!t_last -. t0) /. 1000.), !next)

(* ------------------------------------------------------------------ *)
(* Server process *)

let pslocal_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "../../bin/pslocal.exe"

(* The server must not pick up a cache directory or tracing from the
   environment: shipped defaults only. *)
let spawn sock =
  (try Sys.remove sock with Sys_error _ -> ());
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"PSLOCAL_" kv))
         (Array.to_list (Unix.environment ())))
  in
  let exe = pslocal_exe () in
  Unix.create_process_env exe [| exe; "serve"; "--socket"; sock |] env
    Unix.stdin Unix.stderr Unix.stderr

(* SIGTERM, and SIGKILL if the server has not drained within 10 s (a
   signal mask inherited with SIGTERM blocked would otherwise park the
   run here for good). *)
let kill pid =
  let signal s = try Unix.kill pid s with Unix.Unix_error (Unix.ESRCH, _, _) -> () in
  signal Sys.sigterm;
  let deadline = Int64.add (M.now ()) 10_000_000_000L in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Int64.compare (M.now ()) deadline >= 0 then signal Sys.sigkill;
        Thread.delay 0.01;
        wait ()
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let connect sock =
  let deadline = Int64.add (M.now ()) 10_000_000_000L in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Int64.compare (M.now ()) deadline < 0 ->
        Unix.close fd;
        Thread.delay 0.02;
        go ()
  in
  go ()

type server = {
  pid : int;
  client : client;
  reader : Thread.t;
  stream : stream;
  firsts : Json.t option array;
}

let stop_server ss =
  (try Unix.shutdown ss.client.fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error _ -> ());
  Thread.join ss.reader;
  close_in_noerr ss.client.ic;
  kill ss.pid

(* Set-up: draw the stream, start the server, connect, and send every
   pool instance once. *)
let start_server p ~seed ~length =
  let stream = make_stream ~seed ~length in
  let sock = Filename.concat p.dir "serve.sock" in
  let pid = spawn sock in
  match connect sock with
  | exception e ->
      kill pid;
      raise e
  | fd ->
      let client =
        { fd;
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd;
          base = M.now ();
          due = Array.make length 0.;
          done_at = Array.make length 0.;
          status = Array.make length Pending;
          received = Atomic.make 0;
          eof = Atomic.make false }
      in
      let firsts = Array.make pool_size None in
      let reader = Thread.create (read_replies client stream firsts) () in
      let ss = { pid; client; reader; stream; firsts } in
      (try
         let t = clock client in
         for id = 0 to pool_size - 1 do
           send client stream id ~due:t
         done;
         flush client.oc;
         drain client ~upto:pool_size
       with e ->
         stop_server ss;
         raise e);
      ss

(* ------------------------------------------------------------------ *)
(* In-process replay, for the traced run *)

type replay = {
  op_ms : float array;  (** parse start to reply, answered requests *)
  r_lat : float array;  (** due time to reply, answered requests *)
  r_failed : int;
  r_shed : int;
  hits : int;  (** answered without reaching the handler *)
  r_requests : int;
}

let replay ?spans s ~firsts ~from ~rate ~seconds () =
  let len = Array.length s.tails in
  let base = M.now () in
  let clock () = M.ms base (M.now ()) in
  let stamps () = Array.make len 0. in
  (* Per request: parse start, parse end = submit start, submit end,
     handler start/end, render start/end, reply. *)
  let due = stamps () and p0 = stamps () and p1 = stamps () and s1 = stamps () in
  let hs = stamps () and he = stamps () and es = stamps () and ee = stamps () in
  let rt = stamps () in
  let replies = Array.make len "" in
  let done_n = Atomic.make 0 in
  let index = function Some (Json.Int i) when i >= 0 && i < len -> i | _ -> -1 in
  let stamp a i = if i >= 0 then a.(i) <- clock () in
  (* [pslocal serve] without flags: the default engine config plus an
     in-memory cache, whose default handler is Service.handle_cached. *)
  let cache = Cache.create ~config:{ Cache.default_config with dir = None } () in
  let config = { Engine.default_config with cache = Some cache } in
  let engine =
    match spans with
    | None -> Engine.create config
    | Some _ ->
        let handler ~stats ~cancel (req : Protocol.request) =
          let i = index (Some req.Protocol.id) in
          stamp hs i;
          Fun.protect
            ~finally:(fun () -> stamp he i)
            (fun () -> Service.handle_cached ~cache ~stats ~cancel req)
        in
        let render j =
          let i = index (Json.member "id" j) in
          stamp es i;
          let line = Protocol.response_to_line j in
          stamp ee i;
          line
        in
        Engine.create ~handler ~render config
  in
  let submit i =
    let line = request_line s i in
    stamp p0 i;
    match Protocol.parse_request line with
    | Error (_, e) -> failwith ("suite: request rejected: " ^ e.Protocol.message)
    | Ok req ->
        stamp p1 i;
        let reply r =
          stamp rt i;
          replies.(i) <- r;
          Atomic.incr done_n
        in
        let (_ : Engine.submit_outcome) = Engine.submit engine req ~reply in
        stamp s1 i
  in
  let wait upto =
    let deadline = Int64.add (M.now ()) 30_000_000_000L in
    while Atomic.get done_n < upto && Int64.compare (M.now ()) deadline < 0 do
      Thread.delay 0.001
    done;
    if Atomic.get done_n < upto then failwith "suite: in-process engine stalled"
  in
  let n = max 1 (int_of_float (float_of_int rate *. seconds)) in
  Fun.protect ~finally:(fun () -> Engine.shutdown ~drain:true engine) (fun () ->
      for id = 0 to pool_size - 1 do
        submit id
      done;
      wait pool_size;
      let period = 1000. /. float_of_int rate in
      let t0 = clock () in
      for k = 0 to n - 1 do
        let d = t0 +. (float_of_int k *. period) in
        wait_until clock d;
        due.(from + k) <- d;
        submit (from + k)
      done;
      wait (pool_size + n));
  let first = firsts_lookup s firsts in
  let ok = Array.make len false in
  let failed = ref 0 and shed_n = ref 0 in
  let check i =
    match check_reply ~first replies.(i) with
    | _, Ok _ -> ok.(i) <- true
    | _, Error code ->
        incr failed;
        if String.equal code "overloaded" then incr shed_n
        else prerr_endline (Printf.sprintf "suite: in-process reply %d: %s" i code)
  in
  for i = 0 to pool_size - 1 do
    check i
  done;
  let ids = List.init n (fun k -> from + k) in
  List.iter check ids;
  let answered = List.filter (fun i -> ok.(i)) ids in
  let over f = Array.of_list (List.map f answered) in
  (match spans with
  | None -> ()
  | Some sp ->
      let ns x = Int64.add base (Int64.of_float (x *. 1e6)) in
      List.iter
        (fun i ->
          let root = Spans.fresh_id sp in
          Spans.add sp ~id:root ~op:i ~parent:(-1) Spans.root (ns p0.(i)) (ns rt.(i));
          Spans.add sp ~op:i ~parent:root "protocol.decode" (ns p0.(i)) (ns p1.(i));
          let miss = hs.(i) > 0. in
          let submit_end =
            Float.min s1.(i) (if miss then hs.(i) else rt.(i))
          in
          let submit = Spans.fresh_id sp in
          Spans.add sp ~id:submit ~op:i ~parent:root "engine.submit" (ns p1.(i))
            (ns submit_end);
          if miss then begin
            Spans.add sp ~op:i ~parent:root "engine.queue_wait" (ns submit_end)
              (ns hs.(i));
            Spans.add sp ~op:i ~parent:root "service.handle" (ns hs.(i)) (ns he.(i))
          end;
          Spans.add sp ~op:i
            ~parent:(if miss then root else submit)
            "protocol.encode" (ns es.(i)) (ns ee.(i)))
        answered);
  { op_ms = over (fun i -> rt.(i) -. p0.(i));
    r_lat = over (fun i -> rt.(i) -. due.(i));
    r_failed = !failed;
    r_shed = !shed_n;
    hits = List.length (List.filter (fun i -> hs.(i) = 0.) answered);
    r_requests = n + pool_size }

(* ------------------------------------------------------------------ *)
(* One run *)

let print_rung r =
  Printf.printf
    "  rung %4d req/s: %5d answered  p50 %8.3f ms  p99 %8.3f ms  lag p99 %6.3f ms  backlog %3d  failed %d%s\n%!"
    r.rate (Array.length r.lat) (M.percentile r.lat 0.5) (M.percentile r.lat 0.99)
    (M.percentile r.lag 0.99) r.backlog r.failed
    (if meets_slo r then "" else "  (misses SLO)")

(* Each set-up starts its own server and runs one closed-loop segment
   on it; [ops_per_s] is the median over the segments, so one server
   that lands badly on the cores does not set it.  The last server then
   runs the ladder.  A traced run then replays the nominal rung in
   process twice, untimed and timed inside, for the per-layer split. *)
let run p ~seed ~seconds ~spans =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let requests rate secs = max 1 (int_of_float (float_of_int rate *. secs)) in
  let ladder = List.map (fun (rate, share) -> (rate, share *. seconds)) p.ladder in
  let closed_s = p.closed_share *. seconds /. float_of_int p.setups in
  let replay_s = 0.25 *. seconds in
  let ladder_n = List.fold_left (fun acc (r, d) -> acc + requests r d) 0 ladder in
  let closed_n = int_of_float (closed_max_rps *. closed_s) in
  let replay_n = requests p.nominal_rps replay_s in
  let length =
    pool_size + closed_n + ladder_n + if Option.is_some spans then 2 * replay_n else 0
  in
  let setup_times = Array.make p.setups 0. and capacity = Array.make p.setups 0. in
  let attempted = ref 0 and failed = ref 0 and shed_n = ref 0 in
  let count ss ~upto =
    let _, f, sh = tally_range ss.client ~from:0 ~upto in
    attempted := !attempted + upto;
    failed := !failed + f;
    shed_n := !shed_n + sh
  in
  let rec segment i =
    let t0 = M.now () in
    let ss = start_server p ~seed ~length in
    setup_times.(i) <- M.secs t0 (M.now ());
    match
      closed_loop ss.client ss.stream ~from:pool_size ~limit:(pool_size + closed_n)
        ~seconds:closed_s
    with
    | exception e ->
        stop_server ss;
        raise e
    | rate, next ->
        capacity.(i) <- rate;
        Printf.printf "  closed loop on server %d (%d in flight): %d requests, %.1f req/s\n%!"
          (i + 1) window (next - pool_size) rate;
        if i + 1 < p.setups then begin
          stop_server ss;
          count ss ~upto:next;
          segment (i + 1)
        end
        else (ss, next)
  in
  let ss, closed_end = segment 0 in
  let c = ss.client and s = ss.stream in
  let rungs, next, rss =
    Fun.protect ~finally:(fun () -> stop_server ss) @@ fun () ->
    let from = ref closed_end in
    let rungs =
      List.map
        (fun (rate, secs) ->
          let r, next = open_rung c s ~from:!from ~rate ~seconds:secs in
          from := next;
          print_rung r;
          r)
        ladder
    in
    (rungs, !from, M.peak_rss_mb ss.pid)
  in
  count ss ~upto:next;
  let nominal = List.find (fun r -> r.rate = p.nominal_rps) rungs in
  let rps_at_slo =
    List.fold_left (fun acc r -> if meets_slo r then max acc r.rate else acc) 0 rungs
  in
  let measured =
    [ ("setup_s", M.median setup_times);
      ("ops_per_s", M.median capacity);
      ("peak_rss_mb", rss);
      ("latency.p50_ms", M.percentile nominal.lat 0.5);
      ("latency.p90_ms", M.percentile nominal.lat 0.9);
      ("latency.p99_ms", M.percentile nominal.lat 0.99);
      ("latency.samples", float_of_int (Array.length nominal.lat));
      ("loadgen.lag_ms.p99", M.percentile nominal.lag 0.99);
      ("loadgen.lag_ms.max", M.percentile nominal.lag 1.0);
      ("loadgen.rps_at_slo", float_of_int rps_at_slo) ]
  in
  match spans with
  | None ->
      { M.ops = { M.attempted = !attempted; failed = !failed };
        metrics = ("engine.shed", float_of_int !shed_n) :: measured }
  | Some sp ->
      let firsts = ss.firsts in
      let plain = replay s ~firsts ~from:next ~rate:p.nominal_rps ~seconds:replay_s () in
      let timed =
        replay ~spans:sp s ~firsts ~from:(next + replay_n) ~rate:p.nominal_rps
          ~seconds:replay_s ()
      in
      let p50 name = M.percentile (Spans.durations_ms sp name) 0.5 in
      let p99 name = M.percentile (Spans.durations_ms sp name) 0.99 in
      { M.ops =
          { M.attempted = !attempted + plain.r_requests + timed.r_requests;
            failed = !failed + plain.r_failed + timed.r_failed };
        metrics =
          measured
          @ [ ("protocol.decode_ms.p50", p50 "protocol.decode");
              ("engine.submit_ms.p50", p50 "engine.submit");
              ("engine.queue_wait_ms.p50", p50 "engine.queue_wait");
              ("engine.queue_wait_ms.p99", p99 "engine.queue_wait");
              ("service.handle_ms.p50", p50 "service.handle");
              ("service.handle_ms.p99", p99 "service.handle");
              ("protocol.encode_ms.p50", p50 "protocol.encode");
              ( "cache.hit_ratio",
                float_of_int timed.hits /. float_of_int (Array.length timed.op_ms) );
              ("engine.shed", float_of_int (!shed_n + plain.r_shed + timed.r_shed));
              ( "server.transport_ms.p50",
                M.percentile nominal.lat 0.5 -. M.percentile plain.r_lat 0.5 );
              ("trace.coverage", Spans.coverage sp);
              ( "trace.overhead_frac",
                (M.mean timed.op_ms /. M.mean plain.op_ms) -. 1. ) ] }
