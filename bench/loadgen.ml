(* Load generator for the solve service.

     dune exec bench/loadgen.exe                # full sweep
     dune exec bench/loadgen.exe -- --quick     # CI smoke run
     dune exec bench/loadgen.exe -- --domains=8 --out=serve.json

   Drives an in-process {!Ps_server.Engine} through the complete wire
   path — each request is encoded to a JSON line, parsed and validated
   by {!Ps_server.Protocol.parse_request}, solved on a worker domain and
   serialized back — so the measured cost includes protocol overhead,
   not just the solver.

   Two modes, both on the sunflower_12 reduce workload:
   - closed loop: N client threads, each keeps exactly one request in
     flight; sweeps N to find the saturation throughput.
   - open loop: requests arrive at a fixed rate regardless of
     completions, which exposes queueing delay and the shed
     ([overloaded]) behaviour past saturation.

   Results go to BENCH_serve.json (throughput + p50/p95/p99 latency per
   sweep point) and to stdout as tables. *)

module Json = Ps_server.Json
module Protocol = Ps_server.Protocol
module Engine = Ps_server.Engine
module Frame = Ps_shard.Frame
module Supervisor = Ps_shard.Supervisor
module Metrics = Ps_shard.Metrics
module B = Ps_server.Protocol.Binary

let now_ns = Ps_util.Telemetry.now_ns

(* ------------------------------------------------------------------ *)
(* Workload *)

let request_line =
  let h = Ps_hypergraph.Hgen.sunflower ~n_petals:12 ~core:3 ~petal:3 in
  Json.to_string
    (Json.Obj
       [ ("id", Json.Int 0);
         ("method", Json.Str "reduce");
         ( "params",
           Json.Obj
             [ ("hypergraph", Json.Str (Ps_hypergraph.Hio.to_text h));
               ("solver", Json.Str "greedy") ] ) ])

let response_ok line =
  match Json.parse line with
  | Ok j -> Option.bind (Json.member "ok" j) Json.to_bool_opt = Some true
  | Error _ -> false

let response_overloaded line =
  match Json.parse line with
  | Ok j ->
      Option.bind (Json.member "error" j) (Json.member "code")
      |> Fun.flip Option.bind Json.to_string_opt
      = Some "overloaded"
  | Error _ -> false

(* What a JSON-lines connection does with each line it reads: validate,
   then submit or answer the typed error directly. *)
let submit_line engine ~reply line =
  match Protocol.parse_request line with
  | Ok req -> ignore (Engine.submit engine req ~reply : Engine.submit_outcome)
  | Error (id, err) ->
      reply (Protocol.response_to_line (Protocol.error_response ~id err))

(* ------------------------------------------------------------------ *)
(* Measurement points *)

type point = {
  label : string;
  offered : int;      (* requests submitted *)
  completed : int;    (* ok responses *)
  shed : int;         (* overloaded responses *)
  errors : int;       (* any other non-ok response *)
  duration_s : float;
  latencies_ms : float array;  (* sorted, completed requests only *)
}

let percentile = Ps_util.Stats.percentile_nearest

let throughput p =
  if p.duration_s > 0.0 then float_of_int p.completed /. p.duration_s else 0.0

(* Per-thread latency sink; merged after the point finishes so the hot
   path never contends on a shared lock. *)
type sink = { mutable lat : float list; mutable ok : int;
              mutable shed : int; mutable errors : int }

let new_sink () = { lat = []; ok = 0; shed = 0; errors = 0 }

let record sink ~t0_ns line =
  let ms = Int64.to_float (Int64.sub (now_ns ()) t0_ns) /. 1e6 in
  if response_ok line then begin
    sink.ok <- sink.ok + 1;
    sink.lat <- ms :: sink.lat
  end
  else if response_overloaded line then sink.shed <- sink.shed + 1
  else sink.errors <- sink.errors + 1

let finish ~label ~offered ~duration_s sinks =
  let ok = List.fold_left (fun a s -> a + s.ok) 0 sinks in
  let shed = List.fold_left (fun a s -> a + s.shed) 0 sinks in
  let errors = List.fold_left (fun a s -> a + s.errors) 0 sinks in
  let lat =
    Array.of_list (List.concat_map (fun s -> s.lat) sinks)
  in
  Array.sort Float.compare lat;
  { label; offered; completed = ok; shed; errors; duration_s;
    latencies_ms = lat }

(* ------------------------------------------------------------------ *)
(* Closed loop: [concurrency] threads, one request in flight each. *)

let closed_point ~domains ~concurrency ~duration_s =
  let engine = Engine.create { Engine.default_config with domains } in
  let stop_at =
    Int64.add (now_ns ()) (Int64.of_float (duration_s *. 1e9))
  in
  let offered = Atomic.make 0 in
  let client sink () =
    (* One blocking request at a time: a tiny latch per call. *)
    let m = Mutex.create () and c = Condition.create () in
    let slot = ref None in
    let reply line =
      Mutex.lock m;
      slot := Some line;
      Condition.signal c;
      Mutex.unlock m
    in
    while now_ns () < stop_at do
      Atomic.incr offered;
      let t0_ns = now_ns () in
      slot := None;
      submit_line engine ~reply request_line;
      Mutex.lock m;
      while !slot = None do
        Condition.wait c m
      done;
      let line = Option.get !slot in
      Mutex.unlock m;
      record sink ~t0_ns line
    done
  in
  let sinks = List.init concurrency (fun _ -> new_sink ()) in
  let t0 = now_ns () in
  let threads = List.map (fun s -> Thread.create (client s) ()) sinks in
  List.iter Thread.join threads;
  let duration_s = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9 in
  Engine.shutdown ~drain:true engine;
  finish
    ~label:(Printf.sprintf "closed/c%d" concurrency)
    ~offered:(Atomic.get offered) ~duration_s sinks

(* ------------------------------------------------------------------ *)
(* Open loop: fixed arrival rate, replies recorded asynchronously. *)

let open_point ~domains ~rate_rps ~duration_s =
  let engine = Engine.create { Engine.default_config with domains } in
  let sink = new_sink () in
  let sink_mutex = Mutex.create () in
  let outstanding = Atomic.make 0 in
  let t0 = now_ns () in
  let offered = ref 0 in
  let target = int_of_float (float_of_int rate_rps *. duration_s) in
  (* Deficit pacing: send however many requests are due by now, then
     sleep briefly — robust to coarse timer granularity. *)
  while !offered < target do
    let elapsed_s = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9 in
    let due =
      min target (int_of_float (float_of_int rate_rps *. elapsed_s))
    in
    while !offered < due do
      incr offered;
      Atomic.incr outstanding;
      let t0_ns = now_ns () in
      let reply line =
        Mutex.lock sink_mutex;
        record sink ~t0_ns line;
        Mutex.unlock sink_mutex;
        Atomic.decr outstanding
      in
      submit_line engine ~reply request_line
    done;
    Thread.delay 0.001
  done;
  (* Drain delivers every outstanding reply before returning. *)
  Engine.shutdown ~drain:true engine;
  assert (Atomic.get outstanding = 0);
  let duration_s = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9 in
  finish
    ~label:(Printf.sprintf "open/r%d" rate_rps)
    ~offered:!offered ~duration_s [ sink ]

(* ------------------------------------------------------------------ *)
(* Repeated-instance lane: the cache workload.

   N distinct interval hypergraphs; a zipf(1) popularity distribution
   over them models the production pattern the cache exists for (a few
   hot instances, a long tail).  Four phases, one synchronous client:

     cold             each instance once, greedy  → all misses + stores
     warm             [draws] zipf-sampled greedy  → result-tier hits
     warm_start       each instance once, caro-wei → result miss, but the
                      phase-0 G_k CSR replays from the warm tier
     warm_start_cold  the same caro-wei requests on a fresh uncached
                      engine — the warm-start baseline

   The hit rate and the warm/cold + warm-start/cold latency ratios land
   in BENCH_serve.json under "gate" (flat, machine-independent), which
   is what scripts/bench_gate.py compares across runs. *)

let repeated_request ~solver ~seed h =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Int 0);
         ("method", Json.Str "reduce");
         ( "params",
           Json.Obj
             [ ("hypergraph", Json.Str (Ps_hypergraph.Hio.to_text h));
               ("solver", Json.Str solver);
               ("seed", Json.Int seed) ] ) ])

(* One blocking request; returns (response line, latency ms). *)
let call engine line =
  let m = Mutex.create () and c = Condition.create () in
  let slot = ref None in
  let reply l =
    Mutex.lock m;
    slot := Some l;
    Condition.signal c;
    Mutex.unlock m
  in
  let t0_ns = now_ns () in
  submit_line engine ~reply line;
  Mutex.lock m;
  while !slot = None do
    Condition.wait c m
  done;
  let l = Option.get !slot in
  Mutex.unlock m;
  (l, Int64.to_float (Int64.sub (now_ns ()) t0_ns) /. 1e6)

type repeated = {
  n_graphs : int;
  draws : int;
  hit_rate : float;
  audits : int;
  warm_starts : int;
  cold_ms : float array;            (* sorted *)
  warm_ms : float array;
  warm_start_ms : float array;
  warm_start_cold_ms : float array;
  warm_start_speedup : float;
      (* median over per-(instance, seed) matched cold/warm ratios —
         pairing cancels instance-size spread, the median rides out
         transient machine load on individual solves *)
}

let repeated_lane ~domains ~draws =
  let module Cache = Ps_cache.Cache in
  (* Dense interval instances: phase 0 of the reduction builds a G_k
     CSR over ~len^2 conflicts per vertex, which is exactly the work
     the warm tier elides, so the warm-start signal is well above the
     protocol-overhead noise floor. *)
  let n_graphs = 8 in
  let graphs =
    Array.init n_graphs (fun i ->
        Ps_hypergraph.Hgen.all_intervals_of_length ~n:(120 + (25 * i))
          ~len:10)
  in
  (* zipf(1) CDF over the instances: weight 1/(i+1). *)
  let cdf =
    let w = Array.init n_graphs (fun i -> 1.0 /. float_of_int (i + 1)) in
    let total = Array.fold_left ( +. ) 0.0 w in
    let acc = ref 0.0 in
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  let zipf_draw rng =
    let u = Ps_util.Rng.float rng 1.0 in
    let rec find i =
      if i >= n_graphs - 1 || u <= cdf.(i) then i else find (i + 1)
    in
    find 0
  in
  (* Phase-0 CSR snapshots of these instances run ~10-40 MB each (G_k
     is dense), so the default 32 MiB warm budget would thrash; size
     the tier to hold the whole working set. *)
  let cache =
    Cache.create
      ~config:
        { Cache.default_config with
          warm_budget_bytes = 512 * 1024 * 1024 }
      ()
  in
  let engine =
    Engine.create { Engine.default_config with domains; cache = Some cache }
  in
  let solve engine ~solver ~seed i =
    let line, ms = call engine (repeated_request ~solver ~seed graphs.(i)) in
    if not (response_ok line) then
      failwith (Printf.sprintf "repeated lane: non-ok response: %s" line);
    ms
  in
  let sorted l =
    let a = Array.of_list l in
    Array.sort Float.compare a;
    a
  in
  let cold_ms =
    sorted (List.init n_graphs (solve engine ~solver:"greedy" ~seed:0))
  in
  let hits_before = (Cache.stats cache).Cache.hits in
  let rng = Ps_util.Rng.create 42 in
  let warm_ms =
    sorted
      (List.init draws (fun _ ->
           solve engine ~solver:"greedy" ~seed:0 (zipf_draw rng)))
  in
  let hits_after = (Cache.stats cache).Cache.hits in
  (* Three seeds per instance: each (instance, seed) pair misses the
     result tier but replays the instance's phase-0 CSR from the warm
     tier, tripling the sample the gated ratio is computed from. *)
  let ws_seeds = [ 1; 2; 3 ] in
  let warm_runs =
    List.concat_map
      (fun seed -> List.init n_graphs (solve engine ~solver:"caro-wei" ~seed))
      ws_seeds
  in
  Engine.shutdown ~drain:true engine;
  let baseline = Engine.create { Engine.default_config with domains } in
  let cold_runs =
    List.concat_map
      (fun seed ->
        List.init n_graphs (solve baseline ~solver:"caro-wei" ~seed))
      ws_seeds
  in
  Engine.shutdown ~drain:true baseline;
  let warm_start_speedup =
    let ratios =
      sorted
        (List.map2
           (fun cold warm -> if warm > 0.0 then cold /. warm else 0.0)
           cold_runs warm_runs)
    in
    percentile ratios 0.50
  in
  let s = Cache.stats cache in
  { n_graphs;
    draws;
    hit_rate = float_of_int (hits_after - hits_before) /. float_of_int draws;
    audits = s.Cache.audits;
    warm_starts = s.Cache.warm_hits;
    cold_ms;
    warm_ms;
    warm_start_ms = sorted warm_runs;
    warm_start_cold_ms = sorted cold_runs;
    warm_start_speedup }

(* ------------------------------------------------------------------ *)
(* Serve-tier sweep: real processes, real sockets.

   Everything above drives an in-process engine; this lane spawns
   `pslocal serve` the way production runs it and measures the whole
   tier over Unix sockets, on a protocol-dominated workload (ping
   through the engine) so the numbers isolate the serving stack itself:
   codec, admission, reply coalescing, per-request engine overhead.

   The matrix is shards × codec.  Shard-tier configs are driven at
   their per-shard sockets (one pipelined connection per shard; the
   relay adds a constant per-byte tax better measured separately), the
   single-process configs get the same number of connections to the one
   socket, so the comparison changes the serving stack and nothing
   else.  Open loop: a rate ladder with deficit pacing; past
   saturation the ladder flattens at the tier's capacity, and the best
   point's aggregate rps is the capacity estimate the gate rows use.

   Requires bin/pslocal.exe — run under `dune build` (CI does) or
   `dune exec` after one. *)

let pslocal_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/pslocal.exe"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1))
  in
  go 0

type tier_config = {
  tc_label : string;
  tc_args : string list;    (* `pslocal serve` argv tail *)
  tc_drive : string list;   (* sockets the clients connect to *)
  tc_sockets : string list; (* every socket the config creates (cleanup) *)
  tc_framing : Frame.framing;
}

let tier_configs ~quick =
  let sock label =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "psb-%d-%s.sock" (Unix.getpid ()) label)
  in
  let single label extra framing =
    let s = sock label in
    { tc_label = label;
      tc_args = [ "--socket"; s; "--domains"; "1" ] @ extra;
      tc_drive = [ s ];
      tc_sockets = [ s ];
      tc_framing = framing }
  in
  let tier label extra framing =
    let s = sock label in
    let shards = List.init 4 (Supervisor.shard_socket_path ~front:s) in
    { tc_label = label;
      tc_args = [ "--socket"; s; "--shards"; "4"; "--domains"; "1" ] @ extra;
      tc_drive = shards;
      tc_sockets = s :: shards;
      tc_framing = framing }
  in
  let json = Frame.Json_lines and binary = Frame.Binary in
  if quick then
    [ single "single-json" [] json; tier "shard4-binary" [ "--binary" ] binary ]
  else
    [ single "single-json" [] json;
      single "single-binary" [ "--binary" ] binary;
      tier "shard4-json" [] json;
      tier "shard4-binary" [ "--binary" ] binary ]

let unlink_quietly p = try Unix.unlink p with Unix.Unix_error _ -> ()

let wait_ready ~timeout_s paths =
  let deadline = Int64.add (now_ns ()) (Int64.of_float (timeout_s *. 1e9)) in
  let rec wait () =
    if List.for_all Supervisor.socket_ready paths then true
    else if Int64.compare (now_ns ()) deadline > 0 then false
    else begin
      Thread.delay 0.02;
      wait ()
    end
  in
  wait ()

type tier_conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  conn_sink : sink;
}

let connect_conn path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
    conn_sink = new_sink () }

(* Binary ping requests are a fixed frame with the id as an int64 at a
   constant offset — located once by probing for a sentinel pattern, so
   the flood sender patches 8 bytes per request instead of re-encoding
   a frame.  (The JSON sender's sprintf is the analogous floor for the
   text codec; the asymmetry is the codec's, not the harness's.) *)
let binary_ping_template =
  let probe = 0x0102030405060708L in
  let f =
    B.frame
      (Json.Obj
         [ ("id", Json.Int (Int64.to_int probe));
           ("method", Json.Str "ping") ])
  in
  let pat = Bytes.create 8 in
  Bytes.set_int64_be pat 0 probe;
  let pat = Bytes.to_string pat in
  let off =
    let rec find i =
      if i + 8 > String.length f then
        failwith "loadgen: binary ping template has no id window"
      else if String.equal (String.sub f i 8) pat then i
      else find (i + 1)
    in
    find 0
  in
  (Bytes.of_string f, off)

let send_ping oc framing id =
  match framing with
  | Frame.Json_lines ->
      output_string oc (Printf.sprintf "{\"id\":%d,\"method\":\"ping\"}\n" id)
  | Frame.Binary ->
      let tmpl, off = binary_ping_template in
      Bytes.set_int64_be tmpl off (Int64.of_int id);
      output_bytes oc tmpl

(* Reply classification without a full JSON parse on the hot path: the
   client shares the server's core, so reading replies must stay
   cheaper than producing them. *)
let json_reply_id line =
  let prefix = "{\"id\":" in
  if String.length line > String.length prefix
     && String.equal (String.sub line 0 (String.length prefix)) prefix
  then begin
    let i = ref (String.length prefix) in
    let v = ref 0 and any = ref false in
    while
      !i < String.length line && line.[!i] >= '0' && line.[!i] <= '9'
    do
      v := (10 * !v) + Char.code line.[!i] - Char.code '0';
      any := true;
      incr i
    done;
    if !any then Some !v else None
  end
  else None

(* Binary replies, client side.  [Frame.read_message] would fully
   decode every frame, and at flood rates the client shares the
   server's core — so the common case, an ok ping reply whose payload
   leads with the same two fields at fixed offsets
   ('o' count "id" 'i' <int64> "ok" 't' ...), is scanned in place and
   only unusual frames pay for the full decoder. *)
let scan_binary_reply payload =
  if String.length payload >= 27
     && payload.[0] = 'o'
     && Int32.to_int (String.get_int32_be payload 5) = 2
     && String.equal (String.sub payload 9 2) "id"
     && payload.[11] = 'i'
     && Int32.to_int (String.get_int32_be payload 20) = 2
     && String.equal (String.sub payload 24 2) "ok"
     && payload.[26] = 't'
  then (Some (Int64.to_int (String.get_int64_be payload 12)), true, false)
  else
    match B.of_bytes payload with
    | Ok resp ->
        let id =
          match Json.member "id" resp with
          | Some (Json.Int i) -> Some i
          | _ -> None
        in
        let ok =
          match Json.member "ok" resp with
          | Some (Json.Bool b) -> b
          | _ -> false
        in
        let shed =
          match
            Option.bind (Json.member "error" resp) (Json.member "code")
          with
          | Some (Json.Str "overloaded") -> true
          | _ -> false
        in
        (id, ok, shed)
    | Error _ -> (None, false, false)

let read_binary_reply ic =
  match really_input_string ic B.header_bytes with
  | exception End_of_file -> None
  | header -> (
      match B.frame_length header with
      | Error _ -> Some (None, false, false)
      | Ok n -> (
          match really_input_string ic n with
          | exception End_of_file -> None
          | payload -> Some (scan_binary_reply payload)))

(* One open-loop point against a running tier: pipelined pings at a
   fixed aggregate arrival rate, spread round-robin over one connection
   per driven socket.  Latency is sampled (every [stride]-th id) from a
   send-timestamp array indexed by id, so reply reordering across
   connections cannot mispair timestamps. *)
let tier_open_point ~label ~framing ~paths ~rate_rps ~duration_s =
  let conns = Array.of_list (List.map connect_conn paths) in
  let k = Array.length conns in
  let target = max k (int_of_float (float_of_int rate_rps *. duration_s)) in
  let stride = max 1 (target / 2000) in
  let t0s = Array.make target 0L in
  (* Requests go round-robin by id, so each connection's reply count is
     known upfront — the reader reads exactly that many and exits.  (A
     done-flag handshake instead is racy: the reader can consume the
     final reply before the flag flips, then block forever on a socket
     that will never carry another byte.) *)
  let expected i = (target / k) + (if i < target mod k then 1 else 0) in
  let reader c ~expected () =
    let read_reply () =
      match framing with
      | Frame.Json_lines -> (
          match input_line c.ic with
          | line -> Some (json_reply_id line, contains line "\"ok\":true",
                          contains line "overloaded")
          | exception End_of_file -> None)
      | Frame.Binary -> read_binary_reply c.ic
    in
    let received = ref 0 in
    let rec loop () =
      if !received >= expected then ()
      else
        match read_reply () with
        | None ->
            (* Premature EOF: the server dropped replies it owed us.
               Surface it as errors rather than hanging. *)
            c.conn_sink.errors <- c.conn_sink.errors + (expected - !received);
            received := expected
        | Some (id, ok, shed) ->
            incr received;
            let s = c.conn_sink in
            if ok then begin
              s.ok <- s.ok + 1;
              match id with
              | Some id when id mod stride = 0 && id < target
                             && t0s.(id) <> 0L ->
                  s.lat <-
                    (Int64.to_float (Int64.sub (now_ns ()) t0s.(id)) /. 1e6)
                    :: s.lat
              | _ -> ()
            end
            else if shed then s.shed <- s.shed + 1
            else s.errors <- s.errors + 1;
            loop ()
    in
    loop ()
  in
  let readers =
    Array.mapi
      (fun i c -> Thread.create (reader c ~expected:(expected i)) ())
      conns
  in
  let t_start = now_ns () in
  let sent_total = ref 0 in
  while !sent_total < target do
    let elapsed_s =
      Int64.to_float (Int64.sub (now_ns ()) t_start) /. 1e9
    in
    let due =
      min target (int_of_float (float_of_int rate_rps *. elapsed_s))
    in
    while !sent_total < due do
      let id = !sent_total in
      let c = conns.(id mod k) in
      if id mod stride = 0 then t0s.(id) <- now_ns ();
      send_ping c.oc framing id;
      incr sent_total
    done;
    Array.iter (fun c -> flush c.oc) conns;
    Thread.delay 0.001
  done;
  Array.iter (fun c -> flush c.oc) conns;
  Array.iter Thread.join readers;
  let duration_s =
    Int64.to_float (Int64.sub (now_ns ()) t_start) /. 1e9
  in
  Array.iter
    (fun c ->
      (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try close_in c.ic with Sys_error _ -> ())
    conns;
  finish ~label ~offered:target ~duration_s
    (Array.to_list (Array.map (fun c -> c.conn_sink) conns))

(* Server-side per-shard truth, straight from each shard's [stats]
   method after the ladder: completion counts and the engine's own
   latency quantiles, independent of client-side sampling. *)
let shard_stats_json ~framing paths =
  Json.List
    (List.mapi
       (fun i path ->
         match Metrics.fetch_stats ~framing ~path with
         | Ok stats ->
             let member_or name default =
               Option.value (Json.member name stats) ~default
             in
             let latency name =
               match
                 Option.bind (Json.member "latency_ms" stats)
                   (Json.member name)
               with
               | Some v -> v
               | None -> Json.Null
             in
             Json.Obj
               [ ("shard", Json.Int i);
                 ("completed", member_or "completed" Json.Null);
                 ("throughput_rps", member_or "throughput_rps" Json.Null);
                 ("p50_ms", latency "p50");
                 ("p99_ms", latency "p99") ]
         | Error e ->
             Json.Obj [ ("shard", Json.Int i); ("scrape_error", Json.Str e) ])
       paths)

type tier_result = {
  tr_label : string;
  tr_points : point list;
  tr_shards : Json.t;
  tr_best_rps : float;
}

let run_tier_config ~rates ~duration_s cfg =
  List.iter unlink_quietly cfg.tc_sockets;
  let exe = pslocal_exe () in
  if not (Sys.file_exists exe) then
    failwith
      (Printf.sprintf "loadgen: %s not built — run `dune build` first" exe);
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "serve" :: cfg.tc_args))
      Unix.stdin Unix.stdout Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid : int * Unix.process_status)
       with Unix.Unix_error _ -> ());
      List.iter unlink_quietly cfg.tc_sockets)
    (fun () ->
      if not (wait_ready ~timeout_s:15.0 cfg.tc_drive) then
        failwith
          (Printf.sprintf "loadgen: %s never became ready" cfg.tc_label);
      let points =
        List.map
          (fun r ->
            tier_open_point
              ~label:(Printf.sprintf "%s/r%d" cfg.tc_label r)
              ~framing:cfg.tc_framing ~paths:cfg.tc_drive ~rate_rps:r
              ~duration_s)
          rates
      in
      let shards = shard_stats_json ~framing:cfg.tc_framing cfg.tc_drive in
      (* Graceful stop: the drain path is part of what this lane
         exercises every run. *)
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ ->
          Printf.eprintf "loadgen: warning: %s did not exit cleanly\n"
            cfg.tc_label);
      let best =
        List.fold_left (fun a p -> Float.max a (throughput p)) 0.0 points
      in
      { tr_label = cfg.tc_label;
        tr_points = points;
        tr_shards = shards;
        tr_best_rps = best })

let tier_sweep ~quick =
  (* The gated ratio only means something at saturation, so every
     ladder must end past every config's capacity: a config that
     completes its top rung is capped by the ladder, not measured.
     Quick keeps the flooded rungs and skips the two middle configs. *)
  let rates =
    if quick then [ 384000; 768000; 1536000 ]
    else [ 24000; 96000; 192000; 384000; 768000; 1536000 ]
  in
  let duration_s = if quick then 1.0 else 2.0 in
  List.map (run_tier_config ~rates ~duration_s) (tier_configs ~quick)

let tier_best results label =
  List.find_map
    (fun r -> if String.equal r.tr_label label then Some r.tr_best_rps else None)
    results

(* ------------------------------------------------------------------ *)
(* Reporting *)

let point_json p =
  Json.Obj
    [ ("label", Json.Str p.label);
      ("offered", Json.Int p.offered);
      ("completed", Json.Int p.completed);
      ("shed", Json.Int p.shed);
      ("errors", Json.Int p.errors);
      ("duration_s", Json.Float p.duration_s);
      ("throughput_rps", Json.Float (throughput p));
      ("p50_ms", Json.Float (percentile p.latencies_ms 0.50));
      ("p95_ms", Json.Float (percentile p.latencies_ms 0.95));
      ("p99_ms", Json.Float (percentile p.latencies_ms 0.99)) ]

let repeated_lane_json name a =
  ( name,
    Json.Obj
      [ ("p50_ms", Json.Float (percentile a 0.50));
        ("p95_ms", Json.Float (percentile a 0.95)) ] )

let repeated_json r =
  Json.Obj
    [ ("n_graphs", Json.Int r.n_graphs);
      ("draws", Json.Int r.draws);
      ("hit_rate", Json.Float r.hit_rate);
      ("audits", Json.Int r.audits);
      ("warm_starts", Json.Int r.warm_starts);
      repeated_lane_json "cold" r.cold_ms;
      repeated_lane_json "warm" r.warm_ms;
      repeated_lane_json "warm_start" r.warm_start_ms;
      repeated_lane_json "warm_start_cold" r.warm_start_cold_ms ]

(* The flat rows bench_gate.py reads.  Only the warm-start ratio is
   gated ("speedup" name): cold and warm caro-wei solves differ by one
   array copy vs one CSR enumeration on the same machine, so the ratio
   is stable.  The raw hit gain (full solve vs protocol overhead) and
   the hit rate are machine-mix-dependent and informational ("hit_"
   names). *)
(* Shard-tier ratios: capacity of a configuration divided by the
   single-process JSON baseline measured in the same run — the machine
   cancels out, so the rows are gateable like the warm-start ratio.
   `serve_shard_binary_speedup` is the tier's headline SLO (4 binary
   shards must serve ≥ 1.2x one JSON shard, which is what plain
   `pslocal serve` runs). *)
let tier_gate_rows tier =
  let ratio num den = if den > 0.0 then num /. den else 0.0 in
  match tier_best tier "single-json" with
  | None -> []
  | Some base ->
      List.filter_map
        (fun (label, row) ->
          Option.map
            (fun v -> (row, Json.Float (ratio v base)))
            (tier_best tier label))
        [ ("shard4-binary", "serve_shard_binary_speedup");
          ("shard4-json", "serve_shard_json_speedup");
          ("single-binary", "serve_codec_speedup") ]

let gate_json r ~tier =
  let ratio num den = if den > 0.0 then num /. den else 0.0 in
  let tier_rows = tier_gate_rows tier in
  Json.Obj
    ([ ( "serve_cache_hit_gain",
         Json.Float
           (ratio (percentile r.cold_ms 0.50) (percentile r.warm_ms 0.50)) );
       ("serve_warm_start_speedup", Json.Float r.warm_start_speedup);
       ("serve_repeat_hit_rate", Json.Float r.hit_rate) ]
    @ tier_rows)

let tier_json results =
  Json.Obj
    (List.map
       (fun tr ->
         ( tr.tr_label,
           Json.Obj
             [ ("points", Json.List (List.map point_json tr.tr_points));
               ("shards", tr.tr_shards);
               ("best_rps", Json.Float tr.tr_best_rps) ] ))
       results)

let print_repeated r =
  let t =
    Ps_util.Table.create
      ~aligns:[ Left; Right; Right; Right ]
      [ "phase"; "requests"; "p50 ms"; "p95 ms" ]
  in
  List.iter
    (fun (label, a) ->
      Ps_util.Table.add_row t
        [ label;
          Ps_util.Table.cell_int (Array.length a);
          Ps_util.Table.cell_float ~decimals:3 (percentile a 0.50);
          Ps_util.Table.cell_float ~decimals:3 (percentile a 0.95) ])
    [ ("cold (greedy, miss)", r.cold_ms);
      ("warm (greedy, hit)", r.warm_ms);
      ("warm-start (caro-wei)", r.warm_start_ms);
      ("cold (caro-wei, no cache)", r.warm_start_cold_ms) ];
  Ps_util.Table.print
    ~title:
      (Printf.sprintf
         "Repeated instances (%d graphs, zipf; hit rate %.2f, %d audits, %d \
          warm starts, warm-start speedup %.2fx)"
         r.n_graphs r.hit_rate r.audits r.warm_starts r.warm_start_speedup)
    t

let print_table ~title points =
  let t =
    Ps_util.Table.create
      ~aligns:[ Left; Right; Right; Right; Right; Right; Right; Right ]
      [ "point"; "offered"; "ok"; "shed"; "rps"; "p50 ms"; "p95 ms";
        "p99 ms" ]
  in
  List.iter
    (fun p ->
      Ps_util.Table.add_row t
        [ p.label;
          Ps_util.Table.cell_int p.offered;
          Ps_util.Table.cell_int p.completed;
          Ps_util.Table.cell_int p.shed;
          Ps_util.Table.cell_float ~decimals:1 (throughput p);
          Ps_util.Table.cell_float ~decimals:3 (percentile p.latencies_ms 0.50);
          Ps_util.Table.cell_float ~decimals:3 (percentile p.latencies_ms 0.95);
          Ps_util.Table.cell_float ~decimals:3 (percentile p.latencies_ms 0.99)
        ])
    points;
  Ps_util.Table.print ~title t

(* ------------------------------------------------------------------ *)

let usage () =
  print_endline
    "usage: loadgen.exe [--quick] [--tier-only] [--domains=N] [--out=FILE]";
  exit 1

let () =
  let quick = ref false and domains = ref 4 and out = ref "BENCH_serve.json" in
  let tier_only = ref false in
  List.iter
    (fun a ->
      let prefixed p = String.length a > String.length p
                       && String.sub a 0 (String.length p) = p in
      let value p = String.sub a (String.length p)
                      (String.length a - String.length p) in
      if a = "--quick" then quick := true
      else if a = "--tier-only" then tier_only := true
      else if prefixed "--domains=" then
        domains := int_of_string (value "--domains=")
      else if prefixed "--out=" then out := value "--out="
      else usage ())
    (List.tl (Array.to_list Sys.argv));
  let domains = max 1 !domains in
  let duration_s = if !quick then 0.5 else 2.0 in
  let concurrencies = if !quick then [ 1; 4 ] else [ 1; 2; 4; 8; 16 ] in
  let rates = if !quick then [ 200 ] else [ 100; 500; 2000 ] in
  Printf.printf
    "loadgen: sunflower_12 reduce, %d worker domain(s), %gs per point\n\n"
    domains duration_s;
  (* --tier-only: just the serve-tier sweep, for iterating on the
     serving stack and for the CI smoke job — the solve lanes cost
     minutes and don't change when the transport does. *)
  let solve_lanes = not !tier_only in
  let closed =
    if not solve_lanes then []
    else
      List.map
        (fun c -> closed_point ~domains ~concurrency:c ~duration_s)
        concurrencies
  in
  if solve_lanes then begin
    print_table ~title:"Closed loop (one request in flight per client)" closed;
    print_newline ()
  end;
  let open_ =
    if not solve_lanes then []
    else List.map (fun r -> open_point ~domains ~rate_rps:r ~duration_s) rates
  in
  if solve_lanes then begin
    print_table ~title:"Open loop (fixed arrival rate)" open_;
    print_newline ()
  end;
  let repeated =
    if not solve_lanes then None
    else Some (repeated_lane ~domains ~draws:(if !quick then 60 else 240))
  in
  Option.iter
    (fun r ->
      print_repeated r;
      print_newline ())
    repeated;
  let tier = tier_sweep ~quick:!quick in
  List.iter
    (fun tr ->
      print_table
        ~title:
          (Printf.sprintf "Serve tier: %s (ping, open loop, best %.0f rps)"
             tr.tr_label tr.tr_best_rps)
        tr.tr_points;
      print_newline ())
    tier;
  let doc =
    Json.Obj
      ([ ("workload", Json.Str "sunflower_12/reduce/greedy");
         ("domains", Json.Int domains);
         ("duration_s", Json.Float duration_s);
         ("closed_loop", Json.List (List.map point_json closed));
         ("open_loop", Json.List (List.map point_json open_)) ]
      @ (match repeated with
        | Some r -> [ ("repeated", repeated_json r) ]
        | None -> [])
      @ [ ("serve_tier", tier_json tier);
          ( "gate",
            match repeated with
            | Some r -> gate_json r ~tier
            | None -> Json.Obj (tier_gate_rows tier) ) ])
  in
  let oc = open_out !out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  Printf.printf "wrote %s\n" !out;
  (* The service-level objective the server is sized for: a 4-domain
     pool must sustain at least 200 solved reduce requests per second. *)
  let best = List.fold_left (fun a p -> Float.max a (throughput p)) 0.0 closed in
  if solve_lanes && domains >= 4 && best < 200.0 then begin
    Printf.eprintf "FAIL: peak closed-loop throughput %.1f rps < 200 rps\n"
      best;
    exit 1
  end;
  (* The shard tier's own SLO: four binary shards must serve at least
     1.2x the single-process JSON baseline.  That baseline is one
     in-process shard (same admission and backpressure, JSON codec), so
     the ratio measures codec plus process parallelism only; E19 has
     the measured 1.39x and why the floor sits below it.  Enforced on
     full runs only (quick points are too short to be a stable ratio;
     the CI quick lane still carries the ratio into bench_gate.py,
     which compares it against the committed baseline within its
     tolerance). *)
  (match
     (tier_best tier "shard4-binary", tier_best tier "single-json")
   with
  | Some shard4, Some base when base > 0.0 ->
      let speedup = shard4 /. base in
      Printf.printf "serve tier: shard4-binary %.0f rps vs single-json %.0f \
                     rps — %.2fx\n"
        shard4 base speedup;
      if (not !quick) && speedup < 1.2 then begin
        Printf.eprintf
          "FAIL: shard4-binary speedup %.2fx < 1.2x over single-json\n"
          speedup;
        exit 1
      end
  | _ -> ())
