(* The shard tier: binary codec (qcheck round-trip + error paths),
   quota buckets, request batching, the metrics exporter, stale-socket
   recovery, CLI contract, and live multi-process integration. *)

module Json = Ps_server.Json
module P = Ps_server.Protocol
module B = Ps_server.Protocol.Binary
module Engine = Ps_server.Engine
module Server = Ps_server.Server
module Frame = Ps_shard.Frame
module Quota = Ps_shard.Quota
module Batch = Ps_shard.Batch
module Metrics = Ps_shard.Metrics
module Router = Ps_shard.Router
module Supervisor = Ps_shard.Supervisor

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
  go 0

let check_contains what hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: expected %S in:\n%s" what needle hay

(* ------------------------------------------------------------------ *)
(* Binary codec: qcheck round-trips *)

let json_value_arb =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        (* Quarters: exact in binary64, exercises the float path without
           NaN (which breaks structural equality). *)
        map (fun i -> Json.Float (float_of_int i /. 4.0)) int;
        map (fun s -> Json.Str s) (string_size (int_bound 24)) ]
  in
  let value =
    sized
      (fix (fun self n ->
           if n <= 0 then scalar
           else
             frequency
               [ (3, scalar);
                 (1, map (fun l -> Json.List l)
                       (list_size (int_bound 4) (self (n / 2))));
                 (1, map (fun l -> Json.Obj l)
                       (list_size (int_bound 4)
                          (pair (string_size (int_bound 8)) (self (n / 2))))) ]))
  in
  QCheck.make ~print:Json.to_string value

let prop_binary_roundtrip =
  QCheck.Test.make ~count:500 ~name:"binary codec: of_bytes ∘ to_bytes = id"
    json_value_arb (fun v ->
      match B.of_bytes (B.to_bytes v) with
      | Ok v' -> Json.equal v v'
      | Error _ -> false)

let prop_frame_roundtrip =
  QCheck.Test.make ~count:200
    ~name:"binary codec: frame = header + payload, length honest"
    json_value_arb (fun v ->
      let f = B.frame v in
      let payload = B.to_bytes v in
      match B.frame_length f with
      | Error _ -> false
      | Ok n ->
          n = String.length payload
          && String.length f = B.header_bytes + n
          && String.equal (String.sub f B.header_bytes n) payload
          &&
          match B.of_bytes (String.sub f B.header_bytes n) with
          | Ok v' -> Json.equal v v'
          | Error _ -> false)

(* An arbitrary valid request envelope (methods without payloads keep
   the comparison total: calls embedding solver closures can't be
   compared structurally). *)
let envelope_arb =
  let open QCheck.Gen in
  let id =
    oneof
      [ return Json.Null;
        map (fun i -> Json.Int i) int;
        map (fun s -> Json.Str s) (string_size ~gen:printable (int_bound 12)) ]
  in
  let gen =
    map
      (fun (id, meth, timeout, tenant) ->
        let params =
          (match timeout with
          | Some t -> [ ("timeout_ms", Json.Int t) ]
          | None -> [])
          @
          match tenant with
          | Some s -> [ ("tenant", Json.Str s) ]
          | None -> []
        in
        Json.Obj
          ([ ("id", id); ("method", Json.Str meth) ]
          @ match params with [] -> [] | _ -> [ ("params", Json.Obj params) ]))
      (quad id
         (oneofl [ "ping"; "stats" ])
         (opt (int_range 1 100000))
         (opt (string_size ~gen:printable (int_bound 10))))
  in
  QCheck.make ~print:Json.to_string gen

let same_request (a : P.request) (b : P.request) =
  Json.equal a.P.id b.P.id
  && (match (a.P.timeout_ms, b.P.timeout_ms) with
     | None, None -> true
     | Some x, Some y -> x = y
     | _ -> false)
  && (match (a.P.tenant, b.P.tenant) with
     | None, None -> true
     | Some x, Some y -> String.equal x y
     | _ -> false)
  && String.equal (P.method_name a.P.call) (P.method_name b.P.call)

let prop_cross_codec =
  QCheck.Test.make ~count:500
    ~name:"cross-codec: JSON line and binary frame decode to the same request"
    envelope_arb (fun env ->
      match
        ( P.parse_request (Json.to_string env),
          B.decode_request (B.to_bytes env) )
      with
      | Ok a, Ok b -> same_request a b
      | Error (ida, ea), Error (idb, eb) ->
          (* Rejections must agree too (same code, correlating id). *)
          Json.equal ida idb && ea.P.code = eb.P.code
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Binary codec: error paths.  Never an exception, always typed. *)

let u32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b

let ic_of_string s =
  let r, w = Unix.pipe () in
  let oc = Unix.out_channel_of_descr w in
  output_string oc s;
  close_out oc;
  Unix.in_channel_of_descr r

let with_ic s f =
  let ic = ic_of_string s in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)

let event_code = function
  | Frame.Poisoned e -> Some e.P.code
  | Frame.Request (Error (_, e)) -> Some e.P.code
  | Frame.Request (Ok _) | Frame.Eof -> None

let test_truncated_header () =
  with_ic "\xb5\x00\x00" (fun ic ->
      match Frame.read_event ic ~framing:Frame.Binary ~max_bytes:4096 with
      | Frame.Poisoned e ->
          check_bool "parse_error" true (e.P.code = P.Parse_error);
          check_contains "message" e.P.message "header"
      | _ -> Alcotest.fail "expected Poisoned")

let test_mid_frame_eof () =
  with_ic ("\xb5" ^ u32 100 ^ "abc") (fun ic ->
      match Frame.read_event ic ~framing:Frame.Binary ~max_bytes:4096 with
      | Frame.Poisoned e ->
          check_bool "parse_error" true (e.P.code = P.Parse_error);
          check_contains "message" e.P.message "payload"
      | _ -> Alcotest.fail "expected Poisoned")

let test_oversized_prefix () =
  with_ic ("\xb5" ^ u32 100_000 ^ "x") (fun ic ->
      match Frame.read_event ic ~framing:Frame.Binary ~max_bytes:4096 with
      | Frame.Poisoned e ->
          check_bool "payload_too_large" true (e.P.code = P.Payload_too_large)
      | _ -> Alcotest.fail "expected Poisoned")

let test_json_on_binary_port () =
  with_ic "{\"id\":1,\"method\":\"ping\"}\n" (fun ic ->
      match Frame.read_event ic ~framing:Frame.Binary ~max_bytes:4096 with
      | Frame.Poisoned e ->
          check_bool "parse_error" true (e.P.code = P.Parse_error);
          check_contains "message" e.P.message "JSON"
      | _ -> Alcotest.fail "expected Poisoned")

let test_binary_on_json_port () =
  (* The reverse direction: a frame at a JSON port is a recoverable
     parse error (input_line finds no valid JSON), not a crash. *)
  let frame = B.frame (Json.Obj [ ("id", Json.Int 1) ]) ^ "\n" in
  with_ic frame (fun ic ->
      match Frame.read_event ic ~framing:Frame.Json_lines ~max_bytes:4096 with
      | Frame.Request (Error (_, e)) ->
          check_bool "parse_error" true (e.P.code = P.Parse_error)
      | _ -> Alcotest.fail "expected Request (Error _)")

let test_clean_eof () =
  with_ic "" (fun ic ->
      match Frame.read_event ic ~framing:Frame.Binary ~max_bytes:4096 with
      | Frame.Eof -> ()
      | _ -> Alcotest.fail "expected Eof");
  with_ic "" (fun ic ->
      match Frame.read_event ic ~framing:Frame.Json_lines ~max_bytes:4096 with
      | Frame.Eof -> ()
      | _ -> Alcotest.fail "expected Eof")

let expect_decode_error what bytes needle =
  match B.of_bytes bytes with
  | Ok _ -> Alcotest.failf "%s: expected Error" what
  | Error msg -> check_contains what msg needle

let test_of_bytes_errors () =
  expect_decode_error "unknown tag" "x" "unknown tag";
  expect_decode_error "trailing garbage" "nn" "trailing garbage";
  expect_decode_error "truncated string" ("s" ^ u32 16 ^ "abc") "truncated";
  expect_decode_error "negative length" "s\xff\xff\xff\xff" "negative";
  expect_decode_error "truncated int" "i\x00\x00" "truncated";
  expect_decode_error "list overrun" ("l" ^ u32 1000) "overruns";
  (let max_int64 = "i\x7f\xff\xff\xff\xff\xff\xff\xff" in
   expect_decode_error "int out of range" max_int64 "out of range");
  (let buf = Buffer.create 2048 in
   for _ = 1 to 300 do
     Buffer.add_char buf 'l';
     Buffer.add_string buf (u32 1)
   done;
   Buffer.add_char buf 'n';
   expect_decode_error "over-deep nesting" (Buffer.contents buf) "nesting")

let test_decode_request_ok () =
  let env =
    Json.Obj
      [ ("id", Json.Int 7);
        ("method", Json.Str "ping");
        ("params", Json.Obj [ ("tenant", Json.Str "acme") ]) ]
  in
  match B.decode_request (B.to_bytes env) with
  | Ok req ->
      check_bool "id" true (Json.equal req.P.id (Json.Int 7));
      check_bool "tenant" true
        (match req.P.tenant with Some t -> String.equal t "acme" | None -> false);
      Alcotest.(check string) "method" "ping" (P.method_name req.P.call)
  | Error _ -> Alcotest.fail "expected Ok"

let test_read_event_valid_frame () =
  let env = Json.Obj [ ("id", Json.Int 1); ("method", Json.Str "stats") ] in
  with_ic (B.frame env) (fun ic ->
      match Frame.read_event ic ~framing:Frame.Binary ~max_bytes:4096 with
      | Frame.Request (Ok req) ->
          Alcotest.(check string) "method" "stats" (P.method_name req.P.call)
      | e ->
          Alcotest.failf "expected Ok request, got code %s"
            (match event_code e with
            | Some c -> P.error_code_string c
            | None -> "none"))

let test_overlong_json_line () =
  (* The reader holds at most [max_bytes] of a line: an over-cap line is
     dropped up to its newline and answered, and the next line parses. *)
  let long = "{\"id\":1,\"pad\":\"" ^ String.make 10_000 'x' ^ "\"}" in
  with_ic (long ^ "\n{\"id\":2,\"method\":\"ping\"}\n") (fun ic ->
      (match Frame.read_event ic ~framing:Frame.Json_lines ~max_bytes:64 with
      | Frame.Request (Error (_, e)) ->
          check_bool "payload_too_large" true (e.P.code = P.Payload_too_large)
      | _ -> Alcotest.fail "expected Request (Error payload_too_large)");
      match Frame.read_event ic ~framing:Frame.Json_lines ~max_bytes:64 with
      | Frame.Request (Ok req) ->
          Alcotest.(check string) "method" "ping" (P.method_name req.P.call)
      | _ -> Alcotest.fail "expected the ping after the over-cap line");
  (* Under the cap, a line longer than the channel buffer (64 KiB) is
     reassembled whole. *)
  let path = Filename.temp_file "pslocal-line" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let pad = String.make 200_000 'x' in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\"id\":3,\"method\":\"ping\",\"pad\":\"%s\"}\n" pad);
  In_channel.with_open_bin path @@ fun ic ->
  match Frame.read_event ic ~framing:Frame.Json_lines ~max_bytes:300_000 with
  | Frame.Request (Ok req) ->
      check_bool "long line id" true (Json.equal req.P.id (Json.Int 3))
  | e ->
      Alcotest.failf "expected the long ping, got code %s"
        (match event_code e with
        | Some c -> P.error_code_string c
        | None -> "none")

(* ------------------------------------------------------------------ *)
(* Writer: coalescing, failure containment *)

let read_all fd =
  let buf = Buffer.create 256 in
  let b = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd b 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf b 0 n;
        go ()
  in
  go ();
  Buffer.contents buf

let test_writer_json_newlines () =
  let r, w = Unix.pipe () in
  let wr = Frame.writer w ~framing:Frame.Json_lines in
  Frame.send wr "{\"a\":1}";
  Frame.send wr "{\"b\":2}";
  Frame.close_writer wr;
  Unix.close w;
  let out = read_all r in
  Unix.close r;
  Alcotest.(check string) "framed lines" "{\"a\":1}\n{\"b\":2}\n" out

let test_writer_binary_raw () =
  let r, w = Unix.pipe () in
  let wr = Frame.writer w ~framing:Frame.Binary in
  let f1 = B.frame (Json.Int 1) and f2 = B.frame (Json.Str "x") in
  Frame.send wr f1;
  Frame.send wr f2;
  Frame.close_writer wr;
  Unix.close w;
  let out = read_all r in
  Unix.close r;
  Alcotest.(check string) "raw frames" (f1 ^ f2) out

let test_writer_peer_gone () =
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev)
    (fun () ->
      let r, w = Unix.pipe () in
      let wr = Frame.writer w ~framing:Frame.Json_lines in
      Unix.close r;
      Frame.send wr "lost";
      (* The flush happens on the writer thread; poll for the failure. *)
      let rec wait n =
        if Frame.writer_failed wr then ()
        else if n = 0 then Alcotest.fail "writer never observed EPIPE"
        else begin
          Thread.delay 0.01;
          wait (n - 1)
        end
      in
      wait 200;
      (match Frame.send wr "after failure" with
      | () -> Alcotest.fail "send after failure should raise"
      | exception Failure _ -> ());
      Frame.close_writer wr;
      Unix.close w)

(* ------------------------------------------------------------------ *)
(* Quota: deterministic token buckets *)

let test_quota_burst_then_refill () =
  let q = Quota.create ~rate:10.0 ~burst:2.0 in
  let t0 = 0L in
  check_bool "1st" true (Quota.admit ~now_ns:t0 q ~tenant:"a");
  check_bool "2nd" true (Quota.admit ~now_ns:t0 q ~tenant:"a");
  check_bool "3rd clipped" false (Quota.admit ~now_ns:t0 q ~tenant:"a");
  (* 100 ms at 10 rps refills exactly one token. *)
  let t1 = 100_000_000L in
  check_bool "refilled" true (Quota.admit ~now_ns:t1 q ~tenant:"a");
  check_bool "empty again" false (Quota.admit ~now_ns:t1 q ~tenant:"a");
  let s = Quota.stats q in
  check_int "admitted" 3 s.Quota.admitted;
  check_int "rejected" 2 s.Quota.rejected;
  check_int "tenants" 1 s.Quota.tenants

let test_quota_tenants_independent () =
  let q = Quota.create ~rate:1.0 ~burst:1.0 in
  check_bool "a" true (Quota.admit ~now_ns:0L q ~tenant:"a");
  check_bool "a clipped" false (Quota.admit ~now_ns:0L q ~tenant:"a");
  check_bool "b unaffected" true (Quota.admit ~now_ns:0L q ~tenant:"b");
  check_bool "anonymous separate" true (Quota.admit ~now_ns:0L q ~tenant:"");
  check_int "tenants" 3 (Quota.stats q).Quota.tenants

let test_quota_burst_cap () =
  let q = Quota.create ~rate:1000.0 ~burst:3.0 in
  (* A long idle stretch must not bank more than [burst] tokens. *)
  let later = 60_000_000_000L in
  check_bool "1" true (Quota.admit ~now_ns:later q ~tenant:"a");
  check_bool "2" true (Quota.admit ~now_ns:later q ~tenant:"a");
  check_bool "3" true (Quota.admit ~now_ns:later q ~tenant:"a");
  check_bool "capped" false (Quota.admit ~now_ns:later q ~tenant:"a")

let test_quota_invalid_args () =
  (match Quota.create ~rate:0.0 ~burst:1.0 with
  | _ -> Alcotest.fail "rate 0 should be rejected"
  | exception Invalid_argument _ -> ());
  match Quota.create ~rate:1.0 ~burst:0.5 with
  | _ -> Alcotest.fail "burst < 1 should be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Batching: staging queue → submit_batch *)

let ping_req i =
  { P.id = Json.Int i; timeout_ms = None; tenant = None; call = P.Ping }

let collect_replies () =
  let m = Mutex.create () in
  let replies = ref [] in
  let reply line =
    Mutex.lock m;
    replies := line :: !replies;
    Mutex.unlock m
  in
  let count () =
    Mutex.lock m;
    let n = List.length !replies in
    Mutex.unlock m;
    n
  in
  let all () =
    Mutex.lock m;
    let r = !replies in
    Mutex.unlock m;
    r
  in
  (reply, count, all)

let wait_for ?(timeout_s = 10.0) f =
  let rec go n = if f () then true else if n = 0 then false else begin Thread.delay 0.01; go (n - 1) end in
  go (int_of_float (timeout_s /. 0.01))

let test_batch_dispatch () =
  let engine =
    Engine.create
      { Engine.default_config with domains = 1; queue_capacity = 64 }
  in
  let batch = Batch.create engine in
  let reply, count, all = collect_replies () in
  for i = 1 to 50 do
    Batch.push batch (ping_req i) ~reply
  done;
  check_bool "all 50 answered" true (wait_for (fun () -> count () = 50));
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok resp ->
          check_bool "ok" true
            (match Json.member "ok" resp with
            | Some (Json.Bool true) -> true
            | _ -> false)
      | Error _ -> Alcotest.fail "unparseable reply")
    (all ());
  let s = Batch.stats batch in
  check_int "requests through batches" 50 s.Batch.requests;
  check_bool "at least one batch" true (s.Batch.batches >= 1);
  check_bool "batches <= requests" true (s.Batch.batches <= 50);
  Batch.stop batch;
  Engine.shutdown engine

let test_submit_batch_mixed_outcomes () =
  (* One worker wedged on a gate, queue of one: a 2-request batch must
     come back [Accepted; Rejected_overloaded] from one call. *)
  let gate = Atomic.make false in
  let handler ~stats:_ ~cancel:_ (req : P.request) =
    match req.P.call with
    | P.Ping ->
        while not (Atomic.get gate) do
          Thread.delay 0.002
        done;
        Ok (Json.Obj [ ("pong", Json.Bool true) ])
    | _ -> Ok Json.Null
  in
  let engine =
    Engine.create ~handler
      { Engine.default_config with domains = 1; queue_capacity = 1 }
  in
  let reply, count, all = collect_replies () in
  (match Engine.submit engine (ping_req 1) ~reply with
  | Engine.Accepted -> ()
  | _ -> Alcotest.fail "first submit should be accepted");
  check_bool "worker picked up" true
    (wait_for (fun () -> Engine.inflight engine = 1));
  (match Engine.submit_batch engine [ (ping_req 2, reply); (ping_req 3, reply) ] with
  | [ Engine.Accepted; Engine.Rejected_overloaded ] -> ()
  | outcomes ->
      Alcotest.failf "unexpected outcomes (%d entries)" (List.length outcomes));
  (* The shed reply is synchronous: already delivered. *)
  check_bool "overloaded reply delivered" true (count () >= 1);
  Atomic.set gate true;
  check_bool "all three answered" true (wait_for (fun () -> count () = 3));
  let overloaded =
    List.filter (fun l -> contains l "overloaded") (all ())
  in
  check_int "exactly one shed" 1 (List.length overloaded);
  Engine.shutdown engine

let test_batch_backpressure () =
  (* Same wedged worker and queue of one, but through [Batch]: the
     dispatcher sizes its submits to [Engine.wait_capacity] and [push]
     blocks at the staging watermark, so a flood that overflows the
     direct-submit path ([Rejected_overloaded] above) must instead
     block the pusher and answer every request once the worker moves. *)
  let gate = Atomic.make false in
  let handler ~stats:_ ~cancel:_ (req : P.request) =
    match req.P.call with
    | P.Ping ->
        while not (Atomic.get gate) do
          Thread.delay 0.002
        done;
        Ok (Json.Obj [ ("pong", Json.Bool true) ])
    | _ -> Ok Json.Null
  in
  let engine =
    Engine.create ~handler
      { Engine.default_config with domains = 1; queue_capacity = 1 }
  in
  let batch = Batch.create ~max_staged:2 engine in
  let reply, count, all = collect_replies () in
  let pushed = Atomic.make 0 in
  let pusher =
    Thread.create
      (fun () ->
        for i = 1 to 10 do
          Batch.push batch (ping_req i) ~reply;
          Atomic.incr pushed
        done)
      ()
  in
  (* Worker wedged + queue 1 + watermark 2: absorption tops out at one
     inflight, one queued, one swept batch (<= 2) held by the waiting
     dispatcher, and two staged — the pusher must stall short of 10;
     the flood is absorbed as blocking, not shed. *)
  check_bool "pusher starts" true (wait_for (fun () -> Atomic.get pushed >= 2));
  Thread.delay 0.15;
  check_bool "pusher blocked at watermark" true (Atomic.get pushed < 10);
  check_int "nothing answered while wedged" 0 (count ());
  Atomic.set gate true;
  Thread.join pusher;
  check_bool "all ten answered" true (wait_for (fun () -> count () = 10));
  List.iter
    (fun l -> check_bool "no overloaded replies" false (contains l "overloaded"))
    (all ());
  Batch.stop batch;
  Engine.shutdown engine;
  (* Closed engine: capacity waits must not block shutdown paths. *)
  check_bool "wait_capacity after shutdown" true
    (Engine.wait_capacity engine = max_int)

(* ------------------------------------------------------------------ *)
(* Metrics rendering (pure) *)

let test_metrics_render () =
  let engine = Engine.create { Engine.default_config with domains = 1 } in
  let stats = Engine.stats_json engine in
  let children =
    [ { Supervisor.c_index = 0; c_pid = 111; c_restarts = 0; c_up = true };
      { Supervisor.c_index = 1; c_pid = 222; c_restarts = 3; c_up = false } ]
  in
  let shard_stats = [ (0, Ok stats); (1, Error "connect refused") ] in
  let router =
    Some { Router.accepted = 9; active = 2; failovers = 1; unrouted = 0 }
  in
  let text = Metrics.render ~children ~shard_stats ~router in
  Engine.shutdown engine;
  check_contains "shard count" text "pslocal_shards 2";
  check_contains "up" text "pslocal_shard_up{shard=\"0\"} 1";
  check_contains "down" text "pslocal_shard_up{shard=\"1\"} 0";
  check_contains "restarts" text "pslocal_shard_restarts_total{shard=\"1\"} 3";
  check_contains "pid" text "pslocal_shard_pid{shard=\"0\"} 111";
  check_contains "scrape ok" text "pslocal_shard_scrape_ok{shard=\"0\"} 1";
  check_contains "scrape failed" text "pslocal_shard_scrape_ok{shard=\"1\"} 0";
  check_contains "per-shard counter" text "pslocal_completed_total{shard=\"0\"} 0";
  check_contains "cluster sum" text "pslocal_cluster_completed_total 0";
  check_contains "latency quantile" text
    "pslocal_latency_ms{shard=\"0\",quantile=\"p99\"}";
  check_contains "router accepted" text "pslocal_router_connections_total 9";
  check_contains "router failovers" text "pslocal_router_failovers_total 1";
  check_contains "help lines" text "# HELP pslocal_shard_up";
  check_contains "type lines" text "# TYPE pslocal_shard_restarts_total counter"

let test_http_response_shape () =
  let r = Metrics.http_response ~status:"200 OK" ~body:"hello\n" in
  check_contains "status line" r "HTTP/1.1 200 OK\r\n";
  check_contains "content length" r "Content-Length: 6\r\n";
  check_contains "separator + body" r "\r\n\r\nhello\n"

(* ------------------------------------------------------------------ *)
(* Stale-socket recovery (the startup fix, pinned) *)

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "pslocal-test-%d-%s" (Unix.getpid ()) name)

let test_stale_socket_replaced () =
  let path = tmp_path "stale.sock" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 1;
  (* Owner dies without unlinking: the classic crash leftover. *)
  Unix.close fd;
  check_bool "file left behind" true (Sys.file_exists path);
  (match Server.prepare_socket_path path with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "stale socket should be cleaned: %s" msg);
  check_bool "stale file unlinked" false (Sys.file_exists path)

let test_live_socket_refused () =
  let path = tmp_path "live.sock" in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 1;
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      match Server.prepare_socket_path path with
      | Ok () -> Alcotest.fail "live socket must not be hijacked"
      | Error msg ->
          check_contains "says live" msg "live";
          check_bool "file untouched" true (Sys.file_exists path))

let test_non_socket_refused () =
  let path = tmp_path "notasocket" in
  let oc = open_out path in
  output_string oc "data";
  close_out oc;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      match Server.prepare_socket_path path with
      | Ok () -> Alcotest.fail "regular file must not be unlinked"
      | Error msg -> check_contains "says not a socket" msg "not a socket")

(* ------------------------------------------------------------------ *)
(* CLI contract: misconfiguration is a clean error, not an exception *)

let pslocal_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/pslocal.exe"

let run_cli args =
  let cmd = Filename.quote_command (pslocal_exe ()) args ^ " 2>&1" in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let code =
    match status with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
  in
  (code, Buffer.contents buf)

let expect_cli_error args needle =
  let code, out = run_cli args in
  if code = 0 then
    Alcotest.failf "pslocal %s: expected failure, got exit 0"
      (String.concat " " args);
  check_contains "error message" out needle;
  (* A clean diagnostic, not an escaped exception: cmdliner reports an
     uncaught one as "internal error" with exit 125 and no backtrace. *)
  if
    code = 125
    || contains out "internal error"
    || contains out "Raised at"
    || contains out "backtrace"
  then Alcotest.failf "raw exception leaked (exit %d): %s" code out

let test_cli_bad_flags () =
  expect_cli_error [ "serve"; "--shards"; "0" ] "--shards must be positive";
  expect_cli_error [ "serve"; "--shards=-3" ] "--shards must be positive";
  expect_cli_error [ "serve"; "--domains=0" ] "--domains must be positive";
  expect_cli_error [ "serve"; "--queue"; "0" ] "--queue must be positive";
  expect_cli_error [ "serve"; "--shards"; "2" ] "requires --socket";
  expect_cli_error [ "serve"; "--binary" ] "requires --socket";
  expect_cli_error [ "serve"; "--quota-rps"; "0"; "--socket"; "/tmp/x" ]
    "--quota-rps must be positive";
  expect_cli_error [ "serve"; "--quota-burst"; "4" ] "needs --quota-rps";
  (* Solve options share the wire's decoder and its messages. *)
  let hg = "../data/sunflower_12.hg" in
  let el = Filename.temp_file "pslocal_cli" ".el" in
  Fun.protect
    ~finally:(fun () -> Sys.remove el)
    (fun () ->
      Out_channel.with_open_text el (fun oc -> output_string oc "2 1\n0 1\n");
      expect_cli_error [ "reduce"; "--solver"; "bogus"; hg ]
        "unknown solver \"bogus\"";
      expect_cli_error [ "mis"; "--solver"; "bogus"; el ]
        "unknown solver \"bogus\"";
      expect_cli_error [ "audit"; "--solver"; "bogus"; hg ]
        "unknown solver \"bogus\"";
      expect_cli_error [ "reduce"; "-k"; "0"; hg ] "must be positive";
      expect_cli_error [ "audit"; "-k"; "0"; hg ] "must be positive")

(* [pslocal mis --solver S --json] prints the {!Ps_server.Service.maxis}
   outcome through {!P.maxis_result}: pinned byte for byte on the
   checked-in G(n,p) instance, and equal to the in-process encoding of
   the same spec. *)
let test_cli_mis_solver_json () =
  let el = "../data/gnp_100_005.el" in
  let g = Ps_graph.Gio.read_file el in
  let kernel =
    {|"kernel":{"original_vertices":100,"original_edges":239,"kernel_vertices":60,"kernel_edges":155,"isolated":0,"pendants":5,"folds":12,"simplicial":2,"dominated":0}|}
  in
  List.iter
    (fun (solver, presolve, expected) ->
      let args =
        [ "mis"; el; "--solver"; solver; "--presolve"; presolve; "--json" ]
      in
      let code, out = run_cli args in
      check_int "exit status" 0 code;
      Alcotest.(check string) (String.concat " " args) (expected ^ "\n") out;
      let spec =
        match P.solve_spec ~solver ~presolve () with
        | Ok spec -> spec
        | Error e -> Alcotest.failf "solve_spec: %s" e.P.message
      in
      Alcotest.(check string)
        "CLI line = Protocol encoder over the Service outcome" out
        (P.response_to_line
           (P.ok_response ~id:Json.Null
              (P.maxis_result (Ps_server.Service.maxis spec g)))
        ^ "\n"))
    [ ( "caro-wei",
        "kernel",
        {|{"id":null,"ok":true,"result":{"solver":"kernel+caro-wei","size":38,"certified":true,"entries":[{"solver":"kernel+caro-wei","size":38}],|}
        ^ kernel ^ "}}" );
      ( "portfolio",
        "kernel",
        {|{"id":null,"ok":true,"result":{"solver":"portfolio (winner: kernel+greedy-min-degree)","size":45,"certified":true,"entries":[{"solver":"kernel+greedy-min-degree","size":45},{"solver":"kernel+caro-wei","size":35},{"solver":"clique-removal","size":40}],|}
        ^ kernel ^ "}}" );
      ( "greedy",
        "none",
        {|{"id":null,"ok":true,"result":{"solver":"greedy-min-degree","size":45,"certified":true,"entries":[{"solver":"greedy-min-degree","size":45}]}}|}
      ) ]

(* ------------------------------------------------------------------ *)
(* Live integration: real processes, real sockets *)

let spawn_serve args =
  Unix.create_process (pslocal_exe ())
    (Array.of_list (pslocal_exe () :: "serve" :: args))
    Unix.stdin Unix.stdout Unix.stderr

let kill_quietly pid signal =
  try Unix.kill pid signal with Unix.Unix_error _ -> ()

let reap pid =
  match Unix.waitpid [] pid with
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> None

let with_server args ~sockets f =
  List.iter
    (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ())
    sockets;
  let pid = spawn_serve args in
  Fun.protect
    ~finally:(fun () ->
      kill_quietly pid Sys.sigkill;
      ignore (reap pid : Unix.process_status option);
      List.iter
        (fun p -> try Unix.unlink p with Unix.Unix_error _ -> ())
        sockets)
    (fun () -> f pid)

let wait_sockets paths =
  check_bool
    (Printf.sprintf "server came up (%s)" (String.concat ", " paths))
    true
    (wait_for ~timeout_s:15.0 (fun () ->
         List.for_all Supervisor.socket_ready paths))

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let http_get_metrics path =
  let fd = connect_unix path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let req = "GET /metrics HTTP/1.1\r\nHost: pslocal\r\n\r\n" in
      let _ = Unix.write fd (Bytes.of_string req) 0 (String.length req) in
      let raw = read_all fd in
      (* body follows the first blank line *)
      let rec find_body i =
        if i + 4 > String.length raw then raw
        else if String.equal (String.sub raw i 4) "\r\n\r\n" then
          String.sub raw (i + 4) (String.length raw - i - 4)
        else find_body (i + 1)
      in
      find_body 0)

let metric_value body name =
  (* First line "name value" or "name{labels} value". *)
  String.split_on_char '\n' body
  |> List.find_map (fun line ->
         if
           String.length line > String.length name
           && String.equal (String.sub line 0 (String.length name)) name
           && (let c = line.[String.length name] in
               c = ' ' || c = '{')
         then
           match String.rindex_opt line ' ' with
           | Some i ->
               float_of_string_opt
                 (String.sub line (i + 1) (String.length line - i - 1))
           | None -> None
         else None)

let metric_series body name = metric_value body name

let test_tier_json_roundtrip_and_drain () =
  let front = tmp_path "tier.sock" in
  let shard_socks = [ front ^ ".shard.0"; front ^ ".shard.1" ] in
  with_server
    [ "--socket"; front; "--shards"; "2"; "--domains"; "1";
      "--quota-rps"; "100000" ]
    ~sockets:(front :: shard_socks)
    (fun pid ->
      wait_sockets [ front ];
      let fd = connect_unix front in
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      for i = 1 to 30 do
        output_string oc (Printf.sprintf "{\"id\":%d,\"method\":\"ping\"}\n" i)
      done;
      flush oc;
      let got = ref 0 in
      (try
         while !got < 30 do
           let line = input_line ic in
           (match Json.parse line with
           | Ok resp ->
               check_bool "reply ok" true
                 (match Json.member "ok" resp with
                 | Some (Json.Bool true) -> true
                 | _ -> false)
           | Error e -> Alcotest.failf "bad reply line: %s" e);
           incr got
         done
       with End_of_file -> ());
      check_int "all pings answered before SIGTERM" 30 !got;
      (* Graceful drain: replies done, now stop the tier. *)
      kill_quietly pid Sys.sigterm;
      (* Our connection sees clean EOF, never a partial line. *)
      (match input_line ic with
      | line -> Alcotest.failf "unexpected post-drain line: %s" line
      | exception End_of_file -> ());
      (match reap pid with
      | Some (Unix.WEXITED 0) -> ()
      | Some status ->
          Alcotest.failf "tier exit not clean: %s"
            (match status with
            | Unix.WEXITED n -> Printf.sprintf "exit %d" n
            | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
            | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n)
      | None -> ());
      check_bool "front socket removed" false (Sys.file_exists front);
      List.iter
        (fun p -> check_bool "shard socket removed" false (Sys.file_exists p))
        shard_socks;
      Unix.close fd)

(* Regression: a client that pings once and then just sits on the open
   connection must not stall the drain.  The router's backward pump ends
   at shard EOF, but the forward pump is parked in [read client]; without
   the SHUTDOWN_RECEIVE half-close in [Router.handle] the join only
   resolves via the 30 s [await_drained] timeout.  With the fix the tier
   exits in well under a second — we assert an order of magnitude of
   headroom so the timeout path can never masquerade as a pass. *)
let test_tier_drain_with_idle_client () =
  let front = tmp_path "tier-i.sock" in
  let shard_socks = [ front ^ ".shard.0"; front ^ ".shard.1" ] in
  with_server
    [ "--socket"; front; "--shards"; "2"; "--domains"; "1" ]
    ~sockets:(front :: shard_socks)
    (fun pid ->
      wait_sockets [ front ];
      let fd = connect_unix front in
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      output_string oc "{\"id\":1,\"method\":\"ping\"}\n";
      flush oc;
      (match Json.parse (input_line ic) with
      | Ok resp ->
          check_bool "ping ok" true
            (match Json.member "ok" resp with
            | Some (Json.Bool true) -> true
            | _ -> false)
      | Error e -> Alcotest.failf "bad reply line: %s" e);
      (* Idle from here on: no close, no half-close, no more requests. *)
      kill_quietly pid Sys.sigterm;
      let t0 = Unix.gettimeofday () in
      (match reap pid with
      | Some (Unix.WEXITED 0) -> ()
      | Some status ->
          Alcotest.failf "tier exit not clean: %s"
            (match status with
            | Unix.WEXITED n -> Printf.sprintf "exit %d" n
            | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
            | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n)
      | None -> Alcotest.fail "tier process vanished before reap");
      let elapsed = Unix.gettimeofday () -. t0 in
      if elapsed > 10.0 then
        Alcotest.failf
          "drain with idle client took %.1fs (timeout path, not a drain)"
          elapsed;
      (* The connection still saw a clean EOF despite never closing. *)
      (match input_line ic with
      | line -> Alcotest.failf "unexpected post-drain line: %s" line
      | exception End_of_file -> ());
      check_bool "front socket removed" false (Sys.file_exists front);
      Unix.close fd)

let test_tier_shard_crash_restart () =
  let front = tmp_path "tier-r.sock" in
  let msock = tmp_path "tier-r-metrics.sock" in
  let shard_socks = [ front ^ ".shard.0"; front ^ ".shard.1" ] in
  with_server
    [ "--socket"; front; "--shards"; "2"; "--domains"; "1";
      "--metrics-socket"; msock ]
    ~sockets:(front :: msock :: shard_socks)
    (fun pid ->
      wait_sockets [ front; msock ];
      let body = http_get_metrics msock in
      check_contains "both up" body "pslocal_shard_up{shard=\"1\"} 1";
      let shard0_pid =
        match metric_series body "pslocal_shard_pid{shard=\"0\"}" with
        | Some v -> int_of_float v
        | None -> Alcotest.fail "no pid series for shard 0"
      in
      check_bool "restarts start at 0" true
        (match
           metric_series body "pslocal_shard_restarts_total{shard=\"0\"}"
         with
        | Some 0.0 -> true
        | _ -> false);
      (* Crash the shard; the supervisor must respawn it and the restart
         counter must become observable via /metrics. *)
      Unix.kill shard0_pid Sys.sigkill;
      check_bool "restart observed in metrics" true
        (wait_for ~timeout_s:15.0 (fun () ->
             let b = http_get_metrics msock in
             match
               ( metric_series b "pslocal_shard_restarts_total{shard=\"0\"}",
                 metric_series b "pslocal_shard_up{shard=\"0\"}" )
             with
             | Some r, Some 1.0 when r >= 1.0 -> true
             | _ -> false));
      (* The tier still serves (fresh connection; failover covers the
         restart window). *)
      let fd = connect_unix front in
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      output_string oc "{\"id\":99,\"method\":\"ping\"}\n";
      flush oc;
      (match input_line ic with
      | line -> check_contains "post-restart pong" line "\"ok\":true"
      | exception End_of_file -> Alcotest.fail "no reply after restart");
      Unix.close fd;
      kill_quietly pid Sys.sigterm;
      match reap pid with
      | Some (Unix.WEXITED 0) | None -> ()
      | Some _ -> Alcotest.fail "tier exit not clean")

let test_binary_serve_live () =
  let sock = tmp_path "binary.sock" in
  with_server
    [ "--socket"; sock; "--binary"; "--domains"; "1" ]
    ~sockets:[ sock ]
    (fun pid ->
      wait_sockets [ sock ];
      let fd = connect_unix sock in
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      let env = Json.Obj [ ("id", Json.Int 5); ("method", Json.Str "ping") ] in
      output_string oc (B.frame env);
      flush oc;
      (match Frame.read_message ic ~framing:Frame.Binary ~max_bytes:(1 lsl 20) with
      | Some (Ok resp) ->
          check_bool "binary pong" true
            (match (Json.member "id" resp, Json.member "ok" resp) with
            | Some (Json.Int 5), Some (Json.Bool true) -> true
            | _ -> false)
      | Some (Error e) -> Alcotest.failf "bad binary reply: %s" e
      | None -> Alcotest.fail "no binary reply");
      Unix.close fd;
      (* JSON at the binary port: one typed error frame, then hangup-safe. *)
      let fd2 = connect_unix sock in
      let oc2 = Unix.out_channel_of_descr fd2 in
      let ic2 = Unix.in_channel_of_descr fd2 in
      output_string oc2 "{\"id\":1,\"method\":\"ping\"}\n";
      flush oc2;
      (match Frame.read_message ic2 ~framing:Frame.Binary ~max_bytes:(1 lsl 20) with
      | Some (Ok resp) ->
          check_bool "typed parse_error reply" true
            (match Json.member "error" resp with
            | Some err -> (
                match Json.member "code" err with
                | Some (Json.Str "parse_error") -> true
                | _ -> false)
            | None -> false)
      | Some (Error e) -> Alcotest.failf "undecodable error reply: %s" e
      | None -> Alcotest.fail "no error reply for JSON-on-binary");
      Unix.close fd2;
      kill_quietly pid Sys.sigterm;
      match reap pid with
      | Some (Unix.WEXITED 0) | None -> ()
      | Some _ -> Alcotest.fail "binary server exit not clean")

let test_quota_serve_live () =
  let sock = tmp_path "quota.sock" in
  with_server
    [ "--socket"; sock; "--quota-rps"; "1"; "--quota-burst"; "1";
      "--domains"; "1" ]
    ~sockets:[ sock ]
    (fun pid ->
      wait_sockets [ sock ];
      let fd = connect_unix sock in
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      for i = 1 to 3 do
        output_string oc
          (Printf.sprintf
             "{\"id\":%d,\"method\":\"ping\",\"params\":{\"tenant\":\"t1\"}}\n"
             i)
      done;
      flush oc;
      let ok = ref 0 and clipped = ref 0 in
      for _ = 1 to 3 do
        let line = input_line ic in
        if contains line "\"ok\":true" then incr ok
        else if contains line "overloaded" then incr clipped
      done;
      check_bool "some admitted" true (!ok >= 1);
      check_bool "some clipped" true (!clipped >= 1);
      check_int "every request answered" 3 (!ok + !clipped);
      Unix.close fd;
      kill_quietly pid Sys.sigterm;
      ignore (reap pid : Unix.process_status option))

(* ------------------------------------------------------------------ *)

let qsuite = List.map QCheck_alcotest.to_alcotest
  [ prop_binary_roundtrip; prop_frame_roundtrip; prop_cross_codec ]

let suites =
  [ ( "shard.codec",
      qsuite
      @ [ Alcotest.test_case "truncated frame header" `Quick
            test_truncated_header;
          Alcotest.test_case "mid-frame EOF" `Quick test_mid_frame_eof;
          Alcotest.test_case "oversized length prefix" `Quick
            test_oversized_prefix;
          Alcotest.test_case "JSON on a binary port" `Quick
            test_json_on_binary_port;
          Alcotest.test_case "binary on a JSON port" `Quick
            test_binary_on_json_port;
          Alcotest.test_case "clean EOF both codecs" `Quick test_clean_eof;
          Alcotest.test_case "of_bytes error catalogue" `Quick
            test_of_bytes_errors;
          Alcotest.test_case "decode_request happy path" `Quick
            test_decode_request_ok;
          Alcotest.test_case "read_event valid frame" `Quick
            test_read_event_valid_frame;
          Alcotest.test_case "over-cap JSON line recovers" `Quick
            test_overlong_json_line ] );
    ( "shard.writer",
      [ Alcotest.test_case "json framing appends newlines" `Quick
          test_writer_json_newlines;
        Alcotest.test_case "binary framing writes raw frames" `Quick
          test_writer_binary_raw;
        Alcotest.test_case "peer hangup contained" `Quick
          test_writer_peer_gone ] );
    ( "shard.quota",
      [ Alcotest.test_case "burst then refill" `Quick
          test_quota_burst_then_refill;
        Alcotest.test_case "tenants independent" `Quick
          test_quota_tenants_independent;
        Alcotest.test_case "idle never banks past burst" `Quick
          test_quota_burst_cap;
        Alcotest.test_case "invalid arguments rejected" `Quick
          test_quota_invalid_args ] );
    ( "shard.batch",
      [ Alcotest.test_case "50 pushes all answered" `Quick test_batch_dispatch;
        Alcotest.test_case "submit_batch mixed outcomes" `Quick
          test_submit_batch_mixed_outcomes;
        Alcotest.test_case "overflow backpressures, never sheds" `Quick
          test_batch_backpressure ] );
    ( "shard.metrics",
      [ Alcotest.test_case "prometheus rendering" `Quick test_metrics_render;
        Alcotest.test_case "http response shape" `Quick
          test_http_response_shape ] );
    ( "shard.socketpath",
      [ Alcotest.test_case "stale socket replaced" `Quick
          test_stale_socket_replaced;
        Alcotest.test_case "live socket refused" `Quick
          test_live_socket_refused;
        Alcotest.test_case "non-socket refused" `Quick
          test_non_socket_refused ] );
    ( "shard.cli",
      [ Alcotest.test_case "bad flags are clean errors" `Quick
          test_cli_bad_flags;
        Alcotest.test_case "mis --solver --json pinned" `Quick
          test_cli_mis_solver_json ] );
    ( "shard.live",
      [ Alcotest.test_case "tier: pings via router, drain on SIGTERM" `Quick
          test_tier_json_roundtrip_and_drain;
        Alcotest.test_case "tier: drain stays prompt with idle client" `Quick
          test_tier_drain_with_idle_client;
        Alcotest.test_case "tier: shard crash restarts, counter in metrics"
          `Quick test_tier_shard_crash_restart;
        Alcotest.test_case "binary server end-to-end" `Quick
          test_binary_serve_live;
        Alcotest.test_case "per-tenant quota clips live traffic" `Quick
          test_quota_serve_live ] ) ]
