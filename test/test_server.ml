(* Tests for the solve service: the JSON layer, protocol validation on
   hostile input, the engine's shed/timeout/drain behaviour with injected
   handlers, the transport line loop, and the two satellite hardenings
   (Parallel.fork_join exception propagation, Rng.streams).

   Engine tests use handlers that block on explicit latches rather than
   sleeps wherever possible, so they are scheduling-robust; every wait
   has a deadline so a regression fails loudly instead of hanging the
   suite. *)

module Json = Ps_server.Json
module P = Ps_server.Protocol
module Engine = Ps_server.Engine
module Server = Ps_server.Server

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Json *)

let parse_ok s =
  match Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "parse %S: %s" s e

let parse_err s =
  match Json.parse s with
  | Ok _ -> Alcotest.failf "parse %S: expected an error" s
  | Error e -> e

let test_json_roundtrip () =
  let cases =
    [ "null"; "true"; "false"; "0"; "-42"; "3.5"; "\"\"";
      "\"a\\\"b\\\\c\\n\""; "[]"; "[1,2,3]"; "{}";
      "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}" ]
  in
  List.iter
    (fun s -> check_string s s (Json.to_string (parse_ok s)))
    cases

let test_json_unicode () =
  check_string "bmp escape" "\"\xc3\xa9\"" (Json.to_string (parse_ok "\"\\u00e9\""));
  check_string "surrogate pair" "\"\xf0\x9f\x99\x82\""
    (Json.to_string (parse_ok "\"\\ud83d\\ude42\""))

let test_json_errors () =
  List.iter
    (fun s -> ignore (parse_err s : string))
    [ ""; "{"; "[1,2"; "\"unterminated"; "01"; "1.2.3"; "nul";
      "{\"a\" 1}"; "[1,]"; "{,}"; "1 2"; "[1] x"; "\"\\ud83d\"" ]

let test_json_int_overflow_widens () =
  match parse_ok "99999999999999999999" with
  | Json.Float f -> check_bool "widened" true (f > 9e18)
  | j -> Alcotest.failf "expected Float, got %s" (Json.to_string j)

let test_json_max_depth () =
  let deep n = String.concat "" (List.init n (fun _ -> "[")) in
  (match Json.parse ~max_depth:8 (deep 64) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected depth error");
  ignore (parse_ok "[[[[1]]]]" : Json.t)

(* ------------------------------------------------------------------ *)
(* Protocol validation on hostile input *)

let code_of s =
  match P.parse_request s with
  | Ok _ -> Alcotest.failf "parse_request %S: expected an error" s
  | Error (_, e) -> P.error_code_string e.P.code

let test_protocol_truncated_line () =
  check_string "truncated json" "parse_error"
    (code_of "{\"id\":1,\"method\":\"redu");
  check_string "empty object" "invalid_request" (code_of "{}")

let test_protocol_oversized_payload () =
  let line =
    "{\"id\":7,\"method\":\"ping\",\"pad\":\"" ^ String.make 256 'x' ^ "\"}"
  in
  match P.parse_request ~max_bytes:64 line with
  | Error (_, e) ->
      check_string "code" "payload_too_large" (P.error_code_string e.P.code)
  | Ok _ -> Alcotest.fail "expected payload_too_large"

let test_protocol_unknown_method () =
  match P.parse_request "{\"id\":3,\"method\":\"frobnicate\"}" with
  | Error (id, e) ->
      check_string "code" "unknown_method" (P.error_code_string e.P.code);
      check_bool "id recovered" true (Json.equal id (Json.Int 3))
  | Ok _ -> Alcotest.fail "expected unknown_method"

let reduce_line payload =
  Json.to_string
    (Json.Obj
       [ ("id", Json.Int 1);
         ("method", Json.Str "reduce");
         ("params", Json.Obj [ ("hypergraph", Json.Str payload) ]) ])

let test_protocol_bad_hypergraph_ids () =
  (* Negative and int-overflowing vertex ids inside the inline Hio
     payload must surface as invalid_request, never as an exception. *)
  List.iter
    (fun payload ->
      check_string payload "invalid_request" (code_of (reduce_line payload)))
    [ "3 1\n2 0 -1";                      (* negative vertex *)
      "3 1\n2 0 99999999999999999999";    (* overflows int_of_string *)
      "-3 1\n";                           (* negative header *)
      "3 1\n2 0 5";                       (* vertex out of range *)
      "not a header" ]

(* A self-loop in an inline graph is a malformed payload like any
   other: a typed invalid_request naming the line, not an
   [Invalid_argument] escaping from the CSR builder. *)
let test_protocol_graph_self_loop () =
  let line =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Int 1); ("method", Json.Str "mis");
           ("params", Json.Obj [ ("graph", Json.Str "3 1\n1 1\n") ]) ])
  in
  match P.parse_request line with
  | Ok _ -> Alcotest.fail "a self-loop graph was accepted"
  | Error (_, e) ->
      check_string "code" "invalid_request" (P.error_code_string e.P.code);
      check_string "message"
        "graph payload: Gio.of_edge_list: line 2: self-loop on vertex 1"
        e.P.message

let test_protocol_bad_params () =
  let mk fields =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Int 1); ("method", Json.Str "reduce");
           ( "params",
             Json.Obj
               (("hypergraph", Json.Str "2 1\n2 0 1") :: fields) ) ])
  in
  check_string "k=0" "invalid_request"
    (code_of
       (Json.to_string
          (Json.Obj
             [ ("id", Json.Int 1); ("method", Json.Str "reduce");
               ( "params",
                 Json.Obj
                   [ ("hypergraph", Json.Str "2 1\n2 0 1");
                     ("k", Json.Int 0) ] ) ])));
  check_string "timeout_ms=0" "invalid_request"
    (code_of (mk [ ("timeout_ms", Json.Int 0) ]));
  check_string "unknown solver" "invalid_request"
    (code_of
       (Json.to_string
          (Json.Obj
             [ ("id", Json.Int 1); ("method", Json.Str "reduce");
               ( "params",
                 Json.Obj
                   [ ("hypergraph", Json.Str "2 1\n2 0 1");
                     ("solver", Json.Str "quantum") ] ) ])))

(* The registry is the one list of solver names: every name decodes
   through the shared option decoder to the solver it names, and the
   names are distinct. *)
let test_protocol_registry_decodes () =
  List.iter
    (fun (name, (solver : Ps_maxis.Approx.solver)) ->
      match P.solve_spec ~solver:name () with
      | Ok spec ->
          check_bool (name ^ " decodes to its solver") true
            (spec.Ps_core.Solve_spec.solver == solver)
      | Error e -> Alcotest.failf "solver %S rejected: %s" name e.P.message)
    P.solvers;
  let names = List.map fst P.solvers in
  check_int "distinct names" (List.length names)
    (List.length (List.sort_uniq String.compare names))

(* A k whose G_k would need more triple ids than int32 holds is the
   caller's error, found at decode time: invalid_request naming the
   triple count, never the builder's [Invalid_argument] surfacing as
   internal.  The sunflower-ish payload has sum|e| = 6; 2^31 / 6 is
   the first k past the limit. *)
let test_protocol_k_past_triple_limit () =
  let line meth k =
    Json.to_string
      (Json.Obj
         [ ("id", Json.Int 1); ("method", Json.Str meth);
           ( "params",
             Json.Obj
               [ ("hypergraph", Json.Str "4 2\n3 0 1 2\n3 1 2 3");
                 ("k", Json.Int k) ] ) ])
  in
  let limit = Ps_graph.Graph.max_vertices / 6 in
  List.iter
    (fun meth ->
      (match P.parse_request (line meth (limit + 1)) with
      | Ok _ -> Alcotest.failf "%s accepted k = %d" meth (limit + 1)
      | Error (_, e) ->
          check_string "code" "invalid_request" (P.error_code_string e.P.code);
          check_string "message"
            (Printf.sprintf
               "field \"k\": k * sum|e| = %d * 6 triples exceeds the int32 \
                id limit 2147483647"
               (limit + 1))
            e.P.message);
      check_string "k = 2^62" "invalid_request"
        (code_of (line meth (1 lsl 62)));
      match P.parse_request (line meth limit) with
      | Ok _ -> ()
      | Error (_, e) ->
          Alcotest.failf "%s rejected k at the limit: %s" meth e.P.message)
    [ "reduce"; "certify" ]

(* ------------------------------------------------------------------ *)
(* Engine: reply collection helpers *)

type replies = { m : Mutex.t; mutable lines : string list }

let new_replies () = { m = Mutex.create (); lines = [] }

let push r line =
  Mutex.lock r.m;
  r.lines <- line :: r.lines;
  Mutex.unlock r.m

let count r =
  Mutex.lock r.m;
  let n = List.length r.lines in
  Mutex.unlock r.m;
  n

let wait_for_replies ?(timeout_s = 10.0) r n =
  let deadline = Unix.gettimeofday () +. timeout_s in
  while count r < n && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  if count r < n then
    Alcotest.failf "timed out waiting for %d replies (got %d)" n (count r)

let error_code_of_line line =
  let j = parse_ok line in
  match Option.bind (Json.member "error" j) (Json.member "code") with
  | Some (Json.Str s) -> s
  | _ -> "ok"

let codes r =
  Mutex.lock r.m;
  let cs = List.map error_code_of_line r.lines in
  Mutex.unlock r.m;
  List.sort compare cs

let ping_req n = { P.id = Json.Int n; timeout_ms = None; tenant = None; call = P.Ping }

(* A latch the handler blocks on until the test releases it. *)
type gate = { gm : Mutex.t; gc : Condition.t; mutable open_ : bool }

let new_gate () = { gm = Mutex.create (); gc = Condition.create (); open_ = false }

let open_gate g =
  Mutex.lock g.gm;
  g.open_ <- true;
  Condition.broadcast g.gc;
  Mutex.unlock g.gm

let await_gate g =
  Mutex.lock g.gm;
  while not g.open_ do
    Condition.wait g.gc g.gm
  done;
  Mutex.unlock g.gm

(* Ids of the collected replies, in delivery order. *)
let reply_ids r =
  Mutex.lock r.m;
  let lines = List.rev r.lines in
  Mutex.unlock r.m;
  List.map
    (fun line ->
      match Json.member "id" (parse_ok line) with
      | Some (Json.Int i) -> i
      | _ -> Alcotest.failf "reply without an int id: %s" line)
    lines

(* One worker wedged until [gate] opens (or the cancel hook fires), and
   a queue of one: job 1 in flight, job 2 queued, so a third submit
   finds the queue full. *)
let wedged_engine gate =
  let handler ~stats:_ ~cancel _req =
    let rec wait () =
      Mutex.lock gate.gm;
      let open_ = gate.open_ in
      Mutex.unlock gate.gm;
      if open_ then ()
      else if cancel () then raise Ps_core.Reduction.Canceled
      else begin
        Thread.delay 0.002;
        wait ()
      end
    in
    wait ();
    Ok (Json.Obj [ ("done", Json.Bool true) ])
  in
  let engine =
    Engine.create ~handler
      { Engine.domains = 1; queue_capacity = 1; default_timeout_ms = None; cache = None }
  in
  let r = new_replies () in
  check_bool "first accepted" true
    (Engine.submit engine (ping_req 1) ~reply:(push r) = Engine.Accepted);
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Engine.inflight engine < 1 && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  check_int "in flight" 1 (Engine.inflight engine);
  check_bool "second accepted" true
    (Engine.submit engine (ping_req 2) ~reply:(push r) = Engine.Accepted);
  check_int "queue full" 1 (Engine.queue_depth engine);
  (engine, r)

(* Submit request [id] from its own thread; [outcome] holds its result
   once the call returns.  The thread is parked in [submit] after the
   delay. *)
let blocked_submit engine r id =
  let outcome = Atomic.make None in
  let th =
    Thread.create
      (fun () ->
        Atomic.set outcome
          (Some (Engine.submit engine (ping_req id) ~reply:(push r))))
      ()
  in
  Thread.delay 0.1;
  check_bool "submit blocks on the full queue" true
    (Option.is_none (Atomic.get outcome));
  check_int "nothing answered while wedged" 0 (count r);
  (th, outcome)

let test_engine_full_queue_blocks () =
  let gate = new_gate () in
  let engine, r = wedged_engine gate in
  let th, outcome = blocked_submit engine r 3 in
  open_gate gate;
  Thread.join th;
  check_bool "blocked submit accepted" true
    (Atomic.get outcome = Some Engine.Accepted);
  Engine.shutdown ~drain:true engine;
  wait_for_replies r 3;
  check_bool "every reply ok, none overloaded" true
    (codes r = [ "ok"; "ok"; "ok" ]);
  check_bool "replies in submission order" true (reply_ids r = [ 1; 2; 3 ])

(* [shutdown] started while two submitters are parked on the full
   queue (one pop would wake only one of them): each parked call
   returns [Rejected_shutting_down] with exactly one [shutting_down]
   reply, and both accepted jobs still answer — [ok] on a drain,
   [shutting_down] on an abort. *)
let shutdown_wakes_blocked_submitters ~drain =
  let gate = new_gate () in
  let engine, r = wedged_engine gate in
  let blocked = [ blocked_submit engine r 3; blocked_submit engine r 4 ] in
  let stopper = Thread.create (fun () -> Engine.shutdown ~drain engine) () in
  (* Poll rather than join, so a submitter that stays parked fails the
     test instead of hanging it. *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  List.iter
    (fun (th, outcome) ->
      while Option.is_none (Atomic.get outcome)
            && Unix.gettimeofday () < deadline do
        Thread.delay 0.005
      done;
      check_bool "blocked submit rejected" true
        (Atomic.get outcome = Some Engine.Rejected_shutting_down);
      Thread.join th)
    blocked;
  (* A drain waits for the wedged job; an abort cancels it. *)
  if drain then open_gate gate;
  Thread.join stopper;
  wait_for_replies r 4;
  Thread.delay 0.02;
  check_int "exactly one reply per request" 4 (count r);
  check_bool "one reply per id" true
    (List.sort compare (reply_ids r) = [ 1; 2; 3; 4 ]);
  let accepted = if drain then "ok" else "shutting_down" in
  check_bool "codes" true
    (codes r
    = List.sort compare
        [ accepted; accepted; "shutting_down"; "shutting_down" ]);
  let stats = Engine.stats_json engine in
  check_bool "rejected counts the shutdown rejections" true
    (Json.member "rejected" stats = Some (Json.Int 2))

let test_engine_drain_wakes_blocked () =
  shutdown_wakes_blocked_submitters ~drain:true

let test_engine_abort_wakes_blocked () =
  shutdown_wakes_blocked_submitters ~drain:false

let test_engine_timeout_cancels () =
  (* The handler cooperates with [cancel] exactly like the phase loop
     does; a 20 ms deadline must cut it off with a timeout response. *)
  let handler ~stats:_ ~cancel _req =
    while not (cancel ()) do
      Thread.delay 0.002
    done;
    raise Ps_core.Reduction.Canceled
  in
  let engine =
    Engine.create ~handler
      { Engine.domains = 1; queue_capacity = 4; default_timeout_ms = None; cache = None }
  in
  let r = new_replies () in
  let req = { P.id = Json.Int 1; timeout_ms = Some 20; tenant = None; call = P.Ping } in
  ignore (Engine.submit engine req ~reply:(push r) : Engine.submit_outcome);
  wait_for_replies r 1;
  check_string "timeout code" "timeout" (error_code_of_line (List.hd r.lines));
  Engine.shutdown ~drain:true engine

let test_engine_queue_expired_job_skips_handler () =
  (* A job whose deadline passes while it waits in the queue answers
     [timeout] without the handler ever running. *)
  let ran = Atomic.make 0 in
  let gate = new_gate () in
  let handler ~stats:_ ~cancel:_ req =
    (match req.P.id with
    | Json.Int 1 -> await_gate gate
    | _ -> Atomic.incr ran);
    Ok Json.Null
  in
  let engine =
    Engine.create ~handler
      { Engine.domains = 1; queue_capacity = 4; default_timeout_ms = None; cache = None }
  in
  let r = new_replies () in
  ignore (Engine.submit engine (ping_req 1) ~reply:(push r)
          : Engine.submit_outcome);
  let expiring =
    { P.id = Json.Int 2; timeout_ms = Some 10; tenant = None; call = P.Ping }
  in
  ignore (Engine.submit engine expiring ~reply:(push r)
          : Engine.submit_outcome);
  Thread.delay 0.05;  (* let the 10 ms budget elapse in the queue *)
  open_gate gate;
  Engine.shutdown ~drain:true engine;
  wait_for_replies r 2;
  check_bool "expired answered timeout" true
    (List.mem "timeout" (codes r));
  check_int "handler never ran for expired job" 0 (Atomic.get ran)

let test_engine_drain_answers_everything () =
  let handler ~stats:_ ~cancel:_ _req =
    Thread.delay 0.005;
    Ok Json.Null
  in
  let engine =
    Engine.create ~handler
      { Engine.domains = 2; queue_capacity = 64; default_timeout_ms = None; cache = None }
  in
  let r = new_replies () in
  let n = 20 in
  for i = 1 to n do
    check_bool "accepted" true
      (Engine.submit engine (ping_req i) ~reply:(push r) = Engine.Accepted)
  done;
  (* Shutdown before most jobs have run: drain must still answer all. *)
  Engine.shutdown ~drain:true engine;
  check_int "every accepted job answered" n (count r);
  check_bool "all ok" true (List.for_all (( = ) "ok") (codes r));
  (* Submissions after close are rejected with a typed error. *)
  check_bool "post-close rejected" true
    (Engine.submit engine (ping_req 99) ~reply:(push r)
    = Engine.Rejected_shutting_down);
  check_string "post-close code" "shutting_down"
    (error_code_of_line (List.hd r.lines))

let test_engine_abort_cancels_in_flight () =
  let entered = new_gate () in
  let handler ~stats:_ ~cancel _req =
    open_gate entered;
    while not (cancel ()) do
      Thread.delay 0.002
    done;
    raise Ps_core.Reduction.Canceled
  in
  let engine =
    Engine.create ~handler
      { Engine.domains = 1; queue_capacity = 4; default_timeout_ms = None; cache = None }
  in
  let r = new_replies () in
  ignore (Engine.submit engine (ping_req 1) ~reply:(push r)
          : Engine.submit_outcome);
  await_gate entered;
  Engine.shutdown ~drain:false engine;
  wait_for_replies r 1;
  check_string "abort code" "shutting_down"
    (error_code_of_line (List.hd r.lines))

let test_engine_handler_exception_is_internal () =
  let handler ~stats:_ ~cancel:_ req =
    match req.P.id with
    | Json.Int 1 -> failwith "boom"
    | _ -> Ok Json.Null
  in
  let engine =
    Engine.create ~handler
      { Engine.domains = 1; queue_capacity = 4; default_timeout_ms = None; cache = None }
  in
  let r = new_replies () in
  ignore (Engine.submit engine (ping_req 1) ~reply:(push r)
          : Engine.submit_outcome);
  wait_for_replies r 1;
  check_string "internal code" "internal"
    (error_code_of_line (List.hd r.lines));
  (* The worker survived the exception and keeps serving. *)
  ignore (Engine.submit engine (ping_req 2) ~reply:(push r)
          : Engine.submit_outcome);
  wait_for_replies r 2;
  check_bool "next job ok" true (List.mem "ok" (codes r));
  Engine.shutdown ~drain:true engine

(* ------------------------------------------------------------------ *)
(* Transport: an in-process shard over a real Unix socket *)

let shard_socket_path () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "pslocal_shard_%d.sock" (Unix.getpid ()))

(* Run [f path] against [Shard.serve] on its own thread; SIGTERM to
   this process (the server's termination latch) stops it afterwards. *)
let with_shard_server ?(domains = 2) f =
  let path = shard_socket_path () in
  (try Sys.remove path with Sys_error _ -> ());
  let config =
    { Ps_shard.Shard.default_config with
      engine = { Engine.default_config with domains } }
  in
  let server =
    Thread.create (fun () -> Ps_shard.Shard.serve ~config ~path ()) ()
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while
    (not (Ps_shard.Supervisor.socket_ready path))
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  check_bool "server socket is up" true (Ps_shard.Supervisor.socket_ready path);
  Fun.protect
    ~finally:(fun () ->
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      Thread.join server)
    (fun () -> f path)

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect_client path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let send_line c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let ask c line =
  send_line c line;
  input_line c.ic

(* Send [lines], half-close, and read replies until the server closes:
   every request must be answered before the connection ends. *)
let exchange path lines =
  let c = connect_client path in
  List.iter (send_line c) lines;
  Unix.shutdown c.fd Unix.SHUTDOWN_SEND;
  let rec read acc =
    match input_line c.ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let replies = read [] in
  close_in c.ic;
  replies

let line_codes lines =
  List.sort String.compare (List.map error_code_of_line lines)

let test_server_survives_malformed_batch () =
  with_shard_server @@ fun path ->
  let replies =
    exchange path
      [ "{\"id\":1,\"method\":\"ping\"}";
        "garbage";
        "{\"id\":\"x\",\"method\":\"nope\"}";
        "{\"id\":2,\"method\":\"reduce\",\"params\":{\"hypergraph\":\"1 1\\n2 0 -5\"}}";
        "";  (* blank lines are ignored, not answered *)
        "{\"id\":3,\"method\":\"ping\"}" ]
  in
  check_int "blank line ignored" 5 (List.length replies);
  check_bool "typed errors and live pings" true
    (line_codes replies
    = [ "invalid_request"; "ok"; "ok"; "parse_error"; "unknown_method" ])

let test_server_stats_roundtrip () =
  (* One worker: the ping's bookkeeping is done before stats runs. *)
  with_shard_server ~domains:1 @@ fun path ->
  let c = connect_client path in
  Fun.protect ~finally:(fun () -> close_in c.ic) @@ fun () ->
  check_string "ping" "ok" (error_code_of_line (ask c "{\"id\":1,\"method\":\"ping\"}"));
  let j = parse_ok (ask c "{\"id\":2,\"method\":\"stats\"}") in
  let result = Option.get (Json.member "result" j) in
  let get name =
    match Option.bind (Json.member name result) Json.to_int_opt with
    | Some v -> v
    | None -> Alcotest.failf "stats missing %s" name
  in
  check_bool "accepted >= 2" true (get "accepted" >= 2);
  check_bool "completed >= 1" true (get "completed" >= 1);
  check_bool "latency window present" true
    (Json.member "latency_ms" result <> None);
  check_bool "shard block present" true (Json.member "shard" result <> None);
  let shard = Option.get (Json.member "shard" result) in
  List.iter
    (fun name ->
      check_bool ("shard block has " ^ name) true
        (Json.member name shard <> None))
    [ "index"; "pid"; "framing" ];
  (* No staging layer, so no staging counters. *)
  List.iter
    (fun name ->
      check_bool ("shard block lacks " ^ name) true
        (Json.member name shard = None))
    [ "batches"; "batched_requests"; "max_batch" ]

let test_server_reduce_roundtrip_certified () =
  with_shard_server @@ fun path ->
  let h = Ps_hypergraph.Hgen.sunflower ~n_petals:12 ~core:3 ~petal:3 in
  let c = connect_client path in
  Fun.protect ~finally:(fun () -> close_in c.ic) @@ fun () ->
  let line =
    ask c
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int 1);
              ("method", Json.Str "reduce");
              ( "params",
                Json.Obj
                  [ ("hypergraph", Json.Str (Ps_hypergraph.Hio.to_text h)) ] )
            ]))
  in
  check_string "ok" "ok" (error_code_of_line line);
  let result = Option.get (Json.member "result" (parse_ok line)) in
  check_bool "certified" true
    (Option.bind (Json.member "certified" result) Json.to_bool_opt
    = Some true)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_connections_release_fds () =
  (* Every connection's fd and writer are released once the client
     hangs up; a long-running shard must not grow toward EMFILE. *)
  if not (Sys.file_exists "/proc/self/fd") then Alcotest.skip ();
  with_shard_server ~domains:1 @@ fun path ->
  let ping i =
    let c = connect_client path in
    let line = ask c (Printf.sprintf "{\"id\":%d,\"method\":\"ping\"}" i) in
    close_in c.ic;
    check_string "pong" "ok" (error_code_of_line line)
  in
  ping 0;
  let baseline = open_fds () in
  for i = 1 to 300 do
    ping i
  done;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while open_fds () > baseline + 8 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  if open_fds () > baseline + 8 then
    Alcotest.failf "300 closed connections left %d fds open (baseline %d)"
      (open_fds () - baseline) baseline

(* ------------------------------------------------------------------ *)
(* Satellite: fork_join propagates a worker's exception *)

exception Chunk_failed of int

let test_fork_join_propagates_exception () =
  let reached = Atomic.make 0 in
  (match
     Ps_util.Parallel.fork_join ~domains:4 (fun i ->
         Atomic.incr reached;
         if i = 2 then raise (Chunk_failed i))
   with
  | () -> Alcotest.fail "expected Chunk_failed"
  | exception Chunk_failed 2 -> ()
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
  check_int "every chunk ran" 4 (Atomic.get reached);
  (* No deadlock, no poisoned state: the next fork_join still works. *)
  let sum = Atomic.make 0 in
  Ps_util.Parallel.fork_join ~domains:4 (fun i ->
      ignore (Atomic.fetch_and_add sum i : int));
  check_int "subsequent fork_join fine" 6 (Atomic.get sum)

let test_fork_join_first_failure_wins () =
  (* When several workers raise, the exception of the lowest-indexed
     chunk is the one reported (a deterministic choice). *)
  match
    Ps_util.Parallel.fork_join ~domains:4 (fun i ->
        if i >= 1 then raise (Chunk_failed i))
  with
  | () -> Alcotest.fail "expected Chunk_failed"
  | exception Chunk_failed 1 -> ()
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e)

let test_fork_join_staged_stage_ordering () =
  let stage1_done = Atomic.make 0 in
  let mid_runs = Atomic.make 0 in
  let mid_saw = Atomic.make 0 in
  let stage2_after_mid = Atomic.make true in
  Ps_util.Parallel.fork_join_staged ~domains:4
    ~stage1:(fun _ -> Atomic.incr stage1_done)
    ~mid:(fun () ->
      Atomic.incr mid_runs;
      Atomic.set mid_saw (Atomic.get stage1_done))
    ~stage2:(fun _ ->
      if Atomic.get mid_runs <> 1 then Atomic.set stage2_after_mid false);
  check_int "stage1 ran on every domain" 4 (Atomic.get stage1_done);
  check_int "mid ran exactly once" 1 (Atomic.get mid_runs);
  check_int "mid saw all of stage1" 4 (Atomic.get mid_saw);
  check_bool "stage2 saw mid" true (Atomic.get stage2_after_mid)

let test_fork_join_staged_matches_two_fork_joins () =
  (* The count/prefix-sum/fill shape of the CSR builder, staged vs. two
     separate fork_joins — identical output. *)
  let n = 57 and domains = 3 in
  let run_staged () =
    let a = Array.make n 0 and b = Array.make n 0 in
    let total = ref 0 in
    Ps_util.Parallel.fork_join_staged ~domains
      ~stage1:(fun d ->
        let lo, hi = Ps_util.Parallel.range ~pieces:domains ~lo:0 ~hi:n d in
        for i = lo to hi - 1 do
          a.(i) <- i * i
        done)
      ~mid:(fun () -> total := Array.fold_left ( + ) 0 a)
      ~stage2:(fun d ->
        let lo, hi = Ps_util.Parallel.range ~pieces:domains ~lo:0 ~hi:n d in
        for i = lo to hi - 1 do
          b.(i) <- a.(i) + !total
        done);
    b
  in
  let run_split () =
    let a = Array.make n 0 and b = Array.make n 0 in
    Ps_util.Parallel.fork_join ~domains (fun d ->
        let lo, hi = Ps_util.Parallel.range ~pieces:domains ~lo:0 ~hi:n d in
        for i = lo to hi - 1 do
          a.(i) <- i * i
        done);
    let total = Array.fold_left ( + ) 0 a in
    Ps_util.Parallel.fork_join ~domains (fun d ->
        let lo, hi = Ps_util.Parallel.range ~pieces:domains ~lo:0 ~hi:n d in
        for i = lo to hi - 1 do
          b.(i) <- a.(i) + total
        done);
    b
  in
  check_bool "staged = two fork_joins" true (run_staged () = run_split ());
  (* Degenerate single-domain path takes the no-spawn shortcut. *)
  let c = Array.make 4 0 in
  Ps_util.Parallel.fork_join_staged ~domains:1
    ~stage1:(fun d -> c.(0) <- d + 1)
    ~mid:(fun () -> c.(1) <- c.(0) + 1)
    ~stage2:(fun d -> c.(2) <- c.(1) + d + 1);
  check_bool "domains=1 sequential" true (c.(0) = 1 && c.(1) = 2 && c.(2) = 3)

let test_fork_join_staged_abort_on_failure () =
  (* A stage1 failure must propagate without deadlocking the barriers,
     and must abort mid and stage2 everywhere. *)
  let mid_runs = Atomic.make 0 and stage2_runs = Atomic.make 0 in
  (match
     Ps_util.Parallel.fork_join_staged ~domains:4
       ~stage1:(fun i -> if i = 3 then raise (Chunk_failed i))
       ~mid:(fun () -> Atomic.incr mid_runs)
       ~stage2:(fun _ -> Atomic.incr stage2_runs)
   with
  | () -> Alcotest.fail "expected Chunk_failed"
  | exception Chunk_failed 3 -> ()
  | exception e ->
      Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
  check_int "mid aborted" 0 (Atomic.get mid_runs);
  check_int "stage2 aborted" 0 (Atomic.get stage2_runs);
  (* Barriers are per-call state: a subsequent staged call still works. *)
  let ok = Atomic.make 0 in
  Ps_util.Parallel.fork_join_staged ~domains:4
    ~stage1:(fun _ -> Atomic.incr ok)
    ~mid:(fun () -> Atomic.incr ok)
    ~stage2:(fun _ -> Atomic.incr ok);
  check_int "subsequent staged call fine" 9 (Atomic.get ok)

(* ------------------------------------------------------------------ *)
(* Satellite: Rng.streams *)

let drain rng n = List.init n (fun _ -> Ps_util.Rng.bits64 rng)

let test_rng_streams_deterministic () =
  let a = Ps_util.Rng.streams (Ps_util.Rng.create 42) 4 in
  let b = Ps_util.Rng.streams (Ps_util.Rng.create 42) 4 in
  Array.iteri
    (fun i ra -> check_bool "same stream" true (drain ra 16 = drain b.(i) 16))
    a

let test_rng_streams_independent () =
  let parent = Ps_util.Rng.create 7 in
  let streams = Ps_util.Rng.streams parent 8 in
  let outputs = Array.map (fun r -> drain r 8) streams in
  Array.iteri
    (fun i oi ->
      Array.iteri
        (fun j oj ->
          if i < j then check_bool "streams differ" false (oi = oj))
        outputs)
    outputs;
  (* Derivation does not advance the parent... *)
  check_bool "parent undisturbed" true
    (drain parent 8 = drain (Ps_util.Rng.create 7) 8);
  (* ...and the parent's own stream differs from every child's. *)
  let fresh = Ps_util.Rng.create 7 in
  let parent_out = drain fresh 8 in
  Array.iter
    (fun o -> check_bool "parent differs from child" false (o = parent_out))
    outputs

let test_rng_streams_validation () =
  check_int "zero streams" 0
    (Array.length (Ps_util.Rng.streams (Ps_util.Rng.create 1) 0));
  match Ps_util.Rng.streams (Ps_util.Rng.create 1) (-1) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Service.handle: one test per method, straight through the dispatcher
   (no engine, no transport) *)

let run_handle call =
  Ps_server.Service.handle
    ~stats:(fun () -> Json.Obj [ ("stub", Json.Bool true) ])
    ~cancel:(fun () -> false)
    { P.id = Json.Int 1; timeout_ms = None; tenant = None; call }

let handle_ok call =
  match run_handle call with
  | Ok j -> j
  | Error e -> Alcotest.failf "handle: unexpected error %s" e.P.message

let member name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S in %s" name (Json.to_string j)

let test_service_ping_stats () =
  (match member "pong" (handle_ok P.Ping) with
  | Json.Bool true -> ()
  | j -> Alcotest.failf "pong: %s" (Json.to_string j));
  match member "stub" (handle_ok P.Stats) with
  | Json.Bool true -> ()
  | j -> Alcotest.failf "stats must return the injected snapshot: %s"
           (Json.to_string j)

let test_service_mis_all_algorithms () =
  let g = Ps_graph.Gen.ring 9 in
  let names algo =
    match member "algorithms" (handle_ok (P.Mis { graph = g; algo; seed = 5 }))
    with
    | Json.List entries ->
        List.map
          (fun e ->
            match (member "algorithm" e, member "size" e) with
            | Json.Str a, Json.Int s ->
                check_bool (a ^ " nonempty") true (s > 0);
                a
            | _ -> Alcotest.fail "malformed mis entry")
          entries
    | j -> Alcotest.failf "algorithms: %s" (Json.to_string j)
  in
  check_int "greedy alone" 1 (List.length (names P.Mis_greedy));
  Alcotest.(check (list string))
    "all four, table order"
    [ "greedy"; "luby"; "slocal"; "derandomized" ]
    (names P.Mis_all)

let test_service_decompose () =
  let g = Ps_graph.Gen.grid 5 5 in
  let r = handle_ok (P.Decompose { graph = g }) in
  (match member "verified" r with
  | Json.Bool true -> ()
  | j -> Alcotest.failf "decomposition must verify: %s" (Json.to_string j));
  match member "clusters" r with
  | Json.Int c -> check_bool "has clusters" true (c > 0)
  | j -> Alcotest.failf "clusters: %s" (Json.to_string j)

let solve_params_of h =
  { P.hypergraph = h;
    spec =
      { Ps_core.Solve_spec.solver = Ps_maxis.Approx.greedy_min_degree;
        presolve = `None;
        k = None;
        seed = 7 };
    detail = false }

let test_service_reduce_and_certify () =
  let h = Ps_hypergraph.Hypergraph.of_edges 4 [ [ 0; 1 ]; [ 2; 3 ] ] in
  let r = handle_ok (P.Reduce (solve_params_of h)) in
  (match member "certified" r with
  | Json.Bool true -> ()
  | j -> Alcotest.failf "certified: %s" (Json.to_string j));
  let c = handle_ok (P.Certify (solve_params_of h)) in
  match member "all_ok" c with
  | Json.Bool true -> ()
  | j -> Alcotest.failf "certificate all_ok: %s" (Json.to_string j)

let check_hg = Ps_hypergraph.Hypergraph.of_edges 3 [ [ 0; 1 ]; [ 1; 2 ] ]

let valid_of r =
  match member "valid" r with
  | Json.Bool b -> b
  | j -> Alcotest.failf "valid: %s" (Json.to_string j)

let diagnostics_of r =
  match member "diagnostics" r with
  | Json.List ds -> ds
  | j -> Alcotest.failf "diagnostics: %s" (Json.to_string j)

let test_service_check_multicoloring () =
  let ok =
    handle_ok
      (P.Check
         (P.Check_multicoloring
            { hypergraph = check_hg; multicoloring = [| [ 0 ]; []; [ 0 ] |] }))
  in
  check_bool "valid coloring accepted" true (valid_of ok);
  check_int "no diagnostics" 0 (List.length (diagnostics_of ok));
  let bad =
    handle_ok
      (P.Check
         (P.Check_multicoloring
            { hypergraph = check_hg; multicoloring = [| [ 0 ]; [ 0 ]; [ 1 ] |] }))
  in
  check_bool "collision rejected" false (valid_of bad);
  match diagnostics_of bad with
  | d :: _ -> (
      (match member "rule" d with
      | Json.Str r -> check_string "rule" "conflict-free" r
      | j -> Alcotest.failf "rule: %s" (Json.to_string j));
      match member "kind" (member "where" d) with
      | Json.Str k -> check_string "positioned at an edge" "edge" k
      | j -> Alcotest.failf "kind: %s" (Json.to_string j))
  | [] -> Alcotest.fail "expected diagnostics"

let test_service_check_graph_sets () =
  let g = Ps_graph.Gen.path 3 in
  let r =
    handle_ok
      (P.Check
         (P.Check_graph_sets
            { graph = g; independent_set = Some [ 0; 2 ];
              dominating_set = Some [ 1 ] }))
  in
  check_bool "good certificates" true (valid_of r);
  (match member "checks" r with
  | Json.List cs -> check_int "csr + both sets" 3 (List.length cs)
  | j -> Alcotest.failf "checks: %s" (Json.to_string j));
  let bad =
    handle_ok
      (P.Check
         (P.Check_graph_sets
            { graph = g; independent_set = Some [ 0; 1 ];
              dominating_set = None }))
  in
  check_bool "internal edge rejected" false (valid_of bad)

let test_service_check_wire_parse () =
  (* the protocol layer builds the same targets from a request line *)
  let line =
    {|{"id":9,"method":"check","params":{"hypergraph":"3 2\n2 0 1\n2 1 2","multicoloring":[[0],[],[0]]}}|}
  in
  (match P.parse_request line with
  | Ok req ->
      check_bool "parsed check is valid" true (valid_of (handle_ok req.P.call))
  | Error (_, e) -> Alcotest.failf "parse: %s" e.P.message);
  (* neither hypergraph nor graph: invalid_request, not a crash *)
  match P.parse_request {|{"id":9,"method":"check","params":{}}|} with
  | Ok _ -> Alcotest.fail "expected invalid_request"
  | Error (_, e) ->
      check_string "code" "invalid_request" (P.error_code_string e.P.code)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Accept-loop resilience: the retry and restart contract of
   [Server.accept_loop], pinned deterministically through an injected
   accept function, plus a live signal-storm regression over a real
   Unix socket. *)

let unix_error e = Unix.Unix_error (e, "accept", "")

(* A descriptor [select] always reports readable, standing in for a
   listener with a connection queued. *)
let with_ready_fd f =
  let r, w = Unix.pipe () in
  ignore (Unix.write_substring w "x" 0 1 : int);
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ r; w ])
    (fun () -> f r)

(* Run the loop with [accept_fn] until it returns; the callback stops
   it after the first connection.  Returns the number of connections
   handed over. *)
let run_accept_loop ?(should_stop = fun () -> false) ~restart_counter accept_fn =
  let accepted = ref 0 in
  with_ready_fd (fun listen_fd ->
      Server.accept_loop ~listen_fd
        ~should_stop:(fun () -> !accepted > 0 || should_stop ())
        ~restart_counter
        ~accept:(fun () -> (accept_fn listen_fd, Unix.ADDR_UNIX ""))
        (fun _ -> incr accepted));
  !accepted

let test_accept_retrying_eintr () =
  (* N transient failures, then success: the loop must absorb all of
     them and hand over the connection without a restart. *)
  let attempts = ref 0 in
  let accepted =
    run_accept_loop ~restart_counter:"test.accept_restart" (fun fd ->
        incr attempts;
        if !attempts <= 5 then
          raise (unix_error (if !attempts mod 2 = 0 then Unix.ECONNABORTED
                             else Unix.EINTR))
        else fd)
  in
  check_int "connection delivered" 1 accepted;
  check_int "retried through every failure" 6 !attempts

let test_accept_retrying_stop_between_retries () =
  (* A tripped stop latch is honored between retries, not ignored until
     the next successful accept. *)
  let stopped = ref false in
  let accepted =
    run_accept_loop ~should_stop:(fun () -> !stopped)
      ~restart_counter:"test.accept_restart" (fun _ ->
        stopped := true;
        raise (unix_error Unix.EINTR))
  in
  check_int "stop wins over retry" 0 accepted

let test_accept_retrying_ebadf_and_fatal () =
  (* EBADF means the listener is gone: the loop ends. *)
  check_int "EBADF ends the loop" 0
    (run_accept_loop ~restart_counter:"test.accept_restart" (fun fd ->
         Unix.close fd;
         raise (unix_error Unix.EBADF)));
  (* Resource exhaustion (EMFILE and friends) is transient: the loop
     must back off and retry rather than die, and must still honor the
     stop latch between retries. *)
  let attempts = ref 0 in
  check_int "EMFILE backs off, then honors stop" 0
    (run_accept_loop
       ~should_stop:(fun () -> !attempts >= 3)
       ~restart_counter:"test.accept_restart"
       (fun _ ->
         incr attempts;
         raise (unix_error Unix.EMFILE)));
  check_int "EMFILE was retried until stopped" 3 !attempts

let test_accept_loop_restarts () =
  (* An error outside the retry ladder restarts the loop: it keeps
     accepting, the callback runs, and the restart is counted. *)
  let was_enabled = Ps_util.Telemetry.enabled () in
  Ps_util.Telemetry.set_enabled true;
  Fun.protect ~finally:(fun () -> Ps_util.Telemetry.set_enabled was_enabled)
  @@ fun () ->
  let counter = "test.acceptor_restart" in
  let before = Ps_util.Telemetry.counter_value counter in
  let attempts = ref 0 in
  let accepted =
    run_accept_loop ~restart_counter:counter (fun fd ->
        incr attempts;
        if !attempts = 1 then raise (unix_error Unix.EINVAL) else fd)
  in
  check_int "accepted after the restart" 1 accepted;
  check_int "one failed attempt, one success" 2 !attempts;
  check_int "restart counted" 1 (Ps_util.Telemetry.counter_value counter - before)

let read_reply_retrying fd =
  (* Client-side reads race the storm too; retry EINTR by hand. *)
  let buf = Buffer.create 256 in
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> Buffer.contents buf
    | _ ->
        if Char.equal (Bytes.get b 0) '\n' then Buffer.contents buf
        else (Buffer.add_char buf (Bytes.get b 0); go ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let rec write_retrying fd s pos len =
  match Unix.write_substring fd s pos len with
  | n -> if n < len then write_retrying fd s (pos + n) (len - n)
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      write_retrying fd s pos len

let rec connect_retrying fd addr =
  match Unix.connect fd addr with
  | () -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> connect_retrying fd addr

let test_accept_loop_survives_signal_storm () =
  (* Regression for the accept-loop bug: before the retry ladder, one
     EINTR inside the ready branch killed the acceptor thread and the
     server stopped accepting while looking healthy.  Hammer the process
     with SIGUSR1 while clients keep connecting; every ping must still
     be answered. *)
  let prev_usr1 = Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> ())) in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigusr1 prev_usr1)
  @@ fun () ->
  with_shard_server @@ fun path ->
  let self = Unix.getpid () in
  let storming = Atomic.make true in
  let stormer =
    Thread.create
      (fun () ->
        while Atomic.get storming do
          Unix.kill self Sys.sigusr1;
          Thread.delay 0.0003
        done)
      ()
  in
  let answered = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set storming false;
      Thread.join stormer)
    (fun () ->
      for i = 1 to 40 do
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            connect_retrying fd (Unix.ADDR_UNIX path);
            let req =
              Printf.sprintf "{\"id\":%d,\"method\":\"ping\"}\n" i
            in
            write_retrying fd req 0 (String.length req);
            let line = read_reply_retrying fd in
            check_string
              (Printf.sprintf "ping %d answered ok" i)
              "ok" (error_code_of_line line);
            incr answered)
      done);
  check_int "every connection under the storm was served" 40 !answered

(* ------------------------------------------------------------------ *)
(* Stats discipline: failed and timeouts are disjoint counters *)

let stats_counters engine =
  let j = Engine.stats_json engine in
  let get name =
    match Option.bind (Json.member name j) Json.to_int_opt with
    | Some v -> v
    | None -> Alcotest.failf "stats_json missing %s" name
  in
  (get "accepted", get "completed", get "failed", get "timeouts")

let test_stats_failed_timeouts_disjoint () =
  (* One job that times out, one that fails: each lands in exactly one
     bucket, and completed covers both without double counting. *)
  let handler ~stats:_ ~cancel req =
    match req.P.id with
    | Json.Int 1 ->
        while not (cancel ()) do
          Thread.delay 0.002
        done;
        raise Ps_core.Reduction.Canceled
    | _ -> failwith "boom"
  in
  let engine =
    Engine.create ~handler
      { Engine.domains = 1; queue_capacity = 4; default_timeout_ms = None;
        cache = None }
  in
  let r = new_replies () in
  ignore
    (Engine.submit engine
       { P.id = Json.Int 1; timeout_ms = Some 20; tenant = None; call = P.Ping }
       ~reply:(push r)
      : Engine.submit_outcome);
  wait_for_replies r 1;
  let accepted, completed, failed, timeouts = stats_counters engine in
  check_int "accepted" 1 accepted;
  check_int "completed covers the timeout" 1 completed;
  check_int "timeout counted once" 1 timeouts;
  check_int "timeout is not a failure" 0 failed;
  ignore
    (Engine.submit engine (ping_req 2) ~reply:(push r)
      : Engine.submit_outcome);
  wait_for_replies r 2;
  let accepted, completed, failed, timeouts = stats_counters engine in
  check_int "accepted both" 2 accepted;
  check_int "completed both" 2 completed;
  check_int "failure counted once" 1 failed;
  check_int "failure is not a timeout" 1 timeouts;
  check_bool "buckets never overcount completed" true
    (failed + timeouts <= completed);
  Engine.shutdown ~drain:true engine;
  check_bool "ok + failed + timeouts = completed" true
    (let _, completed, failed, timeouts = stats_counters engine in
     codes r = [ "internal"; "timeout" ]
     && completed = 2 && failed = 1 && timeouts = 1)

let suites =
  [ ( "server.json",
      [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "unicode" `Quick test_json_unicode;
        Alcotest.test_case "errors" `Quick test_json_errors;
        Alcotest.test_case "int overflow widens" `Quick
          test_json_int_overflow_widens;
        Alcotest.test_case "max depth" `Quick test_json_max_depth ] );
    ( "server.protocol",
      [ Alcotest.test_case "truncated line" `Quick
          test_protocol_truncated_line;
        Alcotest.test_case "oversized payload" `Quick
          test_protocol_oversized_payload;
        Alcotest.test_case "unknown method" `Quick
          test_protocol_unknown_method;
        Alcotest.test_case "bad hypergraph ids" `Quick
          test_protocol_bad_hypergraph_ids;
        Alcotest.test_case "graph self-loop" `Quick
          test_protocol_graph_self_loop;
        Alcotest.test_case "bad params" `Quick test_protocol_bad_params;
        Alcotest.test_case "solver registry decodes" `Quick
          test_protocol_registry_decodes;
        Alcotest.test_case "k past the triple limit" `Quick
          test_protocol_k_past_triple_limit ] );
    ( "server.engine",
      [ Alcotest.test_case "full queue blocks" `Quick
          test_engine_full_queue_blocks;
        Alcotest.test_case "drain wakes blocked" `Quick
          test_engine_drain_wakes_blocked;
        Alcotest.test_case "abort wakes blocked" `Quick
          test_engine_abort_wakes_blocked;
        Alcotest.test_case "timeout cancels" `Quick
          test_engine_timeout_cancels;
        Alcotest.test_case "queue-expired skips handler" `Quick
          test_engine_queue_expired_job_skips_handler;
        Alcotest.test_case "drain answers everything" `Quick
          test_engine_drain_answers_everything;
        Alcotest.test_case "abort cancels in flight" `Quick
          test_engine_abort_cancels_in_flight;
        Alcotest.test_case "handler exception -> internal" `Quick
          test_engine_handler_exception_is_internal;
        Alcotest.test_case "failed/timeouts disjoint" `Quick
          test_stats_failed_timeouts_disjoint ] );
    ( "server.accept",
      [ Alcotest.test_case "retries transient errors" `Quick
          test_accept_retrying_eintr;
        Alcotest.test_case "stop between retries" `Quick
          test_accept_retrying_stop_between_retries;
        Alcotest.test_case "ebadf and fatal errors" `Quick
          test_accept_retrying_ebadf_and_fatal;
        Alcotest.test_case "survives signal storm" `Quick
          test_accept_loop_survives_signal_storm;
        Alcotest.test_case "restarts on unclassified errors" `Quick
          test_accept_loop_restarts ] );
    ( "server.transport",
      [ Alcotest.test_case "survives malformed batch" `Quick
          test_server_survives_malformed_batch;
        Alcotest.test_case "stats roundtrip" `Quick
          test_server_stats_roundtrip;
        Alcotest.test_case "reduce roundtrip certified" `Quick
          test_server_reduce_roundtrip_certified;
        Alcotest.test_case "connections release their fds" `Quick
          test_connections_release_fds ] );
    ( "server.parallel",
      [ Alcotest.test_case "fork_join propagates exception" `Quick
          test_fork_join_propagates_exception;
        Alcotest.test_case "fork_join first failure wins" `Quick
          test_fork_join_first_failure_wins;
        Alcotest.test_case "staged stage ordering" `Quick
          test_fork_join_staged_stage_ordering;
        Alcotest.test_case "staged = two fork_joins" `Quick
          test_fork_join_staged_matches_two_fork_joins;
        Alcotest.test_case "staged abort on failure" `Quick
          test_fork_join_staged_abort_on_failure ] );
    ( "server.service",
      [ Alcotest.test_case "ping and stats" `Quick test_service_ping_stats;
        Alcotest.test_case "mis all algorithms" `Quick
          test_service_mis_all_algorithms;
        Alcotest.test_case "decompose" `Quick test_service_decompose;
        Alcotest.test_case "reduce and certify" `Quick
          test_service_reduce_and_certify;
        Alcotest.test_case "check multicoloring" `Quick
          test_service_check_multicoloring;
        Alcotest.test_case "check graph sets" `Quick
          test_service_check_graph_sets;
        Alcotest.test_case "check wire parse" `Quick
          test_service_check_wire_parse ] );
    ( "server.rng",
      [ Alcotest.test_case "streams deterministic" `Quick
          test_rng_streams_deterministic;
        Alcotest.test_case "streams independent" `Quick
          test_rng_streams_independent;
        Alcotest.test_case "streams validation" `Quick
          test_rng_streams_validation ] ) ]
