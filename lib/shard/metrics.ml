module Json = Ps_server.Json
module Server = Ps_server.Server

(* ------------------------------------------------------------------ *)
(* Scraping one shard over its own protocol *)

let rec send_all fd bytes off len =
  if len > 0 then
    match Unix.write fd bytes off len with
    | n -> send_all fd bytes (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> send_all fd bytes off len

let fetch_stats_exn ~framing ~path =
  let s = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close s with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect s (Unix.ADDR_UNIX path) with
      | exception Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "connect %s: %s" path (Unix.error_message e))
      | () -> (
          Unix.setsockopt_float s Unix.SO_RCVTIMEO 2.0;
          let req =
            Json.Obj [ ("id", Json.Int 0); ("method", Json.Str "stats") ]
          in
          let wire = Frame.encode_message framing req in
          match
            send_all s (Bytes.unsafe_of_string wire) 0 (String.length wire)
          with
          | exception Unix.Unix_error (e, _, _) ->
              Error (Printf.sprintf "send: %s" (Unix.error_message e))
          | () -> (
              let ic = Unix.in_channel_of_descr s in
              match
                Frame.read_message ic ~framing
                  ~max_bytes:Ps_server.Protocol.default_max_bytes
              with
              | exception Unix.Unix_error (e, _, _) ->
                  Error (Printf.sprintf "recv: %s" (Unix.error_message e))
              | None -> Error "EOF before stats response"
              | Some (Error msg) -> Error msg
              | Some (Ok resp) -> (
                  match Json.member "result" resp with
                  | Some r -> Ok r
                  | None -> Error "stats response carries no result"))))

(* Total on any failure: a scrape error is a value, never an exception
   — the metrics thread must survive a shard mid-restart, fd
   exhaustion at [socket], or a codec bug in the response. *)
let fetch_stats ~framing ~path =
  try fetch_stats_exn ~framing ~path with
  | Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exn -> Error (Printexc.to_string exn)

(* ------------------------------------------------------------------ *)
(* Prometheus text rendering *)

(* Engine stats fields exported per shard.  Names follow the stats-JSON
   wire contract; the split drives the TYPE line. *)
let counter_fields =
  [
    "accepted";
    "rejected";
    "invalid_lines";
    "completed";
    "failed";
    "timeouts";
    "reply_failures";
  ]

let gauge_fields = [ "queue_depth"; "inflight"; "throughput_rps"; "uptime_s" ]

let shard_counter_fields =
  [
    ("batches", "batch_dispatches_total");
    ("batched_requests", "batch_requests_total");
    ("quota_admitted", "quota_admitted_total");
    ("quota_rejected", "quota_rejected_total");
  ]

let shard_gauge_fields =
  [ ("max_batch", "batch_max_size"); ("quota_tenants", "quota_tenants") ]

let num = function
  | Json.Int n -> Some (float_of_int n)
  | Json.Float f -> Some f
  | _ -> None

let field_num name j = Option.bind (Json.member name j) num

let add_value buf v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" v)
  else Buffer.add_string buf (Printf.sprintf "%.9g" v)

let series buf name labels v =
  Buffer.add_string buf name;
  (match labels with
  | [] -> ()
  | _ :: _ ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, value) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Printf.sprintf "%s=%S" k value))
        labels;
      Buffer.add_char buf '}');
  Buffer.add_char buf ' ';
  add_value buf v;
  Buffer.add_char buf '\n'

let header buf name kind help =
  Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)

let shard_label i = [ ("shard", string_of_int i) ]

let render ~children ~shard_stats ~router =
  let buf = Buffer.create 8192 in
  let ok_stats =
    List.filter_map
      (fun (i, r) -> match r with Ok j -> Some (i, j) | Error _ -> None)
      shard_stats
  in
  (* Supervisor: liveness, restarts, pids. *)
  header buf "pslocal_shards" "gauge" "configured shard count";
  series buf "pslocal_shards" [] (float_of_int (List.length children));
  header buf "pslocal_shard_up" "gauge" "1 if the shard process is running";
  List.iter
    (fun c ->
      series buf "pslocal_shard_up"
        (shard_label c.Supervisor.c_index)
        (if c.Supervisor.c_up then 1.0 else 0.0))
    children;
  header buf "pslocal_shard_restarts_total" "counter"
    "times the supervisor respawned this shard";
  List.iter
    (fun c ->
      series buf "pslocal_shard_restarts_total"
        (shard_label c.Supervisor.c_index)
        (float_of_int c.Supervisor.c_restarts))
    children;
  header buf "pslocal_shard_pid" "gauge" "current pid of the shard process";
  List.iter
    (fun c ->
      series buf "pslocal_shard_pid"
        (shard_label c.Supervisor.c_index)
        (float_of_int c.Supervisor.c_pid))
    children;
  header buf "pslocal_shard_scrape_ok" "gauge"
    "1 if the last stats scrape of this shard succeeded";
  List.iter
    (fun (i, r) ->
      series buf "pslocal_shard_scrape_ok" (shard_label i)
        (match r with Ok _ -> 1.0 | Error _ -> 0.0))
    shard_stats;
  (* Engine counters and gauges, per shard + cluster sums. *)
  List.iter
    (fun name ->
      let metric = Printf.sprintf "pslocal_%s_total" name in
      header buf metric "counter"
        (Printf.sprintf "engine %s count for one shard" name);
      List.iter
        (fun (i, j) ->
          match field_num name j with
          | Some v -> series buf metric (shard_label i) v
          | None -> ())
        ok_stats;
      let total =
        List.fold_left
          (fun acc (_, j) ->
            match field_num name j with Some v -> acc +. v | None -> acc)
          0.0 ok_stats
      in
      let cluster = Printf.sprintf "pslocal_cluster_%s_total" name in
      header buf cluster "counter"
        (Printf.sprintf "engine %s summed across shards" name);
      series buf cluster [] total)
    counter_fields;
  List.iter
    (fun name ->
      let metric = Printf.sprintf "pslocal_%s" name in
      header buf metric "gauge"
        (Printf.sprintf "engine %s for one shard" name);
      List.iter
        (fun (i, j) ->
          match field_num name j with
          | Some v -> series buf metric (shard_label i) v
          | None -> ())
        ok_stats)
    gauge_fields;
  (* Latency percentiles. *)
  header buf "pslocal_latency_ms" "gauge"
    "job latency percentiles over the engine's sliding window";
  List.iter
    (fun (i, j) ->
      match Json.member "latency_ms" j with
      | Some lat ->
          List.iter
            (fun q ->
              match field_num q lat with
              | Some v ->
                  series buf "pslocal_latency_ms"
                    (shard_label i @ [ ("quantile", q) ])
                    v
              | None -> ())
            [ "p50"; "p95"; "p99"; "max"; "mean" ]
      | None -> ())
    ok_stats;
  (* Shard-tier counters (batching, quota) from the injected block. *)
  let shard_block j = Json.member "shard" j in
  List.iter
    (fun (field, metric_suffix) ->
      let metric = "pslocal_" ^ metric_suffix in
      header buf metric "counter" ("shard tier " ^ field);
      List.iter
        (fun (i, j) ->
          match Option.bind (shard_block j) (field_num field) with
          | Some v -> series buf metric (shard_label i) v
          | None -> ())
        ok_stats)
    shard_counter_fields;
  List.iter
    (fun (field, metric_suffix) ->
      let metric = "pslocal_" ^ metric_suffix in
      header buf metric "gauge" ("shard tier " ^ field);
      List.iter
        (fun (i, j) ->
          match Option.bind (shard_block j) (field_num field) with
          | Some v -> series buf metric (shard_label i) v
          | None -> ())
        ok_stats)
    shard_gauge_fields;
  (* Cache counters, when the shards run one. *)
  let cache_block j = Json.member "cache" j in
  (match
     List.find_opt (fun (_, j) -> Option.is_some (cache_block j)) ok_stats
   with
  | None -> ()
  | Some _ ->
      List.iter
        (fun field ->
          let metric = Printf.sprintf "pslocal_cache_%s_total" field in
          header buf metric "counter" ("solved-instance cache " ^ field);
          List.iter
            (fun (i, j) ->
              match Option.bind (cache_block j) (field_num field) with
              | Some v -> series buf metric (shard_label i) v
              | None -> ())
            ok_stats)
        [ "hits"; "misses"; "stores"; "evictions"; "warm_hits"; "disk_hits" ]);
  (* Router. *)
  (match router with
  | None -> ()
  | Some r ->
      header buf "pslocal_router_connections_total" "counter"
        "connections accepted at the front socket";
      series buf "pslocal_router_connections_total" []
        (float_of_int r.Router.accepted);
      header buf "pslocal_router_active_connections" "gauge"
        "connections currently spliced to a shard";
      series buf "pslocal_router_active_connections" []
        (float_of_int r.Router.active);
      header buf "pslocal_router_failovers_total" "counter"
        "shard connect attempts that failed over";
      series buf "pslocal_router_failovers_total" []
        (float_of_int r.Router.failovers);
      header buf "pslocal_router_unrouted_total" "counter"
        "connections dropped with every shard refusing";
      series buf "pslocal_router_unrouted_total" []
        (float_of_int r.Router.unrouted));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The /metrics endpoint: minimal HTTP over a Unix socket *)

let http_response ~status ~body =
  Printf.sprintf
    "HTTP/1.1 %s\r\n\
     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    status (String.length body) body

let handle_http_connection fd ~body =
  let reqbuf = Bytes.create 4096 in
  (match Unix.read fd reqbuf 0 (Bytes.length reqbuf) with
  | exception Unix.Unix_error _ -> ()
  | 0 -> ()
  | n ->
      let head = Bytes.sub_string reqbuf 0 n in
      let target =
        match String.split_on_char ' ' head with
        | "GET" :: path :: _ -> Some path
        | _ -> None
      in
      let resp =
        match target with
        | Some ("/metrics" | "/") -> http_response ~status:"200 OK" ~body:(body ())
        | Some _ -> http_response ~status:"404 Not Found" ~body:"not found\n"
        | None ->
            http_response ~status:"405 Method Not Allowed" ~body:"GET only\n"
      in
      (try
         send_all fd (Bytes.unsafe_of_string resp) 0 (String.length resp)
       with Unix.Unix_error _ -> ()));
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Serial accept loop: a scraper hits this once per interval, and the
   render itself fans out to the shards, so concurrency buys nothing.

   The caller binds the socket (on its main thread, so a hijacked or
   unwritable metrics path fails startup loudly) and owns its
   close/unlink; this loop only accepts. *)
let serve_http ~listen_fd ~body ~should_stop =
  Server.accept_loop ~listen_fd ~should_stop
    ~restart_counter:"metrics.acceptor_restart" (fun fd ->
      handle_http_connection fd ~body)
