(** The tier's observability endpoint: Prometheus text format over a
    Unix-socket HTTP listener, aggregated across shards.

    The collector owns no state of its own — on each scrape it fetches
    every shard's [stats] response over the ordinary solve protocol
    ({!fetch_stats}; whichever codec the shards speak), merges in the
    supervisor's liveness/restart bookkeeping and the router's
    connection counters, and renders one text exposition:

    - per-shard engine series ([pslocal_completed_total{shard="2"}],
      queue/inflight/throughput gauges, latency quantiles) plus
      [pslocal_cluster_*_total] sums,
    - shard-tier quota series (admissions, rejections, tenants) from
      the [shard] stats block,
    - [pslocal_shard_up] / [pslocal_shard_restarts_total] /
      [pslocal_shard_pid] / [pslocal_shard_scrape_ok] health series,
    - cache and router counters when present.

    A shard that cannot be scraped (mid-restart) degrades to
    [scrape_ok 0] — the exposition never fails wholesale.

    Scrape with [curl --unix-socket <path> http://localhost/metrics]. *)

val fetch_stats :
  framing:Frame.framing ->
  path:string ->
  (Ps_server.Json.t, string) result
(** One [stats] request to a shard socket: connect, send, read the
    response, return its [result] object.  2 s receive timeout.  Total:
    every failure — down to fd exhaustion at [socket] — is an [Error],
    never an exception. *)

val render :
  children:Supervisor.child_info list ->
  shard_stats:(int * (Ps_server.Json.t, string) result) list ->
  router:Router.stats option ->
  string
(** Pure exposition rendering from already-collected inputs (unit
    tested without sockets). *)

val serve_http :
  listen_fd:Unix.file_descr ->
  body:(unit -> string) ->
  should_stop:(unit -> bool) ->
  unit
(** Answer [GET /metrics] (or [/]) on an already-listening socket with
    [body ()] until [should_stop]; unknown paths get 404, other methods
    405.  Serial, connection-per-request.  The caller binds the socket
    — on its main thread, so a bad metrics path fails startup instead
    of killing a background thread — and closes/unlinks it after this
    returns.  Unclassified accept errors restart the loop after a
    short back-off (counted as [metrics.acceptor_restart]). *)

(**/**)

val http_response : status:string -> body:string -> string
