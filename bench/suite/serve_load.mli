(** The [serve-zipf] workload: [pslocal serve --socket S] at its shipped
    defaults (single process, in-memory cache, default domains), driven
    over one pipelined connection by one load-generating process with
    two threads (sender and reply reader).

    The request stream is drawn from the seed before anything is timed:
    [reduce] requests without [k], solver greedy, 70% on a 32-instance
    pool drawn zipf(1) and 30% on instances never sent before.  Each
    set-up starts a server and sends it the pool once; each server then
    runs a closed-loop segment that keeps a fixed window of requests in
    flight and measures its throughput on the mix.  The last server then
    runs an open-loop rate ladder, each request timed from the moment it
    was due.

    A traced run ([~spans]) then replays the nominal rung twice through
    an in-process {!Ps_server.Engine} configured as [pslocal serve]
    configures it: once untouched, once with [Protocol.parse_request],
    [Engine.submit], the handler ({!Ps_server.Service.handle_cached})
    and the renderer ({!Ps_server.Protocol.response_to_line}) timed from
    outside. *)

type params = {
  ladder : (int * float) list;
      (** open-loop rungs: rate in requests/s and the share of the run's
          seconds spent at that rate *)
  nominal_rps : int;  (** the rung whose latency is reported *)
  closed_share : float;  (** share of the run spent in the closed loop *)
  setups : int;
      (** set-ups (servers) per run; [setup_s] and [ops_per_s] are
          medians over them *)
  dir : string;  (** directory for the server's socket *)
}

val run :
  params -> seed:int -> seconds:float -> spans:Spans.t option -> Measure.outcome
(** One run.  The metrics are [setup_s], [ops_per_s] (closed loop),
    [peak_rss_mb] (the last server's VmHWM), the nominal rung's latency
    percentiles (from due time) and generator lag, [loadgen.rps_at_slo]
    and [engine.shed]; a traced run adds the serve per-layer metrics and
    [trace.coverage]/[trace.overhead_frac]. *)

val check_reply :
  first:(int -> Ps_server.Json.t option) -> string -> int * (Ps_server.Json.t, string) result
(** Classify one reply line.  [Ok result] needs [ok:true], a
    [result.certified] of [true] and, when [first id] is [Some r] (a
    repeated pool instance), [result] equal to [r].  A shed reply is
    [Error "overloaded"].  The id is [-1] when the line carries none. *)
