(** Measurement plumbing shared by the suite's workloads: the clock, op
    accounting, percentiles, repeated set-up, timed rounds and memory
    high-water marks. *)

val now : unit -> int64
(** {!Ps_util.Telemetry.now_ns}: monotonic nanoseconds. *)

val secs : int64 -> int64 -> float
(** [secs t0 t1] is [t1 - t0] in seconds. *)

val ms : int64 -> int64 -> float
(** [ms t0 t1] is [t1 - t0] in milliseconds. *)

type tally = { mutable attempted : int; mutable failed : int }
(** Ops attempted and ops whose output failed its check or raised. *)

val tally : unit -> tally

val attempt : tally -> (unit -> 'a) -> 'a option
(** Count one op and run it.  A raising op counts as failed (the
    exception goes to stderr) and yields [None]; it is never timed as a
    success. *)

type outcome = { ops : tally; metrics : (string * float) list }
(** What a workload run reports: its op accounting and every metric it
    measured, by name. *)

val percentile : float array -> float -> float
(** [percentile samples q], [q] in [0,1]: nearest rank over a sorted
    copy; [0.] when there are no samples. *)

val median : float array -> float

val mean : float array -> float
(** [0.] when there are no samples. *)

val setup : reps:int -> (unit -> 'a) -> dispose:('a -> unit) -> 'a * float
(** Run the set-up [reps] times, disposing of all but the last, and
    return the last with the median set-up time in seconds. *)

val rounds : min_rounds:int -> seconds:float -> (unit -> int) -> float array
(** Closed loop: run [round] (which returns the ops it completed) until
    [seconds] have passed and at least [min_rounds] rounds ran; return
    each round's ops per second. *)

val peak_rss_mb : int -> float
(** VmHWM of process [pid] from [/proc/<pid>/status], in MB. *)
