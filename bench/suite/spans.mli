(** In-memory spans for the suite's traced pass.

    The benchmark times each layer from outside, around calls into the
    layer's public functions; this module holds those intervals.  A
    span is [{op; id; parent; name; start_ns; end_ns}] on the
    {!Ps_util.Telemetry.now_ns} clock.  Each op has one root span named
    {!root} ([parent = -1]) covering the whole op; every other span
    names its parent by id.  Recording takes a mutex, so worker domains
    may record too.  Nothing is written until {!write_jsonl}. *)

type span = {
  op : int;
  id : int;
  parent : int;  (** [-1] for an op's root span *)
  name : string;
  start_ns : int64;
  end_ns : int64;
}

type t

val root : string
(** ["op"] — the name of every op's root span. *)

val create : unit -> t

val fresh_id : t -> int
(** Reserve an id, for a span whose children finish before it does. *)

val add :
  t -> ?id:int -> op:int -> parent:int -> string -> int64 -> int64 -> unit
(** [add t ~op ~parent name start_ns end_ns] records a finished span
    (under [id] when it was reserved with {!fresh_id}). *)

val time : t -> op:int -> parent:int -> string -> (int -> 'a) -> 'a
(** [time t ~op ~parent name f] runs [f id] inside a span named [name]
    and returns its result; [id] is the span's own id, for children.
    A raising [f] records nothing. *)

val ops : t -> int
(** Number of root spans. *)

val mean_self_ms : t -> string -> float
(** Total self time of the spans named [name], per op, in ms.  A span's
    self time is its duration minus its children's durations.  [0.] for
    a name never recorded. *)

val durations_ms : t -> string -> float array
(** Durations of the spans named [name], sorted ascending. *)

val coverage : t -> float
(** Σ self time of all non-root spans / Σ root durations: the share of
    op wall time the layer spans account for. *)

val write_jsonl : t -> workload:string -> string -> unit
(** One JSON object per span, in start order:
    [{"workload","op","id","parent","name","start_ns","end_ns"}]. *)
