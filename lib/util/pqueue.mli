(** Mutable min-priority queue over integer keys with integer priorities,
    supporting {e decrease-key} and {e increase-key} — the operations the
    min-degree greedy MaxIS heuristic needs as vertices lose neighbors.

    Implemented as a 4-ary heap of packed entries
    [priority lsl 31 lor key], with a position index: one int compare
    orders two entries by (priority, key), with no per-key priority
    lookup.  [insert], [update] and [remove] are O(log n) sifts, [pop_min]
    is O(4 log₄ n) compares, and membership is O(1).  Keys are drawn from a
    dense universe [0 .. capacity-1].

    {b Packed range.} Keys take 31 bits and priorities 32:
    capacity is at most {!max_capacity} (2{^31}), and every priority lies
    in [[min_priority, max_priority]] (the int32 range).  {!create} above
    that capacity, and [insert] or [update] with a priority outside that
    range, raise [Invalid_argument] and leave the queue unchanged.

    {b Fixed capacity.} The capacity chosen at {!create} time is final:
    the backing arrays never grow, and every operation that takes a key
    raises [Invalid_argument] — naming the offending key and the
    capacity — when the key is outside [0 .. capacity-1]. Size the queue
    for the full key universe up front. *)

type t

val max_capacity : int
(** 2{^31}: the largest capacity a queue can have. *)

val min_priority : int
(** -2{^31}: the smallest priority a queue accepts. *)

val max_priority : int
(** 2{^31} - 1: the largest priority a queue accepts. *)

val create : int -> t
(** [create n] is an empty queue for keys in [0..n-1]. The capacity [n]
    is fixed for the lifetime of the queue. Raises [Invalid_argument] if
    [n < 0] or [n > max_capacity]. *)

val is_empty : t -> bool
val cardinal : t -> int

val capacity : t -> int
(** The fixed key-universe size chosen at {!create} time. *)

val mem : t -> int -> bool
(** [mem q key] is whether [key] is currently in the queue. Raises
    [Invalid_argument] if [key] is outside [0 .. capacity-1]. *)

val insert : t -> int -> int -> unit
(** [insert q key prio]; raises [Invalid_argument] if [key] is present
    or [prio] is outside [[min_priority, max_priority]]. *)

val priority : t -> int -> int
(** Current priority of a present key; raises [Not_found] otherwise. *)

val update : t -> int -> int -> unit
(** [update q key prio] changes the priority of a present key (either
    direction).  Raises [Not_found] if [key] is absent and
    [Invalid_argument] if [prio] is outside the packed range. *)

val shift : t -> int -> int -> unit
(** [shift q key delta] is [update q key (priority q key + delta)] with
    one lookup — the greedy's per-step degree change.  Same exceptions
    as {!update}. *)

val remove : t -> int -> unit
(** Remove a present key. *)

val pop_min : t -> int * int
(** Remove and return [(key, priority)] with minimal priority, ties broken
    by smaller key. Raises [Not_found] when empty. *)

val pop_min_key : t -> int
(** [fst (pop_min q)], without building the pair. *)

val peek_min : t -> int * int
