(** Fork-join data parallelism over OCaml 5 domains.

    Designed for deterministic bulk work split into disjoint contiguous
    index ranges — each worker writes its own slice of a pre-sized array,
    so results are bit-identical for every domain count.  There is no
    pool: every call spawns [domains - 1] fresh domains and joins them
    before returning, which is the right trade-off for the coarse-grained
    passes used here (a spawn costs microseconds). *)

val available : unit -> int
(** [Domain.recommended_domain_count ()] — a sensible upper bound for
    the [domains] arguments below. *)

val auto_units_per_domain : int
(** The calibration constant behind every [?domains:0] auto heuristic in
    the repository: one extra domain is justified per this many units of
    bulk work (a conflict-graph triple, a CSR row).  Measured against
    the sharded-cursor scheduler when a unit cost about a microsecond: a
    Domain.spawn/join round trip costs a few hundred microseconds, and
    the constant kept spawn/join under ~10% of a marginal domain's work.
    A conflict-graph triple now costs about half a microsecond; the
    constant has not been recalibrated for that. *)

val effective_domains : requested:int -> units:int -> slices:int -> int
(** Resolve a caller's [?domains] request into the count actually used,
    with one clamping rule for the whole repository: [requested = 0]
    picks [units / auto_units_per_domain] domains (at least 1, at most
    {!available}); any explicit request is honored as given.  Either way
    the result is clamped to [\[1, max slices 1\]] — [slices] is the
    number of schedulable work items, so no spawned domain can be left
    without a slice. *)

(** Per-domain sharded cursors with work stealing — the dynamic
    scheduler for data-parallel loops whose iterations vary wildly in
    cost (CSR rows, conflict-graph slots).  The index range is split
    into one contiguous shard per domain, each drained through its own
    atomic cursor; a domain whose shard is exhausted steals chunks from
    the other shards' cursors.  Unlike the single shared cursor this
    replaces, chunk claims are uncontended (no cross-core cache-line
    bouncing) until the tail of the range.  Any (domain, chunk)
    assignment yields the same results for disjoint-write loops, so
    schedules remain bit-reproducibility-safe. *)
module Sharded_cursor : sig
  type t

  val create : domains:int -> ?chunk:int -> lo:int -> hi:int -> unit -> t
  (** Split [\[lo, hi)] into [domains] balanced shards.  [chunk] is the
      claim granularity (default: [max 32 ((hi-lo)/(domains*16))]).
      Raises [Invalid_argument] if [domains < 1], [chunk < 1] or
      [hi < lo]. *)

  val next : t -> int -> (int * int) option
  (** [next t d] claims the next chunk for domain [d] as a [(lo, hi)]
      half-open range — from [d]'s own shard while it lasts, then by
      stealing — or [None] when every shard is drained. *)

  val drain : t -> int -> (int -> unit) -> unit
  (** [drain t d work] runs [work i] for every index of every chunk
      domain [d] claims, until {!next} returns [None]. *)
end

val fork_join : domains:int -> (int -> unit) -> unit
(** [fork_join ~domains f] runs [f 0 .. f (domains-1)], with [f 0] on the
    calling domain and the rest on freshly spawned domains, and returns
    once all have finished.  [domains <= 1] degrades to plain [f 0] with
    no spawning.

    {b Failure semantics.}  A raising worker never deadlocks or leaks the
    others: every spawned domain is joined unconditionally before the
    call returns.  If one or more [f d] raise, the exception of the
    lowest-indexed failing worker (the caller's own chunk 0 first) is
    re-raised with its original backtrace after all domains have been
    joined; the remaining exceptions are dropped. *)

val fork_join_staged :
  domains:int ->
  stage1:(int -> unit) ->
  mid:(unit -> unit) ->
  stage2:(int -> unit) ->
  unit
(** Two data-parallel stages separated by a sequential step, on a {e
    single} set of spawned domains: every domain runs [stage1 d], all
    meet at a barrier, domain 0 alone runs [mid ()], and after a second
    barrier every domain runs [stage2 d].  Functionally equivalent to
    two consecutive {!fork_join} calls with [mid] between them, but pays
    the domain spawn/join cost once instead of twice — this is what
    makes parallel two-pass CSR construction worthwhile at moderate
    sizes, where a second round of spawns used to eat the entire win.
    [domains <= 1] degrades to [stage1 0; mid (); stage2 0] with no
    spawning and no synchronization.

    {b Failure semantics.}  As {!fork_join}: every domain is joined
    before the call returns and the lowest-indexed failure is re-raised
    with its backtrace.  A raising stage never strands a sibling at a
    barrier — the first failure aborts the remaining stages (including
    [mid]) on every domain, while all domains still arrive at both
    barriers. *)

val range : pieces:int -> lo:int -> hi:int -> int -> int * int
(** [range ~pieces ~lo ~hi i] is the [i]-th of [pieces] balanced
    contiguous subranges of [\[lo, hi)], as a [(start, stop)] pair with
    [stop] exclusive.  The subranges partition [\[lo, hi)] and differ in
    length by at most one. *)

val parallel_for : domains:int -> lo:int -> hi:int -> (int -> unit) -> unit
(** [parallel_for ~domains ~lo ~hi f] calls [f i] for every
    [lo <= i < hi], split across up to [domains] domains in contiguous
    chunks ([range] above).  The effective domain count is clamped to the
    iteration count; [domains <= 1] runs sequentially in order. *)
