(** Deterministic, splittable pseudo-random number generator.

    The whole repository routes randomness through this module so every
    experiment, test and benchmark is reproducible from a single integer
    seed.  The core generator is SplitMix64 (Steele, Lea & Flood, OOPSLA
    2014): a 64-bit state advanced by a Weyl sequence and finalized with a
    variant of the MurmurHash3 mixer.  It is fast, passes BigCrush when
    used as here, and — crucially for simulating distributed algorithms —
    supports {e splitting}: deriving independent child generators, e.g. one
    per node of a network, without sharing mutable state.

    {b State and allocation.}  A generator is its 64-bit Weyl counter,
    held in 8 bytes and read and written with the unboxed 64-bit bytes
    primitives, so no draw boxes an [int64].  {!int}, {!int_in},
    {!bits53}, {!bool}, {!bernoulli}, {!geometric} and {!choice}
    allocate nothing, nor does {!shuffle_in_place} on an array that is
    not a float array, and {!permutation} allocates only the array it
    returns.  {!bits64} and
    {!float} return a boxed value to a caller in another compilation
    unit: under dune's dev profile every cross-library call is opaque,
    so the boxing cannot be inlined away.  Hot callers in other modules
    therefore take int draws — {!bits53} compared against integer
    thresholds instead of [float t 1.0] against floats, as
    [Ps_graph.Gen.iter_rmat] does, or {!bits53} scaled by [2^-53] (and
    by the bound) in the caller, which is exactly {!float}'s value, as
    [Ps_slocal.Mpx.decompose] and [Ps_graph.Gen.unit_interval] do.  The
    streams themselves are fixed: a test pins the first 64 outputs of
    every draw, for several seeds. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed.  Equal
    seeds yield equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will replay [t]'s future. *)

val split : t -> t
(** [split t] advances [t] and returns a child generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val split_at : t -> int -> t
(** [split_at t i] derives the [i]-th child deterministically {e without}
    advancing [t]; used to give node [i] of a network its own stream. *)

val streams : t -> int -> t array
(** [streams t n] is [n] fresh generators, the [i]-th equal to
    [split_at t i], derived without advancing [t].

    {b Per-domain contract.}  This is the constructor for giving each
    worker of a domain pool its own randomness: the children are
    deterministic functions of [t]'s current state and the index alone
    (same parent state ⇒ same array, independent of domain scheduling),
    their streams are statistically independent of each other and of
    [t]'s own subsequent output (distinct indices select distinct points
    of a second Weyl sequence, then pass through the full SplitMix64
    finalizer — no two children, and no child/parent pair, share state
    trajectories), and each child is a private, unshared [t]: handing
    child [i] to domain [i] requires no locking.  [t] itself must not be
    used concurrently with the derivation, so derive the array before
    spawning. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val bits53 : t -> int
(** [bits53 t] is the top 53 bits of the next {!bits64} output, a
    uniform int in [\[0, 2^53)], and draws exactly that output.
    [float t 1.0] is the same 53-bit integer times [2^-53], so
    [float t 1.0 < x] decides as [bits53 t < ceil (x *. 2^53)] does,
    for any [x] in [\[0, 1\]]: the integer form of a threshold test
    that allocates nothing. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive.
    Uses rejection sampling, so the result is exactly uniform. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val geometric : t -> float -> int
(** [geometric t p] counts Bernoulli([p]) failures before the first
    success; [p] must be in (0, 1]. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform random permutation of [0..n-1]. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct values from
    [0..n-1], in random order.  Requires [0 <= k <= n]. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
