(** Per-tenant token-bucket admission, layered {e in front of} the
    engine's bounded queue.

    The engine's bounded queue protects the process from aggregate
    overload but cannot stop one tenant from starving the rest: a single
    client pushing requests as fast as the socket carries them fills the
    queue, and every other tenant's requests wait behind it.  This
    bucket is the only [overloaded] answer in the tier, and the
    fairness layer: each tenant ([params.tenant]; absent means the
    shared anonymous bucket) accumulates [rate] tokens per second up to
    [burst], one request costs one token, and an empty bucket rejects
    {e before} the request touches the queue — so a flooding tenant is
    clipped to its rate while the queue stays available for everyone
    else.  Thread-safe; one instance per shard process. *)

type t

type stats = {
  admitted : int;  (** requests that consumed a token *)
  rejected : int;  (** requests clipped with an empty bucket *)
  tenants : int;   (** distinct buckets (anonymous counts as one) *)
}

val create : rate:float -> burst:float -> t
(** [rate] tokens/second refill, capacity (and initial fill) [burst].
    Raises [Invalid_argument] unless [rate > 0] and [burst >= 1]. *)

val admit : ?now_ns:int64 -> t -> tenant:string -> bool
(** Spend one token from [tenant]'s bucket if it has one.  [now_ns]
    overrides the monotonic clock — tests drive refill deterministically
    by hand-feeding timestamps; production callers omit it. *)

val stats : t -> stats
