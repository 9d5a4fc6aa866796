(** Content-addressed solved-instance cache with a warm-start tier.

    Results are keyed by [(engine-version, request kind, content hash,
    requested k, solver name, seed)] — everything that determines the
    answer bit-for-bit, so a hit can be served verbatim in place of a
    fresh solve.  Two safety nets make the cache trustworthy rather
    than merely fast: every hit first compares the stored instance
    against the request with full structural equality (a 64-bit hash is
    not an identity proof), and solve hits are re-certified by the deep
    {!Ps_check} audit at a sampled rate — a failing audit drops the
    entry, bumps {!stats.poisoned}, and the caller falls through to a
    fresh solve.  Only results whose certificate passed are stored.

    The warm tier goes beyond memoization: a request over a known
    hypergraph at a known resolved [k] but a {e different} solver or
    seed reuses the cached phase-0 [G_k] CSR
    ({!Ps_core.Conflict_graph.Incremental.snapshot}), replacing the
    conflict-graph enumeration with array copies while producing
    bit-identical output.

    All operations are thread-safe (one internal mutex); deep audits
    run outside the lock. *)

val engine_version : string
(** Part of every key.  Bump whenever a change alters what a solver or
    the reduction computes for a given (instance, solver, seed, k) —
    persisted entries from older versions then never match again. *)

type kind = Solve | Mis | Decompose
(** Request families sharing the key space.  [Solve] covers both the
    [reduce] and [certify] server methods — they render the same
    {!Ps_core.Pipeline.result}. *)

type config = {
  budget_bytes : int;       (** result-tier byte budget *)
  warm_budget_bytes : int;  (** warm-tier (CSR snapshot) byte budget *)
  audit_rate : float;       (** probability in [0,1] that a solve hit is
                                deep-audited before being served *)
  audit_seed : int;         (** seed of the audit-sampling RNG *)
  dir : string option;      (** optional persistent tier: one
                                checksummed file per result entry *)
}

val default_config : config
(** 64 MiB results, 32 MiB warm snapshots, 5% audit rate, no disk. *)

type stats = {
  hits : int;          (** result-tier hits actually served *)
  misses : int;        (** result-tier misses (incl. failed equality) *)
  stores : int;
  evictions : int;     (** budget evictions, both tiers *)
  entries : int;       (** live result entries *)
  bytes : int;         (** result-tier bytes *)
  budget : int;
  audits : int;        (** sampled deep audits run *)
  poisoned : int;      (** entries dropped by a failing audit *)
  warm_hits : int;
  warm_entries : int;
  warm_bytes : int;
  disk_hits : int;     (** memory misses satisfied by the disk tier *)
}

type t

val create : ?config:config -> unit -> t
(** [Invalid_argument] if [audit_rate] is outside [0,1]. *)

val config : t -> config
val stats : t -> stats

val clear : t -> unit
(** Drop both in-memory tiers (the disk tier is untouched — see
    {!dir_clear}). *)

val hypergraph_hash : Ps_hypergraph.Hypergraph.t -> int64
(** Canonical content hash of a hypergraph (vertex count, then each
    edge's size and members in index order), same FNV-1a/avalanche
    construction as {!Ps_graph.Graph.content_hash}. *)

(** {2 Solve results} *)

val solve :
  t ->
  ?cancel:(unit -> bool) ->
  Ps_core.Solve_spec.t ->
  Ps_hypergraph.Hypergraph.t ->
  Ps_core.Pipeline.result
(** The cached counterpart of {!Ps_core.Pipeline.solve_unchecked} run
    with the spec's solver, presolve, {!Ps_core.Solve_spec.k_choice} and
    seed: serve a verified hit when possible, otherwise solve —
    warm-starting from the snapshot tier when (hash, resolved k) is
    known — then store the result (and the phase-0 snapshot) for the
    next request.  Bit-identical to the uncached call on every path.
    The key hashes the spec's {e effective} solver name
    ({!Ps_core.Solve_spec.solver_name}), so kernel-on and kernel-off
    entries never collide. *)

val find_solve :
  t ->
  Ps_core.Solve_spec.t ->
  Ps_hypergraph.Hypergraph.t ->
  Ps_core.Pipeline.result option
(** Lookup only (no solving): [Some] iff a stored result exists for
    this exact request, the stored hypergraph equals the argument, and
    the sampled audit (if drawn) passes.  Consults the in-memory tier
    and then the persistent tier, so it may read the disk. *)

val find_solve_mem :
  t ->
  Ps_core.Solve_spec.t ->
  Ps_hypergraph.Hypergraph.t ->
  Ps_core.Pipeline.result option
(** {!find_solve} restricted to the in-memory tier — a statically
    non-blocking lookup for callers on paths that must not stall, like
    the engine's submit prefix; a memory miss there is re-consulted
    disk-and-all from a worker. *)

val store_solve : t -> Ps_core.Solve_spec.t -> Ps_core.Pipeline.result -> unit
(** Store a finished solve under the key derived from its embedded
    hypergraph and the spec it was solved under.  Results whose
    certificate failed are ignored.  The semantic content is {e not}
    re-checked here — that is what the sampled audit on the read side
    is for (and what the poisoned-cache tests exploit). *)

(** {2 Opaque graph-request results (mis / decompose)} *)

val find_graph_result :
  t ->
  kind:kind ->
  solver_name:string ->
  seed:int ->
  Ps_graph.Graph.t ->
  string option
(** Serve the stored rendered payload iff the stored input graph equals
    the argument ({!Ps_graph.Graph.content_hash} keyed,
    {!Ps_graph.Graph.equal} verified).  Opaque payloads carry no
    certificate, so they are never audit-sampled — documented
    limitation of this tier.  May read the disk, as {!find_solve}. *)

val find_graph_result_mem :
  t ->
  kind:kind ->
  solver_name:string ->
  seed:int ->
  Ps_graph.Graph.t ->
  string option
(** {!find_graph_result} restricted to the in-memory tier, as
    {!find_solve_mem}. *)

val store_graph_result :
  t ->
  kind:kind ->
  solver_name:string ->
  seed:int ->
  Ps_graph.Graph.t ->
  string ->
  unit

(** {2 Persistent-tier inspection ([pslocal cache])} *)

val dir_stats : string -> int * int
(** [(entries, total file bytes)] of a cache directory (0, 0 when it
    does not exist). *)

val dir_list : string -> (string * int) list
(** [(key, payload bytes)] per entry file, corrupt files flagged. *)

val dir_clear : string -> int
(** Delete every entry file; returns how many were removed. *)
