(** Graph generators for the experiment workloads.

    Every randomized generator takes an explicit {!Ps_util.Rng.t} so runs
    are reproducible.  Families follow the workloads the LOCAL-model
    literature evaluates on: sparse random graphs, bounded-degree lattices
    and rings (where locality lower bounds live), trees, and geometric
    interval graphs (the [DN18] substrate). *)

val ring : int -> Graph.t
(** Cycle [C_n]; requires [n >= 3]. *)

val path : int -> Graph.t
(** Path [P_n]. *)

val complete : int -> Graph.t
(** Clique [K_n]. *)

val complete_bipartite : int -> int -> Graph.t
(** [K_{a,b}], left part [0..a-1], right part [a..a+b-1]. *)

val star : int -> Graph.t
(** Star with center [0] and [n-1] leaves. *)

val grid : int -> int -> Graph.t
(** [grid rows cols]: 4-neighbor lattice, vertex [(r,c)] is [r*cols + c]. *)

val balanced_tree : int -> int -> Graph.t
(** [balanced_tree arity depth]: complete [arity]-ary tree; depth 0 is a
    single root. *)

val gnp : Ps_util.Rng.t -> int -> float -> Graph.t
(** Erdős–Rényi [G(n,p)] via geometric skipping, O(n + m) expected. *)

val iter_gnp : Ps_util.Rng.t -> int -> float -> (int -> int -> unit) -> unit
(** The edge stream behind {!gnp}, delivered to a callback instead of a
    list — each distinct edge exactly once, nothing materialized, for
    piping 10^7–10^8-edge instances straight into
    {!Gio.write_edges_file} or a CSR builder.  Draws the same RNG
    sequence as {!gnp}, so a seed reproduces the same graph on either
    path. *)

val huge_gnp : Ps_util.Rng.t -> int -> float -> Graph.t
(** {!iter_gnp} collected through {!Graph.of_unnormalized_pairs}: no
    edge list, no hashing — peak memory is one int32 endpoint buffer
    ({!Graph.Pairs}, sized for the expected edge count plus six standard
    deviations) plus the CSR.  Same distribution as {!gnp}; vertex
    ids and edge set coincide for the same seed. *)

val iter_rmat :
  Ps_util.Rng.t -> scale:int -> edges:int -> (int -> int -> unit) -> unit
(** R-MAT recursive-quadrant sampler (a=0.57, b=c=0.19, d=0.05) on
    [2^scale] vertices: the skewed power-law workload at bench scale.
    Emits exactly [edges] pairs (self-loops are resampled); duplicates
    are {e not} removed — every consumer collapses them. *)

val rmat : Ps_util.Rng.t -> scale:int -> edges:int -> Graph.t
(** {!iter_rmat} collected through {!Graph.of_unnormalized_pairs}
    (duplicates collapse there, so the result can have fewer than
    [edges] edges).  The endpoint buffer is sized for [edges] pairs, and
    the settled rows are written back into it: peak memory is that
    buffer and one int32 store. *)

val gnm : Ps_util.Rng.t -> int -> int -> Graph.t
(** Uniform graph with exactly [m] distinct edges; [m] must not exceed
    [n(n-1)/2]. *)

val random_regular_ish : Ps_util.Rng.t -> int -> int -> Graph.t
(** Degree-capped random graph: repeated random matching of free stubs,
    giving maximum degree [d] and most vertices of degree exactly [d]
    (exact regularity is not guaranteed — collisions discard stubs). *)

val random_tree : Ps_util.Rng.t -> int -> Graph.t
(** Uniform labeled tree via a random Prüfer sequence. *)

val unit_interval : Ps_util.Rng.t -> int -> float -> Graph.t
(** [unit_interval rng n len]: drop [n] unit intervals with left endpoints
    uniform in [\[0, len\]]; vertices adjacent iff intervals intersect.
    Returned vertex order is sorted by left endpoint. *)

val power_law : Ps_util.Rng.t -> int -> float -> Graph.t
(** Preferential-attachment-flavored graph: vertex [i] attaches to
    [max 1 (round (exponent))]... — concretely, a Barabási–Albert process
    with [m0 = 2] seeds and per-step attachment count drawn so the tail
    exponent is roughly the given value; used only as a skewed-degree
    workload, no exact guarantee. *)

val disjoint_cliques : int -> int -> Graph.t
(** [disjoint_cliques count size]: [count] disjoint cliques of the given
    size — a graph whose MaxIS is exactly [count], handy for calibrating
    approximation ratios. *)

val hypercube : int -> Graph.t
(** [hypercube d]: the d-dimensional cube [Q_d] on [2^d] vertices —
    vertex [i] adjacent to [i lxor (1 lsl b)].  Bipartite, d-regular,
    diameter d; a staple LOCAL-model benchmark topology. *)

val petersen : unit -> Graph.t
(** The Petersen graph: 10 vertices, 15 edges, 3-regular; α = 4, χ = 3,
    γ = 3, perfect matchings exist — a ground-truth fixture for the
    exact solvers.  Vertices 0-4 are the outer cycle, 5-9 the inner
    pentagram ([i ~ i+5], inner [i ~ i+2 mod 5]). *)

val kneser_petersen_family : int -> Graph.t
(** [kneser_petersen_family n] is the Kneser graph K(n, 2) for [n >= 5]:
    vertices are 2-element subsets of [{0..n-1}], adjacent iff disjoint.
    [K(5,2)] is the Petersen graph; α = n-1 (star of pairs through one
    element), χ = n - 2 (Lovász). *)

val wheel : int -> Graph.t
(** [wheel n]: a hub (vertex 0) joined to an [n]-cycle (vertices 1..n);
    χ = 4 for odd cycles, 3 for even; γ = 1.  Requires [n >= 3]. *)

val crown : int -> Graph.t
(** [crown n]: [K_{n,n}] minus a perfect matching — left vertices
    [0..n-1], right vertices [n..2n-1], [i ~ n+j] iff [i ≠ j].  The
    classic witness that greedy coloring is order-fragile: a side-by-side
    order uses 2 colors, the paired order [0, n, 1, n+1, ...] uses [n] —
    exactly the "arbitrary order" adversary the SLOCAL model grants.
    Requires [n >= 2]. *)
