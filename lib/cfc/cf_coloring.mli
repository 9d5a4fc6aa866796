(** Conflict-free colorings of hypergraphs.

    A (partial) vertex coloring [f : V → {1..k} ∪ {⊥}] makes hyperedge [e]
    {e happy} when some [v ∈ e] carries a color no other vertex of [e]
    carries ([⊥] never counts).  [f] is a conflict-free coloring when
    every edge is happy.  Happiness of {e some} edges under {e partial}
    colorings is exactly the currency of Lemma 2.1, so the predicate is
    exposed directly.

    Representation: an int array over the hypergraph's vertices with
    {!uncolored} ([-1]) as [⊥]; real colors are nonnegative. *)

val uncolored : int

val blank : Ps_hypergraph.Hypergraph.t -> int array
(** All-[⊥] coloring. *)

val unique_color_witness :
  Ps_hypergraph.Hypergraph.t -> int array -> int -> (int * int) option
(** [unique_color_witness h f e] is [Some (v, c)] when vertex [v ∈ e] has
    color [c ≠ ⊥] unique within edge [e] (smallest such [v]); [None] when
    the edge is unhappy. *)

val happy : Ps_hypergraph.Hypergraph.t -> int array -> int -> bool

val happy_scratch : k:int -> int array
(** Zeroed color-count scratch for {!happy_fast}, sized for colorings
    that only use colors [0 .. k-1]. *)

val happy_fast :
  int array -> Ps_hypergraph.Hypergraph.t -> int array -> int -> bool
(** [happy_fast scratch h f e] — same verdict as {!happy}, but
    allocation-free: colors are counted in [scratch] (restored to
    all-zero before returning) instead of a per-call hash table.  Every
    color of [f] appearing in [e] must be below the [k] the scratch was
    created with.  This is the phase loop's inner edge scan. *)

(** {1 Whole-coloring checks}

    [happy_edges], [count_happy], [is_conflict_free] and [verify_exn]
    validate the coloring once (length, no color below [⊥]; raising
    [Invalid_argument] otherwise, even on an edgeless hypergraph) and
    then test every edge through one {!happy_fast} scratch sized
    [max_color f + 1]: O(n + Σ_e |e|) per call. *)

val happy_edges : Ps_hypergraph.Hypergraph.t -> int array -> int list
(** Indices of the happy edges, increasing. *)

val count_happy : Ps_hypergraph.Hypergraph.t -> int array -> int

val is_conflict_free : Ps_hypergraph.Hypergraph.t -> int array -> bool
(** Every edge happy. Vertices may stay uncolored as long as edges are
    happy. *)

val num_colors : int array -> int
(** Distinct non-[⊥] colors used. *)

val max_color : int array -> int
(** Largest color used, or [-1]. *)

val verify_exn : Ps_hypergraph.Hypergraph.t -> int array -> unit
(** Raises [Invalid_argument] naming the lowest-index unhappy edge when
    the coloring is not conflict-free, or on length/range errors. *)
