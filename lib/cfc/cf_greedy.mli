(** Direct conflict-free coloring algorithms.

    Two purposes: they witness that the generated workloads admit CF
    k-colorings with small k (the premise "fix this k" in the proof of
    Theorem 1.1), and they provide the honest baselines the reduction is
    compared against in the benchmark tables. *)

val ruler : Ps_hypergraph.Hypergraph.t -> int array
(** The classic coloring for {e interval} hypergraphs: vertex [i] (a point
    on the line) gets color = the exponent of 2 in [i+1] (the "ruler
    sequence").  Any set of consecutive integers contains a unique maximal
    ruler value, so every interval edge is happy, with
    [⌊log2 n⌋ + 1] colors.  Correct for every hypergraph whose edges are
    intervals of consecutive vertices; other edges may end up unhappy
    (verify before trusting). *)

val conservative : Ps_hypergraph.Hypergraph.t -> int array
(** General-purpose greedy: while some edge is unhappy, take one of its
    vertices (preferring uncolored ones) and give it the smallest color
    held by {e no} other vertex sharing an edge with it.  Such a vertex
    becomes a unique witness for every edge through it, so each step
    permanently fixes at least one edge and breaks none — at most [m]
    steps, always ending conflict-free, with at most
    [Δ(primal graph) + 1] colors.  A partial-coloring refinement of
    "properly color the primal graph", used as the honest direct
    baseline against the reduction.

    The step order is fixed: each step fixes the {e lowest-index}
    unhappy edge, targeting its first uncolored member (else its
    smallest), with the smallest color free of the target's neighbors.
    Because a step never makes a happy edge unhappy, the lowest-index
    unhappy edge only moves forward, so one pass over the edges in index
    order takes exactly those steps.  Cost: O(Σ_e |e|) for the happiness
    scan plus O(Σ_{e∋v} |e|) per recolor step of a vertex [v], at most
    [m] steps.  Colored vertices sharing an edge always hold distinct
    colors, so every step colors a fresh vertex and the steps together
    cost at most O(Σ_e |e|²) — linear in the incidence size for bounded
    rank.  Scratch is O(n), with no per-edge allocation. *)

val ruler_color_count : int -> int
(** [⌊log2 n⌋ + 1] for [n >= 1] — the palette {!ruler} draws from. *)
