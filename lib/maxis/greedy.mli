(** Greedy independent-set heuristics.

    Minimum-degree greedy repeatedly takes a vertex of smallest residual
    degree and deletes its closed neighborhood.  It guarantees
    [|IS| >= n / (Δ+1)] (indeed the Turán-type bound [Σ 1/(d(v)+1)]), so
    against the trivial [α <= n] it is a (Δ+1)-approximation — on the
    conflict graphs of the reduction this is far better than it sounds,
    because their independence number is exactly the number of happy-able
    hyperedges. *)

val min_degree : Ps_graph.Graph.t -> Independent_set.t
(** Deterministic: ties broken toward smaller vertex index.
    Cost: O(n + m) row reads, each row read in place once when its
    vertex is deleted, plus O((n + U) log n) heap work, where [U] is the
    number of (step, vertex) pairs in which a live vertex loses at least
    one neighbor.  A vertex that loses several neighbors in one step
    costs one heap update, not one per lost neighbor.  The heap is
    {!Ps_util.Pqueue}, a 4-ary heap of packed (degree, vertex) ints, so a
    heap compare is one int compare.  Scratch: three [int] arrays of
    length [n] beside the heap's two. *)

val in_order : Ps_graph.Graph.t -> int array -> Independent_set.t
(** First-fit greedy along a given vertex order: take each vertex whose
    neighborhood is still untouched.  [in_order g (random permutation)] is
    the Caro–Wei sampler. *)

val max_degree_adversary : Ps_graph.Graph.t -> Independent_set.t
(** Anti-greedy (repeatedly take a {e maximum}-degree vertex): a
    deliberately bad but still maximal baseline for the benchmark tables.
    Same cost as {!min_degree}; the heap holds negated degrees. *)
