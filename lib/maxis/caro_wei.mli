(** The Caro–Wei randomized independent set.

    Draw a uniform permutation π and keep every vertex that precedes all
    of its neighbors in π.  The result is independent, and linearity of
    expectation gives [E|IS| = Σ_v 1/(deg(v)+1) >= n/(Δ+1)] — the
    probabilistic proof of Turán's bound, and the one-shot core of Luby's
    algorithm. *)

val run : Ps_util.Rng.t -> Ps_graph.Graph.t -> Independent_set.t
(** One permutation; the "kept" set (not extended to maximal). *)

val run_maximal : Ps_util.Rng.t -> Ps_graph.Graph.t -> Independent_set.t
(** First-fit greedy along the random permutation — pointwise a superset
    of {!run}'s set for the same permutation, and always maximal. *)

val best_of : Ps_util.Rng.t -> int -> Ps_graph.Graph.t -> Independent_set.t
(** [best_of rng t g]: largest of [t] runs of {!run_maximal}. *)

val expected_size_bound : Ps_graph.Graph.t -> float
(** The Turán-type bound [Σ_v 1/(deg(v)+1)] the construction meets in
    expectation. *)
