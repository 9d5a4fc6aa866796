(** The λ-approximation interface the reduction consumes.

    Theorem 1.1's reduction is parametric in "an algorithm computing
    λ-approximations for MaxIS".  A {!solver} packages a solving function
    with its name; {!measure} computes the λ a solver actually achieved
    on an instance against a reference α (exact when affordable, else a
    certified upper bound — in which case the reported λ is itself an
    upper bound on the true one). *)

type first_fit = {
  order : Ps_util.Rng.t -> int -> int array;
      (** [order rng n]: a fresh array holding a permutation of
          [0 .. n - 1], which the caller may overwrite *)
  thin : (Ps_util.Rng.t -> int array -> int array) option;
      (** maps the chosen set's members, in ascending order, to the
          kept ones, in ascending order: a subset *)
}
(** A first-fit declaration.  The set it describes on a graph [g] of
    [n] vertices is [Greedy.in_order g (order rng n)] — take each vertex
    along the order whose neighborhood holds no taken vertex — then,
    with [thin], the members that [thin rng] keeps, drawing from the
    same [rng] after the order.  A first fit asks a graph only "is [v]
    blocked?" and "take [v]", so a caller holding the graph in another
    form can run it there: {!Kernel.solve} runs it on the kernel's
    working state without emitting the kernel graph. *)

type solver = {
  name : string;
  solve : Ps_util.Rng.t -> Ps_graph.Graph.t -> Independent_set.t;
  first_fit : first_fit option;
      (** When present, [solve] computes exactly the set it describes,
          and a caller may run the declaration instead of calling
          [solve].  So a wrapper that changes what [solve] returns must
          set it to [None]; one that only observes [solve] (a timer, a
          probe) may keep it, knowing that such a caller skips its
          wrapper.  {!caro_wei} and {!degrade} of a first-fit solver
          carry one; every other solver here carries none. *)
}

val greedy_min_degree : solver
val greedy_adversarial : solver
(** Max-degree anti-greedy — the weak baseline. *)

val caro_wei : solver
(** {!Caro_wei.run_maximal} on the natural layout: first fit along
    [Rng.permutation rng n], declared as such. *)

val caro_wei_boosted : int -> solver
(** Best of [t] Caro–Wei runs. *)

val exact : solver
(** Branch-and-bound; only for small instances. *)

val all_heuristics : solver list
(** Every polynomial-time solver above (no {!exact}). *)

val degrade : keep:float -> solver -> solver
(** [degrade ~keep s] keeps each vertex of [s]'s output independently
    with probability [keep] (but never returns an empty set when the
    input set was non-empty).  The result is still independent — a
    subset of an independent set — just deliberately far from maximum:
    the knob experiments turn to sweep the reduction's λ and watch the
    phase count track [ρ = λ·ln m + 1].  Requires [0 < keep <= 1].

    The keep is one Bernoulli draw per member of [s]'s set, in
    ascending member order, after [s]'s own draws.  When [s] is first
    fit, so is the result: [s]'s order, with this keep as (or after)
    its thinning. *)

val solve_verified :
  solver -> Ps_util.Rng.t -> Ps_graph.Graph.t -> Independent_set.t
(** Run the solver and {!Independent_set.verify_exn} its output. *)

type measurement = {
  solver_name : string;
  is_size : int;
  alpha_ref : int;     (** exact α, or a certified upper bound *)
  alpha_exact : bool;  (** whether [alpha_ref] is exact *)
  lambda : float;      (** [alpha_ref / is_size]; ≥ true λ when not exact *)
}

val measure :
  ?exact_budget:int ->
  solver ->
  Ps_util.Rng.t ->
  Ps_graph.Graph.t ->
  measurement
(** [exact_budget] (default 200_000 search nodes) caps the exact solver;
    beyond it the clique-cover/matching upper bound stands in for α. *)
