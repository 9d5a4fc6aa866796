(** Independent sets of a graph.

    An independent set is represented as a {!Ps_util.Bitset.t} over the
    graph's vertices.  A {e maximum} independent set (MaxIS) is one of
    largest cardinality; its size is the independence number α(G).  A
    λ-approximation is an independent set of size at least α(G)/λ — the
    object Theorem 1.1 proves P-SLOCAL-complete to compute for
    λ = polylog n. *)

type t = Ps_util.Bitset.t

val empty : Ps_graph.Graph.t -> t

val of_list : Ps_graph.Graph.t -> int list -> t

val of_indicator : bool array -> t

val to_list : t -> int list

val size : t -> int

val is_independent : Ps_graph.Graph.t -> t -> bool
(** No edge inside the set. *)

val is_maximal : Ps_graph.Graph.t -> t -> bool
(** Independent, and every vertex outside has a neighbor inside. *)

val verify_exn : Ps_graph.Graph.t -> t -> unit
(** Raises [Invalid_argument] when the set is not independent — the guard
    every pipeline stage runs before trusting a solver's output. *)

val make_maximal : Ps_graph.Graph.t -> t -> t
(** Greedily extend an independent set to a maximal one (fresh set).
    Raises [Invalid_argument] when the input is not independent. *)

val complete : Ps_graph.Graph.t -> t -> t
(** [complete g s] is a fresh copy of [s] plus, in increasing vertex
    order, every vertex with no neighbor in the set built so far — the
    greedy pass behind {!make_maximal}, without its independence check.
    Never removes a member; the result is maximal whenever [s] is
    independent.  Raises [Invalid_argument] when [s]'s capacity is not
    the graph's vertex count. *)

val complete_mask : Ps_graph.Graph.t -> Bytes.t -> t
(** [complete_mask g m] is {!complete} on the set whose members are the
    non-zero bytes of the n-byte mask [m], which it completes in place
    (a caller that already holds its set as a mask skips the copy):
    the result is the set [m] holds afterwards.  Raises
    [Invalid_argument] when [m]'s length is not the graph's vertex
    count. *)

val approximation_ratio : alpha:int -> t -> float
(** [alpha /. size]; the λ achieved against a known independence number.
    Raises if the set is empty while [alpha > 0]. *)
