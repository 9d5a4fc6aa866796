(** The conflict graph [G_k] — the paper's central construction.

    Vertices: all triples [(e, v, c)] with [v ∈ e ∈ E(H)], [c] a color
    (see {!Triple}).  Edges, as in Section 2:

    {ul
    {- [E_vertex]: [(e,v,c) ~ (g,v,d)] — same hypergraph vertex, distinct
       colors ("a vertex gets at most one color per phase");}
    {- [E_edge]: [(e,v,c) ~ (e,u,d)] — same hyperedge ("an edge nominates
       at most one witness");}
    {- [E_color]: [(e,v,c) ~ (g,u,c)] — same color, {e distinct} vertices
       [u ≠ v], and [{u,v} ⊆ e] or [{u,v} ⊆ g] ("a witness's color is
       unique within its edge").}}

    The [u ≠ v] requirement in [E_color] is load-bearing: two edges may
    nominate the {e same} vertex with the same color in [I_f], and the
    proof of Lemma 2.1(a) needs those pairs to be non-adjacent (the
    lemma's case analysis derives contradictions only for [u ≠ v]).  The
    [|e|·k] triples of an edge do form a clique via [E_edge].

    Independent sets of [G_k] are partial CF colorings (Lemma 2.1); that
    file is {!Correspondence}.  This module offers the graph two ways: a
    materialized {!Ps_graph.Graph.t} (what the MaxIS solvers consume) and
    an implicit adjacency oracle (what a LOCAL-model simulation of [G_k]
    inside [H] would use — each triple's neighborhood is computable from
    the 1-hop structure of [H], which is why the paper can say "[G_k] can
    be efficiently simulated in [H] in the LOCAL model").  The test suite
    checks oracle and materialization agree edge-for-edge. *)

type t = {
  graph : Ps_graph.Graph.t;
  indexer : Triple.Indexer.indexer;
  k : int;
}

val check_k : Ps_hypergraph.Hypergraph.t -> k:int -> (unit, string) result
(** [Error msg] when [G_k] would have more than
    {!Ps_graph.Graph.max_vertices} triples ([k·Σ|e|]), which no int32
    id can name.  O(m) and allocation-free: the wire's and the CLI's
    solve-option checks run it on a fixed [k] before anything is
    built. *)

val build : ?domains:int -> Ps_hypergraph.Hypergraph.t -> k:int -> t
(** Materialize [G_k].  Size is polynomial:
    [|V| = k·Σ|e|] and [|E| = O(k² · Σ_e |e|² · max-degree)].

    Triple ids are the vertex ids of [G_k]'s int32 adjacency store, so
    [build] raises [Invalid_argument] naming the triple count when
    [k·Σ|e|] exceeds {!Ps_graph.Graph.max_vertices} (the {!check_k}
    test), before it allocates anything sized by [k].  The list-based
    reference builder [Ps_oracle.Conflict_graph.build_reference] (test
    suite only) is the differential oracle for this CSR build.

    Builds the CSR representation directly: a counting pass sizes every
    adjacency row from a closed form per slot, and a fill pass writes
    the rows in place, enumerating each slot's neighbor slots in
    ascending order from the hypergraph's layout — no intermediate edge
    list, no hashing, no dedup, and a sort only of the short run of
    E_color slots reached through the edge's other members; cost linear
    in the output size.

    {b Domain semantics.}  [domains] requests parallel construction:

    {ul
    {- [domains = 1] (the default): sequential, no spawning.}
    {- [domains > 1]: both passes run on a {e single} staged fork-join
       ({!Ps_util.Parallel.fork_join_staged} — one spawn set, not one
       per pass), scheduled by per-domain sharded cursors with work
       stealing ({!Ps_util.Parallel.Sharded_cursor}: chunk claims stay
       uncontended until the tail of the slot range).  The request is
       clamped to the slot count [Σ|e|], so no spawned domain can be
       left without a slice of work — asking for 8 domains on a
       3-slot instance spawns 2, not 7 idle ones.}
    {- [domains = 0]: automatic, via
       {!Ps_util.Parallel.effective_domains} with the triple count
       [k·Σ|e|] as the unit count — the calibration constant
       ({!Ps_util.Parallel.auto_units_per_domain}) and the clamping
       rule are shared with every other [?domains:0] heuristic in the
       repository.}}

    Rows are computed independently into disjoint regions whichever
    domain claims them, so the result is bit-identical
    ({!Ps_graph.Graph.equal}) for every domain count and schedule. *)

(** Incremental cross-phase engine.

    The reduction loop only shrinks its hypergraph (happy edges retire;
    nothing is ever added), and every adjacency family of [G_k] is a
    predicate on the two triples and their own edges' membership — so
    the conflict graph of the restricted hypergraph is exactly the
    induced subgraph of the current [G_k] on surviving triples.  This
    engine builds [G_k] once, then after each phase {!retire_edges} +
    {!compact} renumber the surviving slots monotonically and filter
    the CSR rows in place, writing into a double-buffered scratch arena
    (two offsets/adj pairs allocated at the first compact and swapped
    thereafter — no per-phase allocation; reuse is reported on the
    [conflict_graph.reused_bytes] telemetry counter).

    Because [Hypergraph.restrict_edges] preserves the relative order
    and member arrays of surviving edges, the monotone renumbering
    assigns exactly the triple ids a fresh rebuild would — the
    compacted graph is bit-identical to [build (restrict_edges h alive)
    ~k], which is what lets {!Reduction.run} promise the multicolorings
    of a rebuild-every-phase loop (the test suite's oracle) bit for
    bit.

    The graph returned by {!graph} is an arena view over the current
    buffer pair: it stays valid until the {e next-but-one} {!compact}
    call clobbers that buffer.  The reduction loop consumes each phase's
    graph before compacting again, so this is invisible there; external
    callers wanting a stable snapshot should copy via
    {!Ps_graph.Graph.to_csr}. *)
module Incremental : sig
  type state

  val create : ?domains:int -> Ps_hypergraph.Hypergraph.t -> k:int -> state
  (** Build phase-0 [G_k] and the arena bookkeeping.  [domains] as in
      {!build}, but defaulting to [0] (automatic); the triple-count
      limit as in {!build}. *)

  val graph : state -> Ps_graph.Graph.t
  (** The current conflict graph (see validity caveat above). *)

  val k : state -> int

  val n_alive_edges : state -> int
  (** Hyperedges not yet retired. *)

  val decode : state -> int -> Triple.t
  (** Triple of a {e current} conflict-graph vertex id, with its edge
      field holding the {e original} hyperedge id (not a
      restricted-local one).  Edge membership is unchanged by
      restriction, so coloring extraction and audits see the same
      answers as the rebuild path. *)

  val retire_edges : state -> int list -> unit
  (** Mark original hyperedge ids dead (idempotent).  The graph is
      unchanged until {!compact}.  Raises [Invalid_argument] on an
      out-of-range id. *)

  val compact : state -> unit
  (** Drop every triple of a retired edge and renumber; no-op if
      nothing was retired since the last compact. *)

  type snapshot
  (** An immutable copy of a state's phase-0 CSR, safe to keep after
      the state itself is discarded or compacted (warm-start tier of
      the solved-instance cache). *)

  val snapshot : state -> snapshot
  (** Capture the phase-0 CSR.  Only valid before any retirement:
      raises [Invalid_argument] once edges have been retired, because
      the compacted CSR no longer describes the full hypergraph. *)

  val snapshot_k : snapshot -> int
  (** The [k] the snapshot was built for. *)

  val snapshot_bytes : snapshot -> int
  (** Approximate heap footprint of the copied arrays, for cache byte
      budgets. *)

  val create_from_snapshot :
    Ps_hypergraph.Hypergraph.t -> snapshot -> state
  (** Rebuild a fresh phase-0 state for [h] from a snapshot taken over
      the {e same} hypergraph, replacing the neighborhood-enumeration
      CSR build with two array copies (plus the cheap slot-table
      pass).  The resulting state — and therefore the whole solve — is
      bit-identical to [create h ~k].  The caller must guarantee [h]
      equals the snapshot's hypergraph ({!Ps_hypergraph.Hypergraph.equal});
      only the slot-count is re-checked here ([Invalid_argument] on
      mismatch). *)
end

val adjacent : Ps_hypergraph.Hypergraph.t -> k:int -> Triple.t -> Triple.t -> bool
(** Direct evaluation of the edge-family definitions, no graph needed —
    the specification the materialization is tested against. *)

val iter_neighbors_implicit :
  Ps_hypergraph.Hypergraph.t -> Triple.Indexer.indexer -> Triple.t ->
  (Triple.t -> unit) -> unit
(** Enumerate the neighbors of a triple straight from the hypergraph
    (each neighbor exactly once). *)

type family_counts = {
  n_vertex_family : int;  (** [|E_vertex|] *)
  n_edge_family : int;    (** [|E_edge|] *)
  n_color_family : int;   (** [|E_color|] *)
  n_union : int;          (** [|E(G_k)|] — the families overlap *)
}

val edge_family_counts : Ps_hypergraph.Hypergraph.t -> k:int -> family_counts
(** Exhaustive O(|V(G_k)|²) enumeration straight from the definitions;
    experiment E5 checks [n_union] equals the materialized edge count. *)

val size_formula : Ps_hypergraph.Hypergraph.t -> k:int -> int
(** Predicted vertex count [k·Σ|e|] (checked in experiment E5). *)

val to_dot : Ps_hypergraph.Hypergraph.t -> k:int -> string
(** Graphviz rendering of [G_k] for small instances: triple-labelled
    vertices, edges colored by family (red = [E_vertex], blue =
    [E_edge], green = [E_color]; overlapping memberships pick the first
    in that order). *)
