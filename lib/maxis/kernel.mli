(** Linear-time kernelization for maximum independent set.

    [reduce] shrinks a graph with the classic exact reduction rules —
    degree-0/1, degree-2 path/cycle compression (vertex folding),
    isolated-clique (simplicial) removal and neighborhood domination —
    before any solver runs.  Rules are applied worklist-style off a
    [nodes_by_degree] bucket structure, so the whole pass is linear in
    the graph volume (plus per-vertex neighborhood scans, each capped by
    [rule_cap] and all of them by the tier budget below).

    {b Witness gate.}  The simplicial/domination scan at a vertex [v] of
    degree [d >= 3] walks one row per neighbor.  Before it runs, one
    pass over [v]'s row stamps [N[v]] and picks the neighbor [a] of
    least degree, and one walk over [a]'s row looks for a stamped entry
    other than [v] — a triangle through the edge [va].  Either rule
    firing implies one: a neighbor [u] with [N[v] ⊆ N[u]] is adjacent
    to every other neighbor of [v], so it sits in [a]'s row when
    [u <> a], and [a]'s row holds the [d - 1 >= 2] other neighbors when
    [u = a].  So the scan runs only when that witness exists (and the
    16·[rule_cap] neighbor-degree budget admits it); skipping it never
    changes the kernel, the journal or the stats.  A traced run counts
    scans run and scans skipped as [kernel.scans] and
    [kernel.scan_skips].

    {b Tier budget.}  The degree [>= 3] branch — stamp pass, witness
    gate and scan, the quadratic tier — runs only while the row entries
    it has walked stay within [2^16 + 4096 · removed], where [removed]
    counts the vertices its rules retired ([|N[v]|] per simplicial take,
    1 per dominated deletion).  The check comes before the stamp pass,
    and only the tier moves either count, so once the budget is spent
    the tier stays off for the rest of the call and a degree [>= 3]
    vertex costs only its pop; the degree-0/1/2 rules run on as before.
    The constants are measured, not tuned per input: on [G_3] of
    reduce-lambda's largest shape (4-uniform, m = 1 536, seeds 1–30)
    the tier walks 1.1–8.8 k entries in all and, where it fires,
    removes one vertex per 356–1 319 of them, while G(n,p) at average
    degree 8 walks about 14 entries per gate check and, on the suite's
    n = 500 000 instance, 8.0 M entries over 569 401 checks for no
    removal at all.  The budget is a count, not a time, so the same
    input gives the same kernel on every run.  A traced run counts
    [kernel.quadratic_work] (entries walked), [kernel.quadratic_removed]
    and [kernel.quadratic_exhausted] (0 or 1) once per call.

    Every rule is α-preserving: an undo journal records
    enough to translate {e any} independent set of the kernel back to an
    independent set of the original graph, and a final [vertex_addition]
    repair pass restores maximality on the original vertex ids.

    {b Working state over the input CSR.}  The working graph reads
    every row in place from the input graph's int32 adjacency store
    (through {!Ps_graph.Graph.csr_view}) and never writes it, so the
    input stays safe to share read-only (portfolio lanes, the serve
    cache).  Its per-vertex state is three int32 stores in [Bytes],
    which the GC does not scan: the live degree, whose sign also says
    whether the vertex is retired; the quadratic tier's scan stamps,
    made only if the tier runs; and an index to a small per-row record,
    set only for rows a rule has touched.  A rule that rewrites a row writes into one
    growable pool per call: a fold's merged row, and a row compacted
    once its dead entries outnumber the live ones, become a pool base; a
    merged vertex linked to a row goes to that row's append segment,
    walked after its base, so linking copies no row.  Rows keep the
    entry order of the copy-on-write kernel this replaced (kept as a
    test-only oracle), so kernels, journals, stats and lifts are
    bit-identical to it.  A traced run counts rows whose base moved to
    the pool as [kernel.rows_owned] and the merged-row entries folds
    wrote, Σ |merged row| over all folds, as [kernel.fold_links].  The
    kernel is written in one pass straight into an int32 CSR store,
    renumbered through a 16-bit rank per 2{^15}-vertex block, and only
    rows a fold touched are checked for order and sorted.  {!lift}
    carries the set through the journal and the repair pass on one
    n-byte mask.

    {b First fit without the emit.}  A first-fit solver
    ({!Approx.first_fit}) never reads the kernel graph: it asks only
    "is [v] blocked?" and "take [v]", and the working state answers
    both.  For such a solver {!solve} runs the same rule loop as
    {!reduce}, then skips the renumbering and the emit, which are most
    of a kernel that keeps most of its input.  The survivors in
    increasing order are the kernel ids, since the renumbering is
    monotone; the solver's order over them is mapped through that list,
    and taking a vertex blocks both segments of its working row on one
    n-byte mask (a dead entry names a retired vertex, so blocking it
    changes nothing).  The live entries of a working row are the
    kernel row, so the chosen set, every [Rng] draw, the stats and the
    lift are bit-identical to [lift r (Greedy.in_order (graph r) order)]
    and its thinning.  A traced run counts [kernel.first_fit] once per
    call that takes this path. *)

type stats = {
  original_vertices : int;
  original_edges : int;
  kernel_vertices : int;
  kernel_edges : int;
  isolated : int;  (** degree-0 vertices taken into the solution *)
  pendants : int;  (** degree-1 takes (vertex in, its neighbor out) *)
  folds : int;  (** degree-2 folds: path/cycle compression steps *)
  simplicial : int;
      (** isolated-clique removals at degree >= 2 (the whole closed
          neighborhood retired, the center taken) *)
  dominated : int;
      (** deletions of a vertex [u] with [N[v] ⊆ N[u]] for some
          neighbor [v] — an optimal solution never needs [u] *)
}

type t
(** A reduced instance: the kernel graph plus the undo journal that
    lifts kernel solutions back to the original graph. *)

val reduce : ?rule_cap:int -> Ps_graph.Graph.t -> t
(** [reduce g] applies the reduction rules to a fixed point (relative to
    the triggering discipline: every vertex is re-examined whenever its
    degree changes) while the quadratic tier's budget lasts; after it is
    spent, the fixed point is that of the degree-0/1/2 rules alone, and
    a simplicial or dominated vertex at degree [>= 3] can stay in the
    kernel.  [rule_cap] bounds the degree up to which the
    quadratic-per-vertex simplicial/domination scan is attempted
    (default 16); vertices above the cap are still reduced once enough
    neighbors retire.  The input graph is not modified, and when no
    rule fires the kernel is the input graph itself. *)

val graph : t -> Ps_graph.Graph.t
(** The kernel graph, on the compacted vertex ids [0 .. kernel_vertices - 1]. *)

val to_original : t -> int array
(** Position [i] holds the original id of kernel vertex [i]. *)

val stats : t -> stats

val shrink_ratio : stats -> float
(** [kernel_vertices / original_vertices]; 0 for an empty input. *)

val lift : t -> Ps_util.Bitset.t -> Ps_util.Bitset.t
(** [lift t s] translates an independent set [s] of the kernel graph to
    the original graph: map the kernel ids back, replay the undo journal
    in reverse (a taken vertex joins the set; a fold expands to its two
    endpoints when the merged vertex was selected, to its center
    otherwise), then run {!vertex_addition}.  The result is independent
    {e and maximal} on the original graph for any independent input —
    even a deliberately weakened kernel solution lifts to a maximal set.
    Raises [Invalid_argument] when [s] is not sized for the kernel
    graph. *)

val vertex_addition : Ps_graph.Graph.t -> Ps_util.Bitset.t -> Ps_util.Bitset.t
(** Greedy repair pass: scan all vertices once and add every vertex
    whose neighborhood is disjoint from the set.  Never removes a
    member; the result is maximal whenever the input is independent.
    The input set is not modified.  This is
    {!Independent_set.complete}, the loop {!Independent_set.make_maximal}
    runs too. *)

(** {1 Presolve combinator} *)

val solve :
  Approx.solver -> Ps_util.Rng.t -> Ps_graph.Graph.t ->
  Independent_set.t * stats
(** [solve s rng g] kernelizes [g], runs [s] on the kernel, verifies the
    kernel answer ([Invalid_argument] when it is not independent) and
    lifts it: the lifted set, independent and maximal on [g], with the
    kernelization's stats.

    When [s] declares itself first fit, its [solve] is not called: the
    declaration runs on the working state, with no kernel graph
    emitted (see the module doc), and the answer is the one the
    emitted kernel would give.  The check is kept: taking a vertex
    whose working row holds a chosen vertex, or a thinning that keeps
    a vertex the first fit did not choose, raises [Invalid_argument].
    The stats come from the working state ([kernel_edges] is half the
    live degree sum).  Every other solver runs on the emitted kernel,
    [graph (reduce g)]. *)

val presolve : Approx.solver -> Approx.solver
(** [presolve s] is {!solve} packaged as a solver, without the stats.
    Its name is ["kernel+" ^ s.name] — the prefix is the marker
    {!is_presolved} keys on, and it flows into run records and cache
    keys so kernel-on and kernel-off results never alias.  It declares
    no first fit, even when [s] does: its answer is a lifted set, not
    a first fit on its input. *)

val is_presolved : Approx.solver -> bool
(** Whether a solver already owns its kernelization: a ["kernel+"]
    wrapped solver, or the portfolio (which kernelizes internally). *)

type choice = [ `None | `Kernel ]
(** The presolve knob threaded through the reduction pipeline. *)

val apply : choice -> Approx.solver -> Approx.solver
(** [apply `Kernel s] is [presolve s] unless [s] {!is_presolved} (the
    wrap is idempotent); [apply `None s] is [s]. *)
