(** Immutable simple undirected graphs in compressed sparse row form.

    Vertices are the integers [0 .. n_vertices-1].  Self-loops and parallel
    edges are rejected/collapsed at construction, so every graph value in
    the repository is a simple graph — the setting of both the LOCAL model
    and the conflict-graph construction.  Adjacency rows are sorted, which
    makes [has_edge] logarithmic and neighbor iteration cache-friendly.

    {b One int32 adjacency store.}  The offsets array is [int]; the
    adjacency store — the 2m-entry array every solver scan walks — is an
    int32 Bigarray, 4 bytes per entry.  Its entries are vertex ids, so
    every constructor raises [Invalid_argument] for [n > ]{!max_vertices}
    before it allocates; {!Gio} turns an edge-list header past that
    limit into a line-1 error.  The list constructor {!of_edges}
    normalizes through a hash table and is the differential oracle for
    the streaming constructor {!of_pair_chunks}. *)

type t

type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The adjacency store: an unboxed int32 Bigarray. *)

val max_vertices : int
(** [2^31 - 1]: the largest vertex count whose ids fit the int32
    store. *)

(** {1 Construction} *)

val of_edges : int -> (int * int) list -> t
(** [of_edges n edges] builds a graph on vertices [0..n-1].  Endpoints out
    of range or self-loops raise [Invalid_argument]; duplicate edges (in
    either orientation) are collapsed. *)

val of_csr : ?validate:bool -> int -> offsets:int array -> adj:i32 -> t
(** [of_csr n ~offsets ~adj] adopts already-built CSR data with {e no}
    normalization pass: [offsets] must have length [n+1] with
    [offsets.(0) = 0], and each row [adj.(offsets.(v) ..
    offsets.(v+1)-1)] must be strictly increasing, self-loop-free, in
    range, and symmetric.  The arrays are owned by the graph afterwards —
    callers must not mutate them.  Violated preconditions are only
    detected when [validate] is true (default: set the [PSLOCAL_DEBUG]
    environment variable), in which case every precondition is checked
    and [Invalid_argument] raised; otherwise construction is O(1). *)

val of_csr_prefix : ?validate:bool -> int -> offsets:int array -> adj:i32 -> t
(** Arena variant of {!of_csr}: the arrays may be {e longer} than their
    logical content — only [offsets.(0 .. n)] and
    [adj.{0 .. offsets.(n) - 1}] are meaningful, and the spare capacity
    beyond them is ignored by every operation (including {!to_csr},
    which returns exact-size copies, and {!equal}, which compares
    logical content only).  This lets a caller that repeatedly shrinks a
    graph — the incremental conflict-graph engine — reuse one
    preallocated buffer pair across compactions instead of reallocating
    per phase.  The caller must not mutate the logical prefixes while
    the graph is in use; the spare tails stay owned by the caller.
    Validation as in {!of_csr} (default: the [PSLOCAL_DEBUG] environment
    variable), with the length checks relaxed to [>=]. *)

(** Growable int32 endpoint buffer: the one collector between an edge
    stream and {!of_pair_chunks}.  {!Gio} fills one per file chunk and
    {!Gen} one per generated graph. *)
module Pairs : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** An empty buffer with room for [capacity] pairs (default 1024)
      before it first doubles.  The room is reserved as address space
      and only paged in as pairs are written. *)

  val push : t -> int -> int -> unit
  (** [push p u v] appends the pair [(u, v)].  Raises [Invalid_argument]
      when [u] or [v] lies outside [[0, ]{!max_vertices}[]]; the range
      [[0, n)] and self-loops are checked by the builder. *)

  val length : t -> int
  (** Pairs pushed so far. *)
end

val of_pair_chunks : int -> Pairs.t array -> t
(** [of_pair_chunks n chunks] builds CSR directly from the pairs of
    [chunks], read in array order — any orientation, any order,
    duplicates collapsed — in O(n + m) for any pair order, without
    lists, hash tables or a comparison sort: count degrees, then fill
    both directions of every pair into an int32 store.  When every row
    of that store came out strictly increasing (as every row of a file
    written by {!Gio.write_file} does) it is the CSR.  Otherwise one
    transpose of the store settles every row: rows are walked upward
    and each vertex appended to the rows of its neighbours, so each row
    comes out sorted, a repeated pair is dropped where it meets itself
    as the row's last entry, and the rows are compacted in place.

    {b A chunk may be consumed.}  The transpose writes into the buffer
    of the first chunk that can hold the whole store — a single chunk
    always can — and leaves that chunk empty, so pushing into it
    afterwards starts a new buffer and cannot touch the graph.  With no
    such chunk the transpose writes into a new array.  Peak memory
    beyond the chunks is the degree and offsets arrays plus one store,
    or two when no chunk can take the transposed one.  A store that
    lost duplicates keeps its allocation, viewed through a sub-array of
    the exact length.

    The result is adopted through {!of_csr}, so [PSLOCAL_DEBUG]
    validates it.  Rows, offsets and {!content_hash} do not depend on
    how the pairs are cut into chunks.  Self-loops and endpoints outside
    [[0, n)] raise [Invalid_argument] (always — this path replaces
    normalization, so it cannot defer validation). *)

val of_unnormalized_pairs : int -> Pairs.t -> t
(** [of_unnormalized_pairs n p] is [of_pair_chunks n [| p |]]: O(n + m)
    for any pair order, and [p] is consumed when its rows need
    settling. *)

val of_sorted_edge_array : ?validate:bool -> int -> (int * int) array -> t
(** [of_sorted_edge_array n edges] builds CSR directly from an edge array
    that is already normalized: each edge once as [(u, v)] with [u < v],
    sorted lexicographically, no duplicates.  Runs in O(n + m) with no
    hashing and no per-row sort.  Preconditions are checked only under
    [validate] (default: the [PSLOCAL_DEBUG] environment variable), as in
    {!of_csr}. *)

val empty : int -> t
(** [empty n] has [n] vertices and no edges. *)

val to_csr : t -> int array * int array
(** [(offsets, adj)] — {e copies} of the internal CSR content, never
    aliases: mutating the returned arrays cannot corrupt the graph, and
    the caller always receives exact-length [int] arrays regardless of
    arena spare capacity ([offsets] has length [n+1], [adj] length
    [offsets.(n)]; the int32 store is widened entry-by-entry).  This
    contract is pinned by a unit test.  For allocation-free auditing use
    {!csr_view}. *)

type view = {
  v_n : int;
  v_offsets : int array;
      (** Aliased, {e not} a copy — read-only; may be longer than
          [v_n + 1] for arena-backed graphs. *)
  v_store_len : int;  (** Physical store length (>= [v_offsets.(v_n)]). *)
  v_exact : bool;
      (** Whether the physical lengths equal the logical ones —
          [false] for graphs built by {!of_csr_prefix} carrying spare
          arena capacity. *)
  v_store : i32;
      (** The store itself, aliased — read-only, like [v_offsets]:
          graphs are immutable and stores are shared (across solver
          lanes, cache entries and derived graphs), so writing into one
          corrupts every graph that aliases it. *)
}
(** Zero-copy window onto the internal representation, for auditors that
    must certify what is actually stored (not a reconstruction) without
    paying the O(n + m) copy of {!to_csr} on 10^8-edge instances, and
    for hot loops (the kernel's working graph, the maximality pass)
    that read rows in place with no call per entry. *)

val csr_view : t -> view

(** {1 Size} *)

val n_vertices : t -> int
val n_edges : t -> int

(** {1 Queries} *)

val degree : t -> int -> int
val max_degree : t -> int
val avg_degree : t -> float
val has_edge : t -> int -> int -> bool
val neighbors : t -> int -> int array
(** Fresh sorted array of neighbors. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
val exists_neighbor : t -> int -> (int -> bool) -> bool

val iter_edges : t -> (int -> int -> unit) -> unit
(** Each undirected edge visited once, with [u < v]. *)

val edges : t -> (int * int) list
(** All edges, each once with [u < v], lexicographic order. *)

val vertices : t -> int list

(** {1 Derived graphs} *)

val degree_sorted : t -> t * int array
(** [degree_sorted g] relabels vertices by decreasing degree (stable
    within ties) and rebuilds the CSR in that order.  The hot
    high-degree rows land in one compact cache block at the front of
    the store, and row lengths decay monotonically along any scan.
    Returns [(g', perm)] where [perm.(i)] is the original id of new
    vertex [i]; a result on [g'] maps back through [perm]. *)

val induced_subgraph : t -> int list -> t * int array
(** [induced_subgraph g vs] is the subgraph induced by the distinct
    vertices [vs], together with the map from new indices to original
    vertex ids (position [i] of the array holds the original id of new
    vertex [i]). *)

val complement : t -> t
(** Complement graph; quadratic, intended for small instances. *)

val union : t -> t -> t
(** Edge-union of two graphs over the same vertex set. *)

val contract : t -> int array -> t
(** [contract g labels] is the quotient graph: vertex [c] of the result
    stands for the class [labels = c]; classes are adjacent iff some
    original edge joins them (self-loops dropped, parallel edges
    collapsed).  [labels] must map onto [0 .. max_label] with every
    label in range inhabited implicitly (uninhabited labels yield
    isolated vertices). *)

val is_subgraph : t -> t -> bool
(** [is_subgraph g h]: same vertex count and every edge of [g] in [h]. *)

val equal : t -> t -> bool
(** Logical-content equality: compares the offsets prefix and the
    adjacency entries, ignoring arena spare capacity. *)

val content_hash : t -> int64
(** Content-addressed 64-bit digest of the logical CSR (FNV-1a over
    [n], the offsets prefix and the adjacency entries, avalanched).
    Hashes the {e logical} content, so the digest is independent of
    arena spare capacity:
    [equal g h] implies [content_hash g = content_hash h], and the
    converse holds up to 64-bit collisions.  Stable across processes —
    safe to use as a persistent cache key. *)

val pp : Format.formatter -> t -> unit
(** Summary line: vertex/edge counts and degree range. *)
