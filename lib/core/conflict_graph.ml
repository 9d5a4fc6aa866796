module H = Ps_hypergraph.Hypergraph
module G = Ps_graph.Graph
module Ix = Triple.Indexer
module Tm = Ps_util.Telemetry

type t = {
  graph : G.t;
  indexer : Ix.indexer;
  k : int;
}

let validate h ~k (t : Triple.t) =
  t.color >= 0 && t.color < k
  && t.edge >= 0 && t.edge < H.n_edges h
  && H.edge_mem h t.edge t.vertex

let adjacent h ~k (t1 : Triple.t) (t2 : Triple.t) =
  if not (validate h ~k t1 && validate h ~k t2) then
    invalid_arg "Conflict_graph.adjacent: invalid triple";
  (not (Triple.equal t1 t2))
  && (* E_vertex *)
     ((t1.vertex = t2.vertex && t1.color <> t2.color)
     || (* E_edge *)
     t1.edge = t2.edge
     || (* E_color: same color, distinct vertices, and {u,v} ⊆ e or
           {u,v} ⊆ g.  [u ≠ v] matters: the proof of Lemma 2.1 lets two
           edges nominate the same vertex with the same color, so those
           pairs must NOT be adjacent. *)
     (t1.color = t2.color
     && t1.vertex <> t2.vertex
     && (H.edge_mem h t1.edge t2.vertex || H.edge_mem h t2.edge t1.vertex)))

(* ------------------------------------------------------------------ *)
(* Direct-CSR builder.

   The list-based reference builder (the test suite's oracle, under
   test/oracle) materializes a duplicate-heavy edge list (every pair is
   emitted by up to three families) and pays for boxed tuples,
   polymorphic hashing and list sorting in [Graph.of_edges].  This
   builder instead flattens [H] into int tables once, then enumerates
   every slot's neighbor slots straight from that layout, already in
   ascending order apart from one short run it sorts (see the table
   below).  Two passes over the slots (a counting pass sizing [offsets]
   from a closed form, a fill pass writing [adj] in place) yield the CSR
   arrays with no intermediate edge list and no dedup, so the build is
   linear in the size of its output.  Both passes split the slot range
   across domains when [domains > 1]; every row is computed
   independently and written to a disjoint region, so the output is
   bit-identical for any domain count. *)

(* Flat integer tables describing H.  A "slot" is a (edge, member)
   position — slot s of edge e holds the p-th vertex of e where
   s = start.(e) + p — and triple (e, v, c) with v in slot s has encoded
   id s·k + c, matching [Triple.Indexer.encode]. *)
type tables = {
  nslots : int;            (* Σ|e| *)
  start : int array;       (* length m+1: slots of edge e are [start.(e), start.(e+1)) *)
  slot_vertex : int array; (* slot -> hypergraph vertex sitting there *)
  slot_edge : int array;   (* slot -> owning hyperedge *)
  voff : int array;        (* length n+1: incidence offsets per vertex *)
  vslot : int array;       (* the slots holding vertex v, increasing edge order *)
}

let tables_of h =
  let m = H.n_edges h and n = H.n_vertices h in
  let start = Array.make (m + 1) 0 in
  for e = 0 to m - 1 do
    start.(e + 1) <- start.(e) + H.edge_size h e
  done;
  let nslots = start.(m) in
  let slot_vertex = Array.make (max nslots 1) 0 in
  let slot_edge = Array.make (max nslots 1) 0 in
  let vdeg = Array.make (max n 1) 0 in
  for e = 0 to m - 1 do
    let p = ref start.(e) in
    H.iter_edge h e (fun v ->
        slot_vertex.(!p) <- v;
        slot_edge.(!p) <- e;
        vdeg.(v) <- vdeg.(v) + 1;
        incr p)
  done;
  let voff = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    voff.(v + 1) <- voff.(v) + vdeg.(v)
  done;
  let vslot = Array.make (max voff.(n) 1) 0 in
  let cursor = Array.copy voff in
  for s = 0 to nslots - 1 do
    let v = slot_vertex.(s) in
    vslot.(cursor.(v)) <- s;
    cursor.(v) <- cursor.(v) + 1
  done;
  { nslots; start; slot_vertex; slot_edge; voff; vslot }

(* Reusable per-worker growable int buffer. *)
type buf = { mutable data : int array; mutable len : int }

let buf_create () = { data = Array.make 1024 0; len = 0 }

let buf_push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

(* The k triples living in a slot s = (e, v) all see the same neighbor
   *slots*; only the colors each neighbor contributes depend on c.  The
   neighbor slots split into two disjoint sets:

   A. every slot of every edge g ∋ v (e included).  v's incidences in
      [vslot] are in increasing edge order and each edge owns a
      contiguous slot range, so walking them yields A in ascending
      order.  Per slot x of A, for the row of (s, c):
      - x = s:                          colors c' ≠ c   (k-1)
      - x in e, x ≠ s (E_edge):         all colors      (k)
      - x holds v, g ≠ e (E_vertex):    colors c' ≠ c   (k-1)
      - x holds u ≠ v, g ≠ e
        (E_color via {u,v} ⊆ g):        color c         (1)
   B. the slots (g, u) with u ∈ e \ {v}, g ∋ u and v ∉ g: E_color via
      {u,v} ⊆ e, color c only.  Each slot holds one vertex, so no slot
      is reached twice and B needs no dedup; "v ∉ g" keeps B out of A.

   E_color needs u ≠ v: two edges nominating the same vertex with the
   same color are NOT adjacent (Lemma 2.1), which is why the slot holding
   v in g ≠ e gets c' ≠ c and never c.  Row lengths are the same for
   every color of a slot:
     (k-1) + k(|e|-1) + (k-1)(deg v - 1) + Σ_{g∋v, g≠e} (|g|-1) + |B|.
   B is the only part that is not born sorted; it is short (Σ deg u over
   u ∈ e) and sorted once, then merged into the A walk between ranges. *)

(* [emask] marks the edges holding the current slot's vertex. *)
type scratch = { emask : Bytes.t; b : buf }

let scratch_create tb =
  { emask = Bytes.make (max (Array.length tb.start - 1) 1) '\000';
    b = buf_create () }

let mark_edges tb sc v flag =
  for j = tb.voff.(v) to tb.voff.(v + 1) - 1 do
    Bytes.unsafe_set sc.emask tb.slot_edge.(tb.vslot.(j)) flag
  done

(* Gather B of slot [s] (see above) into [sc.b], in no particular order. *)
let collect_b tb sc s =
  let e = tb.slot_edge.(s) and v = tb.slot_vertex.(s) in
  mark_edges tb sc v '\001';
  sc.b.len <- 0;
  for x = tb.start.(e) to tb.start.(e + 1) - 1 do
    if x <> s then begin
      let u = tb.slot_vertex.(x) in
      for j = tb.voff.(u) to tb.voff.(u + 1) - 1 do
        let y = tb.vslot.(j) in
        if Bytes.unsafe_get sc.emask tb.slot_edge.(y) = '\000' then
          buf_push sc.b y
      done
    end
  done;
  mark_edges tb sc v '\000'

let edge_size tb g = tb.start.(g + 1) - tb.start.(g)

(* Count the k rows of slot [s]: write their shared degree, the closed
   form above, into [deg]. *)
let count_slot tb sc ~k deg s =
  let e = tb.slot_edge.(s) and v = tb.slot_vertex.(s) in
  collect_b tb sc s;
  let d = ref ((k - 1) + (k * (edge_size tb e - 1)) + sc.b.len) in
  for j = tb.voff.(v) to tb.voff.(v + 1) - 1 do
    let g = tb.slot_edge.(tb.vslot.(j)) in
    if g <> e then d := !d + (k - 1) + (edge_size tb g - 1)
  done;
  for c = 0 to k - 1 do
    deg.((s * k) + c) <- !d
  done

(* Fill pass for one slot: sort B once (a max_int sentinel ends it),
   then write each of the k rows by walking A's ranges in order and
   emitting the B slots that fall before each range — ascending slots ×
   ascending colors keep every row strictly increasing. *)
let fill_slot tb sc ~k offsets (adj : G.i32) s =
  collect_b tb sc s;
  Ps_util.Intsort.sort_range sc.b.data 0 sc.b.len;
  buf_push sc.b max_int;
  let b = sc.b.data in
  let e = tb.slot_edge.(s) and v = tb.slot_vertex.(s) in
  for c = 0 to k - 1 do
    let w = ref offsets.((s * k) + c) and i = ref 0 in
    for j = tb.voff.(v) to tb.voff.(v + 1) - 1 do
      let sv = tb.vslot.(j) in
      let g = tb.slot_edge.(sv) in
      let lo = tb.start.(g) in
      while b.(!i) < lo do
        Bigarray.Array1.unsafe_set adj !w (Int32.of_int ((b.(!i) * k) + c));
        incr w;
        incr i
      done;
      for x = lo to tb.start.(g + 1) - 1 do
        let base = x * k in
        if x = sv || g = e then
          for c' = 0 to k - 1 do
            if c' <> c || x <> sv then begin
              Bigarray.Array1.unsafe_set adj !w (Int32.of_int (base + c'));
              incr w
            end
          done
        else begin
          Bigarray.Array1.unsafe_set adj !w (Int32.of_int (base + c));
          incr w
        end
      done
    done;
    while b.(!i) < max_int do
      Bigarray.Array1.unsafe_set adj !w (Int32.of_int ((b.(!i) * k) + c));
      incr w;
      incr i
    done
  done

(* One unit of bulk work is one triple; one schedulable slice is one
   slot (a slot's k rows are built together).  The calibration constant
   and the clamping rule live in {!Ps_util.Parallel.effective_domains}
   so every ?domains:0 heuristic in the repository resolves the same
   way. *)
let effective_domains ~requested ~nslots ~k =
  Ps_util.Parallel.effective_domains ~requested ~units:(nslots * k)
    ~slices:nslots

let i32_create len =
  Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len

(* Triple ids s·k + c are vertex ids of G_k, so the triple count nslots·k
   must fit the int32 store.  Checked before anything is sized by it, as
   k > limit / nslots: the product itself can wrap for a huge k. *)
let triples_error ~k ~nslots =
  if nslots > 0 && k > G.max_vertices / nslots then
    Some
      (Printf.sprintf
         "k * sum|e| = %d * %d triples exceeds the int32 id limit %d" k nslots
         G.max_vertices)
  else None

let check_k h ~k =
  let nslots = ref 0 in
  for e = 0 to H.n_edges h - 1 do
    nslots := !nslots + H.edge_size h e
  done;
  match triples_error ~k ~nslots:!nslots with
  | None -> Ok ()
  | Some msg -> Error msg

(* The backstop behind [check_k], for callers that skipped it. *)
let check_triples tb ~k =
  match triples_error ~k ~nslots:tb.nslots with
  | None -> ()
  | Some msg -> invalid_arg ("Conflict_graph: " ^ msg)

(* Compute the CSR arrays of G_k, exactly sized.  [domains] must already
   be effective (>= 1, <= nslots).  Parallel runs use a single staged
   fork-join — one spawn set for both passes — and per-domain sharded
   cursors with work stealing ({!Ps_util.Parallel.Sharded_cursor})
   rather than one static slice per domain: slot neighborhoods vary
   wildly in size, and static slices leave the domains that drew cheap
   slots idle, while the single shared cursor this replaces made every
   chunk claim a cross-core cache-line bounce.  Every slot's rows are
   written to a disjoint region whichever domain claims it, so the
   arrays are bit-identical for any domain count and any schedule. *)
let csr_arrays ~k ~domains tb =
  let total = tb.nslots * k in
  let deg = Array.make (max total 1) 0 in
  let offsets = Array.make (total + 1) 0 in
  let prefix_sum () =
    for i = 0 to total - 1 do
      offsets.(i + 1) <- offsets.(i) + deg.(i)
    done
  in
  let adj = ref (i32_create 0) in
  let alloc_adj () = adj := i32_create offsets.(total) in
  if domains <= 1 then begin
    let sc = scratch_create tb in
    Tm.with_span "count_pass" (fun () ->
        for s = 0 to tb.nslots - 1 do
          count_slot tb sc ~k deg s
        done);
    prefix_sum ();
    alloc_adj ();
    Tm.with_span "fill_pass" (fun () ->
        for s = 0 to tb.nslots - 1 do
          fill_slot tb sc ~k offsets !adj s
        done)
  end
  else begin
    let module Cur = Ps_util.Parallel.Sharded_cursor in
    let cursor1 = Cur.create ~domains ~lo:0 ~hi:tb.nslots () in
    let cursor2 = Cur.create ~domains ~lo:0 ~hi:tb.nslots () in
    let scratches =
      Array.init domains (fun _ -> scratch_create tb)
    in
    let t0 = Tm.now_ns () in
    let t1 = ref t0 and t2 = ref t0 in
    Ps_util.Parallel.fork_join_staged ~domains
      ~stage1:(fun d ->
        let sc = scratches.(d) in
        Cur.drain cursor1 d (count_slot tb sc ~k deg))
      ~mid:(fun () ->
        t1 := Tm.now_ns ();
        prefix_sum ();
        alloc_adj ();
        t2 := Tm.now_ns ())
      ~stage2:(fun d ->
        Cur.drain cursor2 d (fill_slot tb scratches.(d) ~k offsets !adj));
    if Tm.enabled () then begin
      let t3 = Tm.now_ns () in
      Tm.add_completed_span ~name:"count_pass" ~start_ns:t0 ~stop_ns:!t1 [];
      Tm.add_completed_span ~name:"fill_pass" ~start_ns:!t2 ~stop_ns:t3 []
    end
  end;
  (offsets, !adj)

let csr_graph ~k ~domains tb =
  let total = tb.nslots * k in
  let offsets, adj = csr_arrays ~k ~domains tb in
  Tm.set_int "csr_rows" total;
  Tm.set_int "csr_edges" (offsets.(total) / 2);
  G.of_csr_prefix total ~offsets ~adj

let build ?(domains = 1) h ~k =
  Tm.with_span "conflict_graph.build" @@ fun () ->
  Tm.set_int "k" k;
  Tm.set_int "domains" domains;
  Tm.set_int "hyperedges" (H.n_edges h);
  let ix = Ix.make h ~k in
  let tb = Tm.with_span "tables" (fun () -> tables_of h) in
  check_triples tb ~k;
  Tm.set_int "slots" tb.nslots;
  let domains = effective_domains ~requested:domains ~nslots:tb.nslots ~k in
  Tm.set_int "domains_effective" domains;
  let graph = csr_graph ~k ~domains tb in
  if Tm.enabled () then begin
    Tm.incr "conflict_graph.builds";
    Tm.count "conflict_graph.csr_rows" (G.n_vertices graph);
    Tm.count "conflict_graph.csr_edges" (G.n_edges graph)
  end;
  { graph; indexer = ix; k }

(* ------------------------------------------------------------------ *)
(* Incremental engine.

   The reduction loop only ever *shrinks* its hypergraph — each phase
   retires the edges that became happy and keeps the rest untouched.
   All three adjacency families are predicates on the two triples and
   their own edges' membership, so the conflict graph of the restricted
   hypergraph is exactly the induced subgraph of G_k on the triples of
   surviving edges.  Rather than rebuilding (tables, indexer, CSR) from
   scratch every phase, the incremental engine builds G_k once and then
   compacts it in place after every retirement.

   Numbering identity (what makes the result bit-identical to a
   rebuild): [Hypergraph.restrict_edges] keeps surviving edges in
   increasing original order with identical member arrays, so the fresh
   indexer of the restricted hypergraph assigns slots — and hence triple
   ids s·k + c — in exactly the order that surviving slots appear in the
   current numbering.  Compaction therefore renumbers alive slots
   monotonically (old order preserved), which also keeps every filtered
   adjacency row sorted with no re-sort.

   Buffers are double-buffered: compaction reads the current offsets/adj
   pair and writes the spare pair (allocated once, at the first compact,
   sized like the originals — rows only ever shrink), then swaps.  The
   graph handed out is an arena view ([Graph.of_csr_prefix]) over the
   current pair, valid until the *next* compact clobbers that buffer. *)

module Incremental = struct
  type state = {
    k : int;
    tb : tables;                    (* tables of the ORIGINAL hypergraph *)
    edge_alive : Bytes.t;           (* per original hyperedge *)
    mutable n_alive : int;          (* alive hyperedges *)
    mutable nslots_cur : int;       (* slots surviving in current numbering *)
    slot_orig : int array;          (* current slot -> original slot *)
    slot_map : int array;           (* compaction scratch: old cur slot -> new *)
    triple_map : int array;         (* compaction scratch: old cur triple -> new *)
    mutable cur_offsets : int array;
    mutable cur_adj : G.i32;
    mutable spare_offsets : int array; (* [||] until the first compact *)
    mutable spare_adj : G.i32;
    mutable graph : G.t;
    mutable dirty : bool;           (* retirements since the last compact *)
  }

  let create ?(domains = 0) h ~k =
    Tm.with_span "conflict_graph.incremental.create" @@ fun () ->
    let m = H.n_edges h in
    let tb = tables_of h in
    check_triples tb ~k;
    let domains = effective_domains ~requested:domains ~nslots:tb.nslots ~k in
    Tm.set_int "domains_effective" domains;
    let offsets, adj = csr_arrays ~k ~domains tb in
    { k;
      tb;
      edge_alive = Bytes.make (max m 1) '\001';
      n_alive = m;
      nslots_cur = tb.nslots;
      slot_orig = Array.init (max tb.nslots 1) (fun s -> s);
      slot_map = Array.make (max tb.nslots 1) (-1);
      triple_map = Array.make (max (tb.nslots * k) 1) (-1);
      cur_offsets = offsets;
      cur_adj = adj;
      spare_offsets = [||];
      spare_adj = i32_create 0;
      graph = G.of_csr_prefix (tb.nslots * k) ~offsets ~adj;
      dirty = false }

  let graph st = st.graph
  let k st = st.k
  let n_alive_edges st = st.n_alive

  (* ---- Phase-0 snapshots (warm start) ----

     A snapshot captures the expensive product of [create] — the fully
     enumerated phase-0 CSR — as an immutable value that outlives the
     state (whose buffers are clobbered by later compacts).  A later
     solve over the *same* hypergraph with the same k can then rebuild
     its state from the snapshot with two array copies plus the cheap
     O(sum |e|) [tables_of] pass, skipping the neighborhood enumeration
     entirely.  Identity of the resulting state (and hence of the whole
     solve) with a cold [create] is immediate: every field is
     recomputed from [h] except the CSR pair, which is a value-equal
     copy of what [csr_arrays] produced. *)

  type snapshot = {
    snap_k : int;
    snap_nslots : int;
    snap_offsets : int array;
    snap_adj : G.i32;
  }

  let copy_store a =
    let b = i32_create (Bigarray.Array1.dim a) in
    Bigarray.Array1.blit a b;
    b

  let snapshot st =
    if st.dirty || st.nslots_cur <> st.tb.nslots then
      invalid_arg "Conflict_graph.Incremental.snapshot: not at phase 0";
    { snap_k = st.k;
      snap_nslots = st.tb.nslots;
      snap_offsets = Array.copy st.cur_offsets;
      snap_adj = copy_store st.cur_adj }

  let snapshot_k s = s.snap_k

  let snapshot_bytes s =
    (8 * Array.length s.snap_offsets) + (4 * Bigarray.Array1.dim s.snap_adj)

  let create_from_snapshot h snap =
    Tm.with_span "conflict_graph.incremental.warm_create" @@ fun () ->
    let m = H.n_edges h in
    let tb = tables_of h in
    if tb.nslots <> snap.snap_nslots then
      invalid_arg
        "Conflict_graph.Incremental.create_from_snapshot: hypergraph does \
         not match the snapshot";
    let k = snap.snap_k in
    let offsets = Array.copy snap.snap_offsets in
    let adj = copy_store snap.snap_adj in
    if Tm.enabled () then begin
      Tm.incr "conflict_graph.warm_starts";
      Tm.count "conflict_graph.warm_bytes" (snapshot_bytes snap)
    end;
    { k;
      tb;
      edge_alive = Bytes.make (max m 1) '\001';
      n_alive = m;
      nslots_cur = tb.nslots;
      slot_orig = Array.init (max tb.nslots 1) (fun s -> s);
      slot_map = Array.make (max tb.nslots 1) (-1);
      triple_map = Array.make (max (tb.nslots * k) 1) (-1);
      cur_offsets = offsets;
      cur_adj = adj;
      spare_offsets = [||];
      spare_adj = i32_create 0;
      graph = G.of_csr_prefix (tb.nslots * k) ~offsets ~adj;
      dirty = false }

  (* Current conflict-graph vertex id -> triple over the ORIGINAL
     hypergraph (global edge ids, not restricted-local ones).  Edge
     membership is unchanged by restriction, so every consumer of the
     triple — coloring extraction, happiness checks, audits — sees the
     same answers it would get from the rebuild path's local triple. *)
  let decode st id =
    let os = st.slot_orig.(id / st.k) in
    { Triple.edge = st.tb.slot_edge.(os);
      vertex = st.tb.slot_vertex.(os);
      color = id mod st.k }

  let retire_edges st dead =
    List.iter
      (fun e ->
        if e < 0 || e >= Bytes.length st.edge_alive then
          invalid_arg "Conflict_graph.Incremental.retire_edges: bad edge";
        if Bytes.get st.edge_alive e <> '\000' then begin
          Bytes.set st.edge_alive e '\000';
          st.n_alive <- st.n_alive - 1;
          st.dirty <- true
        end)
      dead

  let slot_alive st s =
    Bytes.get st.edge_alive st.tb.slot_edge.(st.slot_orig.(s)) <> '\000'

  let compact st =
    if st.dirty then begin
      Tm.with_span "conflict_graph.compact" @@ fun () ->
      if Array.length st.spare_offsets = 0 then begin
        (* First compact: allocate the write buffers once, sized like
           the phase-0 arrays — the graph only ever shrinks. *)
        st.spare_offsets <- Array.make (Array.length st.cur_offsets) 0;
        st.spare_adj <- i32_create (Bigarray.Array1.dim st.cur_adj)
      end
      else if Tm.enabled () then
        Tm.count "conflict_graph.reused_bytes"
          ((8 * Array.length st.spare_offsets)
          + (4 * Bigarray.Array1.dim st.spare_adj));
      let k = st.k in
      (* Monotone renumbering of surviving slots, expanded to triple ids
         in [triple_map] so the copy loop below remaps with one array
         read per adjacency entry — no division by [k] on the hot path
         (the adj scan touches every entry; the expansion is only
         O(nslots·k)). *)
      let nslots' = ref 0 in
      let tmap = st.triple_map in
      for s = 0 to st.nslots_cur - 1 do
        if slot_alive st s then begin
          let s' = !nslots' in
          st.slot_map.(s) <- s';
          for c = 0 to k - 1 do
            tmap.((s * k) + c) <- (s' * k) + c
          done;
          incr nslots'
        end
        else begin
          st.slot_map.(s) <- -1;
          for c = 0 to k - 1 do
            tmap.((s * k) + c) <- -1
          done
        end
      done;
      (* Filter + remap every surviving row into the spare buffers.
         Increasing old slots map to increasing new slots, so rows stay
         sorted without re-sorting. *)
      let woff = st.spare_offsets in
      let roff = st.cur_offsets in
      let radj = st.cur_adj and wadj = st.spare_adj in
      let w = ref 0 in
      woff.(0) <- 0;
      for s = 0 to st.nslots_cur - 1 do
        let s' = st.slot_map.(s) in
        if s' >= 0 then
          for c = 0 to k - 1 do
            let row = (s * k) + c in
            for i = roff.(row) to roff.(row + 1) - 1 do
              let x = Int32.to_int (Bigarray.Array1.unsafe_get radj i) in
              let x' = tmap.(x) in
              if x' >= 0 then begin
                Bigarray.Array1.unsafe_set wadj !w (Int32.of_int x');
                incr w
              end
            done;
            woff.((s' * k) + c + 1) <- !w
          done
      done;
      (* Compact [slot_orig] in place: new ids never exceed old ids, so
         the increasing walk cannot clobber unread entries. *)
      for s = 0 to st.nslots_cur - 1 do
        let s' = st.slot_map.(s) in
        if s' >= 0 then st.slot_orig.(s') <- st.slot_orig.(s)
      done;
      st.nslots_cur <- !nslots';
      let o = st.cur_offsets and a = st.cur_adj in
      st.cur_offsets <- st.spare_offsets;
      st.cur_adj <- st.spare_adj;
      st.spare_offsets <- o;
      st.spare_adj <- a;
      st.dirty <- false;
      let total = !nslots' * k in
      Tm.set_int "csr_rows" total;
      Tm.set_int "csr_edges" (st.cur_offsets.(total) / 2);
      st.graph <- G.of_csr_prefix total ~offsets:st.cur_offsets ~adj:st.cur_adj
    end
end

let iter_neighbors_implicit h ix (t : Triple.t) f =
  let k = Ix.k ix in
  if not (validate h ~k t) then
    invalid_arg "Conflict_graph.iter_neighbors_implicit: invalid triple";
  let self = Ix.encode ix t in
  let seen = Hashtbl.create 64 in
  let emit (u : Triple.t) =
    let idx = Ix.encode ix u in
    if idx <> self && not (Hashtbl.mem seen idx) then begin
      Hashtbl.add seen idx ();
      f u
    end
  in
  (* Same hyperedge: every other triple of edge e. *)
  List.iter emit (Ix.triples_of_edge ix t.edge);
  (* E_vertex: triples of vertex v whose color differs. *)
  List.iter
    (fun (u : Triple.t) -> if u.color <> t.color then emit u)
    (Ix.triples_of_vertex ix t.vertex);
  (* E_color (u ≠ v): (g,u,c) for u ∈ e \ {v} (any g ∋ u), and (g,u,c)
     for g ∋ v, u ∈ g \ {v}. *)
  H.iter_edge h t.edge (fun u ->
      if u <> t.vertex then
        List.iter
          (fun g -> emit { Triple.edge = g; vertex = u; color = t.color })
          (H.incident_edges h u));
  List.iter
    (fun g ->
      H.iter_edge h g (fun u ->
          if u <> t.vertex then
            emit { Triple.edge = g; vertex = u; color = t.color }))
    (H.incident_edges h t.vertex)

let size_formula h ~k =
  let sum = ref 0 in
  for e = 0 to H.n_edges h - 1 do
    sum := !sum + H.edge_size h e
  done;
  k * !sum

let to_dot h ~k =
  let ix = Ix.make h ~k in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "graph conflict_graph {\n  node [shape=box];\n";
  Ix.iter ix (fun t ->
      Buffer.add_string buf
        (Printf.sprintf "  %d [label=\"(e%d,v%d,c%d)\"];\n"
           (Ix.encode ix t) t.Triple.edge t.Triple.vertex t.Triple.color));
  Ix.iter ix (fun t1 ->
      let i1 = Ix.encode ix t1 in
      Ix.iter ix (fun t2 ->
          let i2 = Ix.encode ix t2 in
          if i1 < i2 then begin
            let color =
              if t1.vertex = t2.vertex && t1.color <> t2.color then
                Some "red" (* E_vertex *)
              else if t1.edge = t2.edge then Some "blue" (* E_edge *)
              else if
                t1.color = t2.color
                && t1.vertex <> t2.vertex
                && (H.edge_mem h t1.edge t2.vertex
                   || H.edge_mem h t2.edge t1.vertex)
              then Some "green" (* E_color *)
              else None
            in
            match color with
            | Some c ->
                Buffer.add_string buf
                  (Printf.sprintf "  %d -- %d [color=%s];\n" i1 i2 c)
            | None -> ()
          end));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

type family_counts = {
  n_vertex_family : int;
  n_edge_family : int;
  n_color_family : int;
  n_union : int;
}

let edge_family_counts h ~k =
  let ix = Ix.make h ~k in
  let n_vertex = ref 0 and n_edge = ref 0 and n_color = ref 0 in
  let n_union = ref 0 in
  Ix.iter ix (fun t1 ->
      let i1 = Ix.encode ix t1 in
      Ix.iter ix (fun t2 ->
          let i2 = Ix.encode ix t2 in
          if i1 < i2 then begin
            let in_vertex = t1.vertex = t2.vertex && t1.color <> t2.color in
            let in_edge = t1.edge = t2.edge in
            let in_color =
              t1.color = t2.color
              && t1.vertex <> t2.vertex
              && (H.edge_mem h t1.edge t2.vertex
                 || H.edge_mem h t2.edge t1.vertex)
            in
            if in_vertex then incr n_vertex;
            if in_edge then incr n_edge;
            if in_color then incr n_color;
            if in_vertex || in_edge || in_color then incr n_union
          end));
  { n_vertex_family = !n_vertex;
    n_edge_family = !n_edge;
    n_color_family = !n_color;
    n_union = !n_union }
