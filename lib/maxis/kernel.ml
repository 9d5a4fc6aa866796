module G = Ps_graph.Graph
module B = Ps_util.Bitset
module Tm = Ps_util.Telemetry

type stats = {
  original_vertices : int;
  original_edges : int;
  kernel_vertices : int;
  kernel_edges : int;
  isolated : int;
  pendants : int;
  folds : int;
  simplicial : int;
  dominated : int;
}

(* The input store, the row pool and the kernel's store are int32
   Bigarrays, read and written through [get] and [set], so a row walk
   reads a base in the input store or in the pool through one accessor. *)
let[@inline] get (a : G.i32) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)
let[@inline] set (a : G.i32) i x = Bigarray.Array1.unsafe_set a i (Int32.of_int x)
let i32 n : G.i32 = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n

(* A copy of the first [used] entries of [a] in a store that holds at
   least [need] entries and twice as many as [a]: the slow path of the
   growable pool, which checks its room first. *)
let grow (a : G.i32) ~used need =
  let b = i32 (max need (2 * Bigarray.Array1.dim a)) in
  for i = 0 to used - 1 do
    Bigarray.Array1.unsafe_set b i (Bigarray.Array1.unsafe_get a i)
  done;
  b

(* Every other per-call store lives in [Bytes]: the GC does not scan
   it, and counts it as the heap words it is.  A Bigarray would be
   custom memory, whose accounting paces major cycles by the size of
   the major heap — small here, since the graph itself is Bigarrays — so
   a reduce that kept its per-vertex state in Bigarrays ran more major
   cycles than the boxed arrays it replaced (measured in CHANGES.md). *)
type ints = Bytes.t

external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] iget (a : ints) i = Int32.to_int (get32u a (i lsl 2))
let[@inline] iset (a : ints) i x = set32u a (i lsl 2) (Int32.of_int x)
let ints n : ints = Bytes.create (4 * n)
let izeros n : ints = Bytes.make (4 * n) '\000'
let ilen (a : ints) = Bytes.length a lsr 2

(* [grow] for [ints]. *)
let igrow (a : ints) ~used need =
  let b = ints (max need (2 * ilen a)) in
  Bytes.blit a 0 b 0 (4 * used);
  b

(* Undo journal, recorded in application order and replayed in reverse.
   [Take v]: v joins the solution; its whole closed neighborhood (in the
   working graph at that moment) was retired with it.  [Fold (v, u, w)]:
   degree-2 center v with non-adjacent neighbors u, w merged into one
   vertex reusing v's id — selected merged vertex means "take u and w",
   unselected means "take v".  Dominated deletions need no journal
   entry: the deleted vertex stays out and the vertex_addition repair
   re-adds it whenever that is still safe.

   The journal is an int32 store, oldest entry first: a take is the one
   entry [v], a fold the three entries [u; w; -(v + 1)], so a reverse
   walk meets the fold's negative marker before its endpoints. *)

type t = {
  original : G.t;
  kernel : G.t;
  to_orig : int array;
  journal : ints;
  journal_len : int;  (* entries in use *)
  stats : stats;
}

let graph t = t.kernel
let to_original t = t.to_orig
let stats t = t.stats

let shrink_ratio s =
  if s.original_vertices = 0 then 0.0
  else float_of_int s.kernel_vertices /. float_of_int s.original_vertices

let default_rule_cap = 16

(* Work budget of the quadratic tier (the degree >= 3 branch of
   [reduce]): it runs while the row entries it has walked stay within
   [tier_base + tier_per_removed * removed], [removed] counting the
   vertices its rules retired.  Where the tier pays (4-uniform [G_3]:
   one removal per 356-1319 entries) the budget never runs out; where
   it removes nothing (G(n,p) at average degree 8) it runs out after
   a few thousand gate checks.  Measured basis in kernel.mli. *)
let tier_base = 1 lsl 16
let tier_per_removed = 4096

(* Mutable working graph over the input CSR, in unboxed int32 stores
   the GC never scans.  Per vertex there are three: [deg], the count of
   live entries in its row, or -1 once the vertex is retired (a live
   vertex adjacent to a live one has degree >= 1, so no decrement ever
   reaches -1); [mark], the generation stamps of the quadratic tier's
   neighborhood scans; and [ext], the vertex's row record, 0 while its
   row is the untouched input row.

   A row is two segments, walked in order.  Its {e base} is read in
   place from the input's store at [offsets.(v)] while the row is
   borrowed, and from the working pool once a rule has rewritten it: a
   fold's merged row, or a row [compact_row] compacted.  Its {e append
   segment} holds the merged vertices later folds linked to it, in link
   order, so linking never copies the base.  A row's record, four
   entries of the [side] store at [ext.(v)], is [home] (the base's pool
   index, -1 while borrowed), [len] (the base's physical length; a
   borrowed base has the input row's), [ahome] and [alen] (the append
   segment's pool index and length).  [side.(0 .. 3)] is the record of
   every untouched row: borrowed, no appends.  The input store, which
   other readers may share (portfolio lanes, the serve cache), is never
   written, and a pass where no rule fires writes no pool entry.  The
   pool and [side] are growable stores, one of each per call; a segment
   that moves leaves its old entries behind as garbage.

   Rows are never physically cleaned — dead entries are skipped through
   [deg] — so the physical length (base plus appends) is what
   compaction and the tier budget count.  Among live entries every row
   is duplicate-free: the CSR starts that way, and a fold only links the
   merged vertex to vertices it was not adjacent to before (its center
   had degree 2). *)
type work = {
  deg : ints;  (* -1 once retired *)
  offsets : int array;  (* the input's, read-only *)
  store : G.i32;  (* the input's, read-only *)
  ext : ints;  (* index of the row's record in [side]; 0 untouched *)
  mutable side : ints;
  mutable stop : int;  (* [side] entries handed out *)
  mutable pool : G.i32;
  mutable top : int;  (* pool entries handed out *)
  mutable owned : int;  (* rows whose base moved to the pool *)
  mutable links : int;  (* merged-row entries written by folds *)
  (* nodes_by_degree bucket queue (lazy entries: a vertex may sit in
     several buckets; staleness is detected on pop). *)
  buckets : ints array;
  bfill : int array;
  mutable cursor : int;
  cap : int;
  mutable mark : ints;
  mutable gen : int;
  mutable walked : int;  (* row entries the quadratic tier has walked *)
  mutable journal : ints;
  mutable jlen : int;
}

let[@inline] live w x = iget w.deg x >= 0
let[@inline] retire w x = iset w.deg x (-1)

(* Row geometry, read through the record (untouched rows read the
   shared one at 0). *)
let[@inline] home w v = iget w.side (iget w.ext v)
let[@inline] alen w v = iget w.side (iget w.ext v + 3)

let[@inline] base_len w v =
  let e = iget w.ext v in
  if iget w.side e < 0 then
    Array.unsafe_get w.offsets (v + 1) - Array.unsafe_get w.offsets v
  else iget w.side (e + 1)

let[@inline] row_len w v = base_len w v + alen w v

(* Segment [s] (0 = base, 1 = appends) of [v]'s row: the store it sits
   in, its first index and its length.  Hot walks loop over both. *)
let[@inline] seg_src w v s = if s = 1 || home w v >= 0 then w.pool else w.store

let[@inline] seg_lo w v s =
  if s = 1 then iget w.side (iget w.ext v + 2)
  else
    let h = home w v in
    if h < 0 then Array.unsafe_get w.offsets v else h

let[@inline] seg_len w v s = if s = 0 then base_len w v else alen w v

(* Entry [i] of [v]'s row in row order: the reader of the cold paths
   (small rows, and the budgeted tier). *)
let entry w v i =
  let l = base_len w v in
  if i < l then get (seg_src w v 0) (seg_lo w v 0 + i)
  else get w.pool (seg_lo w v 1 + i - l)

(* [k] fresh pool entries; returns the first index.  The pool may move,
   so callers read [w.pool] after this. *)
let alloc w k =
  let p = w.top in
  if p + k > Bigarray.Array1.dim w.pool then
    w.pool <- grow w.pool ~used:p (p + k);
  w.top <- p + k;
  p

(* [v]'s own record, made (borrowed, no appends) on first use. *)
let record w v =
  let e = iget w.ext v in
  if e <> 0 then e
  else begin
    let e = w.stop in
    if e + 4 > ilen w.side then w.side <- igrow w.side ~used:e (e + 4);
    w.stop <- e + 4;
    iset w.side e (-1);
    iset w.side (e + 1) 0;
    iset w.side (e + 2) 0;
    iset w.side (e + 3) 0;
    iset w.ext v e;
    e
  end

(* Make [v]'s base the [len] pool entries at [home], with no appends. *)
let rebase w v ~home ~len =
  let e = record w v in
  if iget w.side e < 0 then w.owned <- w.owned + 1;
  iset w.side e home;
  iset w.side (e + 1) len;
  iset w.side (e + 3) 0

let log w x =
  let j = w.jlen in
  if j = ilen w.journal then w.journal <- igrow w.journal ~used:j (j + 1);
  iset w.journal j x;
  w.jlen <- j + 1

(* A fresh generation for [mark], which is made on first use (a pass
   whose tier never runs needs none).  Stamps are int32, so before [gen]
   could leave that range the marks start over from zero: no stale
   stamp ever equals a live generation. *)
let next_gen w =
  if w.gen = 0 || w.gen = Int32.to_int Int32.max_int then begin
    w.mark <- izeros (ilen w.deg);
    w.gen <- 0
  end;
  w.gen <- w.gen + 1;
  w.gen

(* Queue [v], whose degree is now [d]. *)
let[@inline] push w v d =
  if d <= w.cap then begin
    let fill = Array.unsafe_get w.bfill d in
    let b = Array.unsafe_get w.buckets d in
    let b =
      if fill < ilen b then b
      else begin
        let b' = igrow b ~used:fill (fill + 1) in
        w.buckets.(d) <- b';
        b'
      end
    in
    iset b fill v;
    Array.unsafe_set w.bfill d (fill + 1);
    if d < w.cursor then w.cursor <- d
  end

(* Link [x] at the end of [v]'s row.  The append segment starts with
   room for one and moves to twice its room whenever it fills, so its
   room is always the smallest power of two >= its length. *)
let append w v x =
  let e = record w v in
  let a = iget w.side (e + 3) in
  if a = 0 then iset w.side (e + 2) (alloc w 1)
  else if a land (a - 1) = 0 then begin
    let h = alloc w (2 * a) and old = iget w.side (e + 2) in
    let pool = w.pool in
    for i = 0 to a - 1 do
      set pool (h + i) (get pool (old + i))
    done;
    iset w.side (e + 2) h
  end;
  set w.pool (iget w.side (e + 2) + a) x;
  iset w.side (e + 3) (a + 1)

(* Retire [v]: live neighbors lose a degree and get re-examined.  The
   walk does not branch on liveness, which is close to a coin flip per
   entry (on the suite's R-MAT, 56% of the entries kills walk are
   live): [d - 1 - (d asr 62)] takes a live degree d >= 1 to d - 1 and
   leaves a dead -1 as it is, and [d lor (cap - d) >= 0] holds exactly
   when 0 <= d <= cap. *)
let kill w v =
  retire w v;
  for s = 0 to 1 do
    let src = seg_src w v s and lo = seg_lo w v s in
    for i = lo to lo + seg_len w v s - 1 do
      let x = get src i in
      let d = iget w.deg x in
      let d = d - 1 - (d asr 62) in
      iset w.deg x d;
      if d lor (w.cap - d) >= 0 then push w x d
    done
  done

(* Drop dead entries from [v]'s row once they outnumber the live ones,
   into one base segment: in place when the base is already in the pool
   and long enough, into fresh pool room otherwise.  Scans amortize
   against the kills that created the dead entries, keeping every row
   walk within 2x the live degree. *)
let compact_row w v =
  let d = iget w.deg v in
  if row_len w v > 2 * d then begin
    let h = home w v in
    let dst = if h >= 0 && d <= base_len w v then h else alloc w d in
    let pool = w.pool in
    let j = ref dst in
    for s = 0 to 1 do
      let src = seg_src w v s and lo = seg_lo w v s in
      for i = lo to lo + seg_len w v s - 1 do
        let x = get src i in
        if live w x then begin
          set pool !j x;
          incr j
        end
      done
    done;
    rebase w v ~home:dst ~len:(!j - dst)
  end

let live_neighbors w v =
  compact_row w v;
  let out = Array.make (iget w.deg v) 0 in
  let j = ref 0 in
  for s = 0 to 1 do
    let src = seg_src w v s and lo = seg_lo w v s in
    for i = lo to lo + seg_len w v s - 1 do
      let x = get src i in
      if live w x then begin
        Array.unsafe_set out !j x;
        incr j
      end
    done
  done;
  out

(* Are the two live vertices [u] and [x] adjacent?  Membership in the
   shorter physical row is exact: dead entries only name dead vertices,
   and live entries are duplicate-free. *)
let adjacent w u x =
  let u, x = if row_len w u <= row_len w x then (u, x) else (x, u) in
  let n = row_len w u in
  let rec go i = i < n && (entry w u i = x || go (i + 1)) in
  go 0

(* Witness gate for the simplicial/domination scan at a vertex [v] of
   degree d >= 3 whose closed neighborhood is stamped [gen]: does the
   row of its neighbor [a] hold a stamped entry other than [v] — a
   triangle v-a-x?  Without one neither rule can fire.  A passing
   neighbor u has |N(u) ∩ N[v]| >= d, so u is adjacent to every other
   neighbor of v: if u <> a then u is a stamped entry of a's row, and
   if u = a then a's row holds the d - 1 >= 2 other neighbors of v.
   A simplicial v has every neighbor passing.  Stamps are fresh, so a
   stamped entry is live and the walk needs no liveness read; [a] is
   picked as v's least-degree neighbor to keep it short. *)
let witness w a v gen =
  compact_row w a;
  let n = row_len w a in
  let i = ref 0 in
  while
    !i < n
    && (let x = entry w a !i in
        x = v || iget w.mark x <> gen)
  do
    incr i
  done;
  w.walked <- w.walked + min n (!i + 1);
  !i < n

(* One side of a fold's gather: each live entry of [src]'s row other
   than the center [v] loses the degree it owed [src], and on its first
   visit is written at [p - 1], going down.  Returns the new [p].  A
   gathered vertex is marked in [deg] itself, as [-2 - degree], so a
   second visit reads one store, not two; [fold] clears the marks. *)
let collect w src v p =
  let pool = w.pool in
  let p = ref p in
  for s = 0 to 1 do
    let rs = seg_src w src s and lo = seg_lo w src s in
    for i = lo to lo + seg_len w src s - 1 do
      let x = get rs i in
      let d = iget w.deg x in
      if d >= 0 then begin
        if x <> v then begin
          iset w.deg x (-1 - d);
          decr p;
          set pool !p x
        end
      end
      else if d <= -2 then iset w.deg x (d + 1)
    done
  done;
  !p

(* Fold the degree-2 center [v] with non-adjacent neighbors [u], [x]:
   the merged vertex reuses [v]'s id, its row becomes the live union
   N(u) ∪ N(x) minus the triple, and every union member swaps its dead
   endpoint(s) for one link to the merged vertex.  The union is
   gathered straight into pool room sized by the two degrees, written
   downward, so the merged row lists the members newest-first, and the
   members are linked in that same order. *)
let fold w v u x =
  let room = iget w.deg u - 1 + (iget w.deg x - 1) in
  let top = alloc w room + room in
  let lo = collect w x v (collect w u v top) in
  retire w u;
  retire w x;
  for i = lo to top - 1 do
    let y = get w.pool i in
    let d = -1 - iget w.deg y in
    iset w.deg y d;
    append w y v;
    push w y d
  done;
  let size = top - lo in
  rebase w v ~home:lo ~len:size;
  iset w.deg v size;
  w.links <- w.links + size;
  log w u;
  log w x;
  log w (-v - 1);
  push w v size

(* Sort the int32 range [a.(lo .. hi-1)] through the int scratch [buf],
   grown as needed. *)
let sort_row (a : G.i32) lo hi buf =
  let k = hi - lo in
  if Array.length !buf < k then buf := Array.make (max k (2 * Array.length !buf)) 0;
  let b = !buf in
  for i = 0 to k - 1 do
    Array.unsafe_set b i (get a (lo + i))
  done;
  Ps_util.Intsort.sort_range b 0 k;
  for i = 0 to k - 1 do
    set a (lo + i) (Array.unsafe_get b i)
  done

(* The renumbering of the survivors, in half the bytes of an int32
   map: the kernel id of a survivor [x] is [base.(x lsr 15)] plus its
   rank among the survivors of its 2^15-vertex block, which fits in 16
   bits, at [rank.[2x]]; a retired [x] reads [retired].  Emit's lookups
   land at random, so the smaller the map, the more of it the cache
   holds.  The map is monotone. *)
type renumbering = { rank : Bytes.t; base : int array }

let retired = 0xffff

let renumber w n =
  let rank = Bytes.create (2 * n) in
  let base = Array.make ((n lsr 15) + 1) 0 in
  let n_k = ref 0 in
  for v = 0 to n - 1 do
    if v land 0x7fff = 0 then base.(v lsr 15) <- !n_k;
    if live w v then begin
      set16u rank (2 * v) (!n_k - base.(v lsr 15));
      incr n_k
    end
    else set16u rank (2 * v) retired
  done;
  ({ rank; base }, !n_k)

(* [x]'s kernel id, -1 when retired. *)
let[@inline] kernel_id r x =
  let d = get16u r.rank (2 * x) in
  if d = retired then -1 else Array.unsafe_get r.base (x lsr 15) + d

(* Write the survivors' live rows as the kernel CSR, renumbered through
   the monotone map [r], straight into an int32 store in one
   pass (kernel ids are below the input's, so they fit).  Live rows are
   duplicate-free, so each is written once with no dedup.  Renumbering
   keeps the input CSR's sorted order, so only rows a fold touched — a
   merged vertex's union row, or a row with an append segment — can
   come out unsorted; the pass notices, and sorts those alone.  A dead
   entry maps to -1, so the pass reads [r] alone, never [deg]. *)
let emit w r ~to_orig =
  let n_k = Array.length to_orig in
  let offsets = Array.make (n_k + 1) 0 in
  for k = 0 to n_k - 1 do
    offsets.(k + 1) <- offsets.(k) + iget w.deg (Array.unsafe_get to_orig k)
  done;
  let adj = i32 offsets.(n_k) in
  let buf = ref [||] in
  for k = 0 to n_k - 1 do
    let v = Array.unsafe_get to_orig k in
    let j = ref offsets.(k) in
    if iget w.ext v = 0 then
      (* An untouched row: sorted, so its image is too. *)
      for i = Array.unsafe_get w.offsets v
          to Array.unsafe_get w.offsets (v + 1) - 1 do
        let y = kernel_id r (get w.store i) in
        if y >= 0 then begin
          set adj !j y;
          incr j
        end
      done
    else begin
      let sorted = ref true and prev = ref (-1) in
      for s = 0 to 1 do
        let src = seg_src w v s and lo = seg_lo w v s in
        for i = lo to lo + seg_len w v s - 1 do
          let y = kernel_id r (get src i) in
          if y >= 0 then begin
            if y < !prev then sorted := false;
            prev := y;
            set adj !j y;
            incr j
          end
        done
      done;
      if not !sorted then sort_row adj offsets.(k) !j buf
    end
  done;
  G.of_csr n_k ~offsets ~adj

(* Only rules retire vertices, so a pass where none fired leaves the
   graph as its own kernel. *)
let fired st =
  st.isolated + st.pendants + st.folds + st.simplicial + st.dominated > 0

(* The telemetry of every kernelization, whichever path runs after the
   rule loop. *)
let note_stats st =
  if Tm.enabled () then begin
    Tm.set_int "original_vertices" st.original_vertices;
    Tm.set_int "kernel_vertices" st.kernel_vertices;
    if fired st then begin
      Tm.set_int "folds" st.folds;
      Tm.count "kernel.vertices_removed"
        (st.original_vertices - st.kernel_vertices)
    end;
    Tm.incr "kernel.reductions"
  end

(* The rule loop shared by [reduce] and the first-fit path of [solve]:
   applies the rules to [g]'s working state and returns that state with
   the rule counts, in stats whose kernel is still the input's size. *)
let rules ~rule_cap g =
  let n = G.n_vertices g in
  let view = G.csr_view g in
  let offsets = view.G.v_offsets in
  let deg = ints n in
  let count = Array.make (rule_cap + 1) 0 in
  for v = 0 to n - 1 do
    let d = offsets.(v + 1) - offsets.(v) in
    iset deg v d;
    if d <= rule_cap then count.(d) <- count.(d) + 1
  done;
  (* Counting-sort bucket init: each bucket holds its vertices in
     increasing order, as pushing 0 .. n-1 would leave it. *)
  let buckets = Array.map (fun c -> ints (max 8 c)) count in
  let bfill = Array.make (rule_cap + 1) 0 in
  for v = 0 to n - 1 do
    let d = iget deg v in
    if d <= rule_cap then begin
      iset buckets.(d) bfill.(d) v;
      bfill.(d) <- bfill.(d) + 1
    end
  done;
  let side = izeros 64 in
  iset side 0 (-1);
  let w =
    { deg;
      offsets;
      store = view.G.v_store;
      ext = izeros n;
      side;
      stop = 4;
      pool = i32 64;
      top = 0;
      owned = 0;
      links = 0;
      buckets;
      bfill;
      cursor = 0;
      cap = rule_cap;
      mark = Bytes.empty;
      gen = 0;
      walked = 0;
      journal = ints 64;
      jlen = 0 }
  in
  let isolated = ref 0
  and pendants = ref 0
  and folds = ref 0
  and simplicial = ref 0
  and dominated = ref 0 in
  let scans = ref 0 and scan_skips = ref 0 and removed = ref 0 in
  let take v nbrs =
    log w v;
    kill w v;
    for i = 0 to Array.length nbrs - 1 do
      if live w nbrs.(i) then kill w nbrs.(i)
    done
  in
  (* With N[v] stamped [gen], a neighbor u has c(u) = |N(u) ∩ N[v]|
     >= d exactly when N[v] ⊆ N[u].  All neighbors passing means N(v)
     is a clique (v is simplicial — take it); the first passing
     neighbor in row order is dominated and can be deleted. *)
  let scan v d gen =
    let all_clique = ref true and drop = ref (-1) in
    w.walked <- w.walked + row_len w v;
    for i = 0 to row_len w v - 1 do
      let u = entry w v i in
      if live w u then
        (* c(u) <= deg(u), so a neighbor below the threshold cannot
           pass — skip its row walk entirely. *)
        if iget w.deg u < d then all_clique := false
        else begin
          compact_row w u;
          let c = ref 0 in
          let len = row_len w u in
          let j = ref 0 in
          (* Abort as soon as the remaining entries cannot lift the
             count to the threshold. *)
          while !j < len && !c + (len - !j) >= d do
            let x = entry w u !j in
            if live w x && iget w.mark x = gen then incr c;
            incr j
          done;
          w.walked <- w.walked + !j;
          if !c >= d then begin
            if !drop < 0 then drop := u
          end
          else all_clique := false
        end
    done;
    if !all_clique then begin
      take v (live_neighbors w v);
      incr simplicial;
      removed := !removed + d + 1
    end
    else if !drop >= 0 then begin
      kill w !drop;
      incr dominated;
      incr removed
    end
  in
  let tier_spent () = w.walked > tier_base + (tier_per_removed * !removed) in
  let process v =
    let d = iget w.deg v in
    if d = 0 then begin
      log w v;
      retire w v;
      incr isolated
    end
    else if d = 1 then begin
      take v (live_neighbors w v);
      incr pendants
    end
    else if d = 2 then begin
      (* At degree 2 one adjacency test decides everything: adjacent
         neighbors mean N(v) is a clique (v simplicial, and domination
         by either neighbor coincides with this case); non-adjacent
         neighbors fold. *)
      let nbrs = live_neighbors w v in
      if adjacent w nbrs.(0) nbrs.(1) then begin
        take v nbrs;
        incr simplicial
      end
      else begin
        fold w v nbrs.(0) nbrs.(1);
        incr folds
      end
    end
    else if not (tier_spent ()) then begin
      (* One pass over v's row stamps N[v], sums the neighbor degrees
         for the budget below and picks the live neighbor [a] of least
         degree for the witness gate.  Only the tier moves [w.walked]
         and [removed], so once its budget is spent it stays off and a
         vertex popped here costs only its pop. *)
      compact_row w v;
      let gen = next_gen w in
      iset w.mark v gen;
      let sdeg = ref 0 and a = ref (-1) and da = ref max_int in
      w.walked <- w.walked + row_len w v;
      for i = 0 to row_len w v - 1 do
        let u = entry w v i in
        if live w u then begin
          let du = iget w.deg u in
          sdeg := !sdeg + du;
          iset w.mark u gen;
          if du < !da then begin
            a := u;
            da := du
          end
        end
      done;
      (* The scan costs one row walk per neighbor, Σ deg(u) in total.
         A v with a clique neighborhood has Σ deg(u) >= d(d-1), so a
         16·cap budget still admits every clique the cap admits; what
         it skips are low-degree vertices wired into much denser
         surroundings, where these rules essentially never fire but
         their check is at its most expensive (conservative: rules
         only ever apply on positive proof). *)
      if !sdeg <= 16 * w.cap then
        if witness w !a v gen then begin
          incr scans;
          scan v d gen
        end
        else incr scan_skips
    end
  in
  while w.cursor <= rule_cap do
    let d = w.cursor in
    let fill = w.bfill.(d) in
    if fill = 0 then w.cursor <- d + 1
    else begin
      let v = iget w.buckets.(d) (fill - 1) in
      w.bfill.(d) <- fill - 1;
      if iget w.deg v = d then process v
    end
  done;
  if Tm.enabled () then begin
    Tm.count "kernel.scans" !scans;
    Tm.count "kernel.scan_skips" !scan_skips;
    Tm.count "kernel.rows_owned" w.owned;
    Tm.count "kernel.fold_links" w.links;
    Tm.count "kernel.quadratic_work" w.walked;
    Tm.count "kernel.quadratic_removed" !removed;
    Tm.count "kernel.quadratic_exhausted" (Bool.to_int (tier_spent ()))
  end;
  ( w,
    { original_vertices = n;
      original_edges = G.n_edges g;
      kernel_vertices = n;
      kernel_edges = G.n_edges g;
      isolated = !isolated;
      pendants = !pendants;
      folds = !folds;
      simplicial = !simplicial;
      dominated = !dominated } )

let reduce ?(rule_cap = default_rule_cap) g =
  Tm.with_span "kernel.reduce" @@ fun () ->
  let w, stats = rules ~rule_cap g in
  let n = G.n_vertices g in
  if not (fired stats) then begin
    (* The graph is its own kernel: skip the renumbering and the CSR
       rebuild, and reuse [g]. *)
    note_stats stats;
    { original = g; kernel = g; to_orig = Array.init n Fun.id;
      journal = w.journal; journal_len = 0; stats }
  end
  else begin
    let r, n_k = renumber w n in
    let to_orig = Array.make n_k 0 in
    for v = 0 to n - 1 do
      let k = kernel_id r v in
      if k >= 0 then Array.unsafe_set to_orig k v
    done;
    let kernel = emit w r ~to_orig in
    let stats =
      { stats with kernel_vertices = n_k; kernel_edges = G.n_edges kernel }
    in
    note_stats stats;
    { original = g; kernel; to_orig; journal = w.journal;
      journal_len = w.jlen; stats }
  end

let vertex_addition = Independent_set.complete

(* Carry the kernel set that [mask] holds on the original ids through
   the journal's first [len] entries, then repair on [g].  The
   journal's last entry is the last rule application, so walking it
   backwards replays the undos newest-first — each decision about a
   merged vertex is made before the fold that created it is
   expanded. *)
let lift_mask g j len mask =
  let i = ref (len - 1) in
  while !i >= 0 do
    let x = iget j !i in
    if x >= 0 then begin
      Bytes.unsafe_set mask x '\001';
      decr i
    end
    else begin
      let v = -x - 1 in
      if Bytes.unsafe_get mask v <> '\000' then begin
        Bytes.unsafe_set mask v '\000';
        Bytes.unsafe_set mask (iget j (!i - 1)) '\001';
        Bytes.unsafe_set mask (iget j (!i - 2)) '\001'
      end
      else Bytes.unsafe_set mask v '\001';
      i := !i - 3
    end
  done;
  Independent_set.complete_mask g mask

let lift t s =
  if B.capacity s <> G.n_vertices t.kernel then
    invalid_arg "Kernel.lift: set is not sized for the kernel graph";
  let mask = Bytes.make (G.n_vertices t.original) '\000' in
  let to_orig = t.to_orig in
  B.iter (fun kv -> Bytes.unsafe_set mask (Array.unsafe_get to_orig kv) '\001') s;
  lift_mask t.original t.journal t.journal_len mask

(* ------------------------------------------------------------------ *)
(* First fit on the working state *)

(* The survivors in increasing order — the kernel ids [renumber] would
   give them, since that map is monotone — and the kernel's edge count,
   half the live degree sum. *)
let survivors w n =
  let n_k = ref 0 and volume = ref 0 in
  for v = 0 to n - 1 do
    let d = iget w.deg v in
    if d >= 0 then begin
      incr n_k;
      volume := !volume + d
    end
  done;
  let to_orig = Array.make !n_k 0 and k = ref 0 in
  for v = 0 to n - 1 do
    if live w v then begin
      Array.unsafe_set to_orig !k v;
      incr k
    end
  done;
  (to_orig, !volume / 2)

(* Take [v] into the first fit's [mask] (0 free, 1 blocked, 2 chosen):
   block every entry of its working row and mark it chosen.  Returns
   whether an entry was already chosen, which a correct working state
   never shows: a chosen vertex blocks its live neighbors, so none of
   them is chosen after it, and a dead entry is never chosen.  Most
   rows are untouched input rows, read straight from the input
   store. *)
let take_first_fit w mask v =
  let clash = ref 0 in
  let[@inline] block x =
    clash := !clash lor (Char.code (Bytes.unsafe_get mask x) lsr 1);
    Bytes.unsafe_set mask x '\001'
  in
  if iget w.ext v = 0 then
    for i = Array.unsafe_get w.offsets v
        to Array.unsafe_get w.offsets (v + 1) - 1 do
      block (get w.store i)
    done
  else
    for s = 0 to 1 do
      let src = seg_src w v s and lo = seg_lo w v s in
      for i = lo to lo + seg_len w v s - 1 do
        block (get src i)
      done
    done;
  Bytes.unsafe_set mask v '\002';
  !clash <> 0

(* [Greedy.in_order] on the kernel, then [ff]'s thinning, run on the
   working state: kernel vertex [k] is survivor [to_orig.(k)], and its
   kernel row is the live part of that survivor's working row.  A dead
   entry names a retired vertex, which no kernel vertex is, so blocking
   it changes nothing.  Returns the kept set as an n-byte mask over the
   original ids.

   The independence check rides on the walk: taking [v] finds any
   chosen vertex in [v]'s row, so the chosen set is independent on the
   working rows exactly when no take reports a clash — the check
   [verify_exn] runs on an emitted kernel.  A thinning must keep a
   subset of it, which is checked member by member. *)
let first_fit (ff : Approx.first_fit) rng w n ~to_orig =
  let n_k = Array.length to_orig in
  let order = ff.order rng n_k in
  if Array.length order <> n_k then
    invalid_arg "Kernel.solve: first-fit order length mismatch";
  (* Through [to_orig] in a pass of its own: its random reads do not
     wait on the walk's, which measured faster than one fused loop. *)
  for i = 0 to n_k - 1 do
    order.(i) <- to_orig.(order.(i))
  done;
  let mask = Bytes.make n '\000' in
  let chosen = ref 0 and clash = ref false in
  for i = 0 to n_k - 1 do
    let v = Array.unsafe_get order i in
    if Bytes.unsafe_get mask v = '\000' then begin
      if take_first_fit w mask v then clash := true;
      incr chosen
    end
  done;
  if !clash then invalid_arg "Kernel.solve: first-fit set is not independent";
  (match ff.thin with
   | None ->
       for v = 0 to n - 1 do
         Bytes.unsafe_set mask v
           (if Bytes.unsafe_get mask v = '\002' then '\001' else '\000')
       done
   | Some thin ->
       let members = Array.make !chosen 0 and j = ref 0 in
       for k = 0 to n_k - 1 do
         if Bytes.unsafe_get mask (Array.unsafe_get to_orig k) = '\002' then begin
           Array.unsafe_set members !j k;
           incr j
         end
       done;
       let kept = thin rng members in
       Array.iter
         (fun k ->
           if k < 0 || k >= n_k || Bytes.get mask to_orig.(k) <> '\002' then
             invalid_arg "Kernel.solve: first-fit thinning kept a non-member")
         kept;
       Bytes.fill mask 0 n '\000';
       Array.iter (fun k -> Bytes.unsafe_set mask to_orig.(k) '\001') kept);
  mask

(* ------------------------------------------------------------------ *)
(* Presolve combinator *)

let presolve_prefix = "kernel+"

let is_presolved (s : Approx.solver) =
  String.starts_with ~prefix:presolve_prefix s.Approx.name
  || String.equal s.Approx.name "portfolio"

let solve (base : Approx.solver) rng g =
  match base.Approx.first_fit with
  | None ->
      let r = reduce g in
      let ks = base.Approx.solve rng r.kernel in
      Independent_set.verify_exn r.kernel ks;
      (lift r ks, r.stats)
  | Some ff ->
      let n = G.n_vertices g in
      let w, to_orig, stats =
        Tm.with_span "kernel.reduce" @@ fun () ->
        let w, stats = rules ~rule_cap:default_rule_cap g in
        let to_orig, kernel_edges = survivors w n in
        let stats =
          { stats with kernel_vertices = Array.length to_orig; kernel_edges }
        in
        note_stats stats;
        (w, to_orig, stats)
      in
      let mask = first_fit ff rng w n ~to_orig in
      if Tm.enabled () then Tm.count "kernel.first_fit" 1;
      (lift_mask g w.journal w.jlen mask, stats)

let presolve (base : Approx.solver) =
  { Approx.name = presolve_prefix ^ base.Approx.name;
    solve = (fun rng g -> fst (solve base rng g));
    first_fit = None }

type choice = [ `None | `Kernel ]

let apply choice solver =
  match choice with
  | `None -> solver
  | `Kernel -> if is_presolved solver then solver else presolve solver
