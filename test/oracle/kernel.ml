(* The copy-on-write [Ps_maxis.Kernel] that the unboxed working state
   replaced: a [bool array] alive set, boxed int arrays for degrees,
   row lengths and marks, one owned [int array] per rewritten row (a
   fold copies every union member's row to append to it), the fold
   union as a list, and a gather-then-copy emit.  Kept verbatim as the
   differential oracle for the rewrite, which must produce the same
   kernel, stats, journal and lift bit for bit. *)

module Approx = Ps_maxis.Approx
module Independent_set = Ps_maxis.Independent_set

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

(* Undo journal, recorded in application order and replayed in reverse.
   [Take v]: v joins the solution; its whole closed neighborhood (in the
   working graph at that moment) was retired with it.  [Fold (v, u, w)]:
   degree-2 center v with non-adjacent neighbors u, w merged into one
   vertex reusing v's id — selected merged vertex means "take u and w",
   unselected means "take v".  Dominated deletions need no journal
   entry: the deleted vertex stays out and the vertex_addition repair
   re-adds it whenever that is still safe. *)
type op =
  | Take of int
  | Fold of int * int * int

type t = {
  original : G.t;
  kernel : G.t;
  to_orig : int array;
  journal : op list;  (* head = last operation *)
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

(* Mutable working graph, copy-on-write over the input CSR.  A row
   starts {e borrowed}: it is read in place from the input graph's
   adjacency store, at [offsets.(v)], and [own.(v)] is the empty array.
   A rule that rewrites a row first gives it an owned [int array] copy —
   a fold's merged row, a row the merged vertex is appended to
   ([row_push]), a row [compact_row] compacts — so the input store,
   which other readers may share (portfolio lanes, the serve cache), is
   never written, and a pass where no rule fires copies nothing.  An
   owned row is never empty, which is what tells the two apart; [entry]
   is the one read path for both.

   Rows are never physically cleaned — dead entries are skipped through
   [alive] — so [deg] (the count of live entries) is the authoritative
   degree.  Among live entries every row is duplicate-free: the CSR
   starts that way, and a fold only links the merged vertex to vertices
   it was not adjacent to before (its center had degree 2). *)
type work = {
  alive : bool array;
  deg : int array;
  offsets : int array;  (* the input's, read-only *)
  store : G.i32;  (* the input's, read-only *)
  own : int array array;  (* [||] while borrowed *)
  len : int array;  (* physical row length, >= live count *)
  mutable owned : int;  (* rows copied so far *)
  (* nodes_by_degree bucket queue (lazy entries: a vertex may sit in
     several buckets; staleness is detected on pop). *)
  buckets : int array array;
  bfill : int array;
  mutable cursor : int;
  cap : int;
  (* generation-stamped scratch marks for neighborhood scans *)
  mark : int array;
  mutable gen : int;
  mutable walked : int;  (* row entries the quadratic tier has walked *)
}

(* Entry [i] of the row whose owned array is [r] and whose input row
   starts at store index [base]: the one row accessor.  Callers read
   [r] and [base] once per row walk. *)
let[@inline] entry w r base i =
  if Array.length r > 0 then Array.unsafe_get r i
  else Int32.to_int (Bigarray.Array1.unsafe_get w.store (base + i))

(* Install [r] (non-empty) as [v]'s owned row. *)
let adopt w v r =
  if Array.length w.own.(v) = 0 then w.owned <- w.owned + 1;
  w.own.(v) <- r

let bucket_push w v =
  let d = w.deg.(v) in
  if d <= w.cap then begin
    let b = w.buckets.(d) in
    let fill = w.bfill.(d) in
    if fill = Array.length b then begin
      let b' = Array.make (max 8 (2 * fill)) 0 in
      Array.blit b 0 b' 0 fill;
      w.buckets.(d) <- b'
    end;
    w.buckets.(d).(fill) <- v;
    w.bfill.(d) <- fill + 1;
    if d < w.cursor then w.cursor <- d
  end

let row_push w v x =
  let l = w.len.(v) in
  let r = w.own.(v) in
  if l = Array.length r || Array.length r = 0 then begin
    let base = w.offsets.(v) in
    let r' = Array.make (max 4 (2 * l)) 0 in
    for i = 0 to l - 1 do
      Array.unsafe_set r' i (entry w r base i)
    done;
    adopt w v r'
  end;
  w.own.(v).(l) <- x;
  w.len.(v) <- l + 1

(* Retire [v]: live neighbors lose a degree and get re-examined. *)
let kill w v =
  w.alive.(v) <- false;
  let r = w.own.(v) and base = w.offsets.(v) in
  for i = 0 to w.len.(v) - 1 do
    let x = entry w r base i in
    if Array.unsafe_get w.alive x then begin
      w.deg.(x) <- w.deg.(x) - 1;
      bucket_push w x
    end
  done

(* Drop dead entries from [v]'s row once they outnumber the live ones —
   in place when the row is owned, into a fresh owned row when it is
   borrowed.  Scans amortize against the kills that created the dead
   entries, keeping every row walk within 2x the live degree. *)
let compact_row w v =
  let d = w.deg.(v) in
  if w.len.(v) > 2 * d then begin
    let r = w.own.(v) and base = w.offsets.(v) in
    let dst = if Array.length r > 0 then r else Array.make (max 1 d) 0 in
    let j = ref 0 in
    for i = 0 to w.len.(v) - 1 do
      let x = entry w r base i in
      if Array.unsafe_get w.alive x then begin
        Array.unsafe_set dst !j x;
        incr j
      end
    done;
    adopt w v dst;
    w.len.(v) <- !j
  end

let live_neighbors w v =
  compact_row w v;
  let out = Array.make w.deg.(v) 0 in
  let j = ref 0 in
  let r = w.own.(v) and base = w.offsets.(v) in
  for i = 0 to w.len.(v) - 1 do
    let x = entry w r base i in
    if Array.unsafe_get w.alive x then begin
      Array.unsafe_set out !j x;
      incr j
    end
  done;
  out

(* Are the two live vertices [u] and [x] adjacent?  Membership in the
   shorter physical row is exact: dead entries only name dead vertices,
   and live entries are duplicate-free. *)
let adjacent w u x =
  let u, x = if w.len.(u) <= w.len.(x) then (u, x) else (x, u) in
  let r = w.own.(u) and base = w.offsets.(u) in
  let n = w.len.(u) in
  let rec go i = i < n && (entry w r base i = x || go (i + 1)) in
  go 0

(* Witness gate for the simplicial/domination scan at a vertex [v] of
   degree d >= 3 whose closed neighborhood is stamped [gen]: does the
   row of its neighbor [a] hold a stamped entry other than [v] — a
   triangle v-a-x?  Without one neither rule can fire.  A passing
   neighbor u has |N(u) ∩ N[v]| >= d, so u is adjacent to every other
   neighbor of v: if u <> a then u is a stamped entry of a's row, and
   if u = a then a's row holds the d - 1 >= 2 other neighbors of v.
   A simplicial v has every neighbor passing.  Stamps are fresh, so a
   stamped entry is live and the walk needs no [alive] read; [a] is
   picked as v's least-degree neighbor to keep it short. *)
let witness w a v gen =
  compact_row w a;
  let r = w.own.(a) and base = w.offsets.(a) in
  let n = w.len.(a) in
  let i = ref 0 in
  while
    !i < n
    && (let x = entry w r base !i in
        x = v || Array.unsafe_get w.mark x <> gen)
  do
    incr i
  done;
  w.walked <- w.walked + min n (!i + 1);
  !i < n

(* Write the survivors' live rows as the kernel CSR, renumbered
   through the monotone [to_kernel] map, straight into an int32 store
   (kernel ids are below the input's, so they fit).  Live rows are
   duplicate-free, so each is written once with no dedup.
   Renumbering keeps the input CSR's sorted order, so only rows a fold
   touched — a merged vertex's union row, or a row the merged vertex
   was appended to — can come out unsorted; those alone are sorted, in
   the int scratch row each row is gathered into.  A dead entry maps to
   -1, so the gather reads [to_kernel] alone, never [alive]. *)
let emit w ~to_kernel ~to_orig =
  let n_k = Array.length to_orig in
  let offsets = Array.make (n_k + 1) 0 in
  let maxdeg = ref 0 in
  for k = 0 to n_k - 1 do
    let d = w.deg.(to_orig.(k)) in
    offsets.(k + 1) <- offsets.(k) + d;
    if d > !maxdeg then maxdeg := d
  done;
  let total = offsets.(n_k) in
  let buf = Array.make (max 1 !maxdeg) 0 in
  let gather v =
    let r = w.own.(v) and base = w.offsets.(v) in
    let len = ref 0 and sorted = ref true and prev = ref (-1) in
    for i = 0 to w.len.(v) - 1 do
      let y = Array.unsafe_get to_kernel (entry w r base i) in
      if y >= 0 then begin
        if y < !prev then sorted := false;
        prev := y;
        Array.unsafe_set buf !len y;
        incr len
      end
    done;
    if not !sorted then Ps_util.Intsort.sort_range buf 0 !len
  in
  let adj = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout total in
  for k = 0 to n_k - 1 do
    gather to_orig.(k);
    let base = offsets.(k) in
    for j = 0 to offsets.(k + 1) - base - 1 do
      Bigarray.Array1.unsafe_set adj (base + j)
        (Int32.of_int (Array.unsafe_get buf j))
    done
  done;
  G.of_csr n_k ~offsets ~adj

let reduce ?(rule_cap = default_rule_cap) g =
  Tm.with_span "kernel.reduce" @@ fun () ->
  let n = G.n_vertices g in
  let view = G.csr_view g in
  let offsets = view.G.v_offsets in
  let deg = Array.init n (fun v -> offsets.(v + 1) - offsets.(v)) in
  let w =
    { alive = Array.make n true;
      deg;
      offsets;
      store = view.G.v_store;
      own = Array.make n [||];
      len = Array.copy deg;
      owned = 0;
      buckets = Array.make (rule_cap + 1) [||];
      bfill = Array.make (rule_cap + 1) 0;
      cursor = 0;
      cap = rule_cap;
      mark = Array.make n 0;
      gen = 0;
      walked = 0 }
  in
  let journal = ref [] in
  let isolated = ref 0
  and pendants = ref 0
  and folds = ref 0
  and simplicial = ref 0
  and dominated = ref 0 in
  let scans = ref 0 and scan_skips = ref 0 and removed = ref 0 in
  for v = 0 to n - 1 do
    bucket_push w v
  done;
  let take v nbrs =
    journal := Take v :: !journal;
    kill w v;
    Array.iter (fun u -> if w.alive.(u) then kill w u) nbrs
  in
  (* Fold the degree-2 center [v] with non-adjacent neighbors [u], [w_]:
     the merged vertex reuses [v]'s id, its row becomes the live union
     N(u) ∪ N(w_) minus the triple, and every union member swaps its
     dead endpoint(s) for one link to the merged vertex. *)
  let fold v u w_ =
    w.gen <- w.gen + 1;
    let gen = w.gen in
    let union = ref [] and usize = ref 0 in
    let collect src =
      let r = w.own.(src) and base = w.offsets.(src) in
      for i = 0 to w.len.(src) - 1 do
        let x = entry w r base i in
        if w.alive.(x) && x <> v then begin
          w.deg.(x) <- w.deg.(x) - 1;
          if w.mark.(x) <> gen then begin
            w.mark.(x) <- gen;
            union := x :: !union;
            incr usize
          end
        end
      done
    in
    collect u;
    collect w_;
    w.alive.(u) <- false;
    w.alive.(w_) <- false;
    let merged = Array.make (max 1 !usize) 0 in
    List.iteri
      (fun i x ->
        merged.(i) <- x;
        w.deg.(x) <- w.deg.(x) + 1;
        row_push w x v;
        bucket_push w x)
      !union;
    adopt w v merged;
    w.len.(v) <- !usize;
    w.deg.(v) <- !usize;
    journal := Fold (v, u, w_) :: !journal;
    bucket_push w v
  in
  (* With N[v] stamped [gen], a neighbor u has c(u) = |N(u) ∩ N[v]|
     >= d exactly when N[v] ⊆ N[u].  All neighbors passing means N(v)
     is a clique (v is simplicial — take it); the first passing
     neighbor in row order is dominated and can be deleted. *)
  let scan v d gen =
    let all_clique = ref true and drop = ref (-1) in
    let r = w.own.(v) and base = w.offsets.(v) in
    w.walked <- w.walked + w.len.(v);
    for i = 0 to w.len.(v) - 1 do
      let u = entry w r base i in
      if Array.unsafe_get w.alive u then
        (* c(u) <= deg(u), so a neighbor below the threshold cannot
           pass — skip its row walk entirely. *)
        if w.deg.(u) < d then all_clique := false
        else begin
          compact_row w u;
          let c = ref 0 in
          let ru = w.own.(u) and bu = w.offsets.(u) in
          let len = w.len.(u) in
          let j = ref 0 in
          (* Abort as soon as the remaining entries cannot lift the
             count to the threshold. *)
          while !j < len && !c + (len - !j) >= d do
            let x = entry w ru bu !j in
            if Array.unsafe_get w.alive x
               && Array.unsafe_get w.mark x = gen
            then incr c;
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
    let d = w.deg.(v) in
    if d = 0 then begin
      journal := Take v :: !journal;
      w.alive.(v) <- false;
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
        fold v nbrs.(0) nbrs.(1);
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
      w.gen <- w.gen + 1;
      let gen = w.gen in
      w.mark.(v) <- gen;
      let r = w.own.(v) and base = w.offsets.(v) in
      let sdeg = ref 0 and a = ref (-1) and da = ref max_int in
      w.walked <- w.walked + w.len.(v);
      for i = 0 to w.len.(v) - 1 do
        let u = entry w r base i in
        if Array.unsafe_get w.alive u then begin
          let du = Array.unsafe_get w.deg u in
          sdeg := !sdeg + du;
          Array.unsafe_set w.mark u gen;
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
    if w.bfill.(d) = 0 then w.cursor <- d + 1
    else begin
      let fill = w.bfill.(d) - 1 in
      let v = w.buckets.(d).(fill) in
      w.bfill.(d) <- fill;
      if w.alive.(v) && w.deg.(v) = d then process v
    end
  done;
  if Tm.enabled () then begin
    Tm.count "kernel.scans" !scans;
    Tm.count "kernel.scan_skips" !scan_skips;
    Tm.count "kernel.rows_owned" w.owned;
    Tm.count "kernel.quadratic_work" w.walked;
    Tm.count "kernel.quadratic_removed" !removed;
    Tm.count "kernel.quadratic_exhausted" (Bool.to_int (tier_spent ()))
  end;
  (* Renumber the survivors; [to_kernel] is monotone. *)
  let to_kernel = Array.make n (-1) in
  let n_k = ref 0 in
  for v = 0 to n - 1 do
    if w.alive.(v) then begin
      to_kernel.(v) <- !n_k;
      incr n_k
    end
  done;
  let n_k = !n_k in
  if n_k = n then begin
    (* No rule fired (every rule retires at least one vertex): the
       graph is its own kernel — skip the CSR rebuild and reuse [g]. *)
    let stats =
      { original_vertices = n;
        original_edges = G.n_edges g;
        kernel_vertices = n;
        kernel_edges = G.n_edges g;
        isolated = 0;
        pendants = 0;
        folds = 0;
        simplicial = 0;
        dominated = 0 }
    in
    if Tm.enabled () then begin
      Tm.set_int "original_vertices" n;
      Tm.set_int "kernel_vertices" n;
      Tm.incr "kernel.reductions"
    end;
    { original = g; kernel = g; to_orig = Array.init n Fun.id;
      journal = []; stats }
  end
  else begin
  let to_orig = Array.make n_k 0 in
  for v = 0 to n - 1 do
    if to_kernel.(v) >= 0 then to_orig.(to_kernel.(v)) <- v
  done;
  let kernel = emit w ~to_kernel ~to_orig in
  let stats =
    { original_vertices = n;
      original_edges = G.n_edges g;
      kernel_vertices = n_k;
      kernel_edges = G.n_edges kernel;
      isolated = !isolated;
      pendants = !pendants;
      folds = !folds;
      simplicial = !simplicial;
      dominated = !dominated }
  in
  if Tm.enabled () then begin
    Tm.set_int "original_vertices" n;
    Tm.set_int "kernel_vertices" n_k;
    Tm.set_int "folds" !folds;
    Tm.count "kernel.vertices_removed" (n - n_k);
    Tm.incr "kernel.reductions"
  end;
    { original = g; kernel; to_orig; journal = !journal; stats }
  end

let vertex_addition = Independent_set.complete

let lift t s =
  if B.capacity s <> G.n_vertices t.kernel then
    invalid_arg "Kernel.lift: set is not sized for the kernel graph";
  let out = B.create (G.n_vertices t.original) in
  B.iter (fun kv -> B.add out t.to_orig.(kv)) s;
  (* The journal head is the last rule application, so a plain left
     fold over the list replays the undos newest-first — each decision
     about a merged vertex is made before the fold that created it is
     expanded. *)
  List.iter
    (function
      | Take v -> B.add out v
      | Fold (v, u, w) ->
          if B.mem out v then begin
            B.remove out v;
            B.add out u;
            B.add out w
          end
          else B.add out v)
    t.journal;
  vertex_addition t.original out

(* ------------------------------------------------------------------ *)
(* Presolve combinator *)

let presolve_prefix = "kernel+"

let is_presolved (s : Approx.solver) =
  String.starts_with ~prefix:presolve_prefix s.Approx.name
  || String.equal s.Approx.name "portfolio"

let solve (base : Approx.solver) rng g =
  let r = reduce g in
  let ks = base.Approx.solve rng r.kernel in
  Independent_set.verify_exn r.kernel ks;
  (lift r ks, r.stats)

let presolve (base : Approx.solver) =
  { Approx.name = presolve_prefix ^ base.Approx.name;
    solve = (fun rng g -> fst (solve base rng g));
    first_fit = None }

type choice = [ `None | `Kernel ]

let apply choice solver =
  match choice with
  | `None -> solver
  | `Kernel -> if is_presolved solver then solver else presolve solver
