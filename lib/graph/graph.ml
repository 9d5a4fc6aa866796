(* Width-aware CSR.  The adjacency store — the hot array every solver
   scan walks — comes in two physical widths:

   - [S_int]: plain [int array], one 8-byte word per entry.  The
     original representation, kept as the differential oracle and for
     the (hypothetical) n >= 2^31 regime.
   - [S_i32]: a Bigarray of int32, 4 bytes per entry — half the memory
     traffic on the scans that dominate at 10^7+ edges.  ocamlopt
     eliminates the box/unbox pair in [Int32.to_int (Array1.get a i)],
     so reads cost a 32-bit load plus a sign-extend, no allocation
     (verified: 0.0 minor words/read; a sequential sum runs ~1.4x
     faster than the int-array loop once the array leaves cache).

   The [offsets] array stays [int]: it has n+1 entries against the
   store's 2m and its values (up to 2m) must exceed 32 bits exactly when
   m >= 2^31.  Every observable behavior is identical across widths —
   [equal] compares logical content, constructors pick a width without
   changing results — which is what the width-agreement qcheck suite
   pins down. *)

type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type store = S_int of int array | S_i32 of i32

type width = [ `Int | `Int32 ]

type t = {
  n : int;
  offsets : int array; (* length >= n+1; row u is store indices
                          [offsets.(u), offsets.(u+1)) *)
  adj : store;         (* concatenated sorted adjacency rows; the logical
                          content is the prefix of length offsets.(n) = 2m —
                          arena-backed graphs ([of_csr_prefix]) may carry
                          spare capacity beyond it *)
  exact : bool;        (* physical store length = offsets.(n)?  False for
                          arena views carrying spare capacity. *)
}

let width g = match g.adj with S_int _ -> `Int | S_i32 _ -> `Int32

let store_length = function
  | S_int a -> Array.length a
  | S_i32 a -> Bigarray.Array1.dim a

(* Generic bounds-checked store read, for cold paths; hot loops below
   dispatch once on the constructor and loop monomorphically. *)
let store_get st i =
  match st with
  | S_int a -> a.(i)
  | S_i32 a -> Int32.to_int (Bigarray.Array1.get a i)

let i32_create len =
  Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (max len 1)

let n_vertices g = g.n

let n_edges g = g.offsets.(g.n) / 2

let check_vertex g v =
  if v < 0 || v >= g.n then invalid_arg "Graph: vertex out of range"

let degree g v =
  check_vertex g v;
  g.offsets.(v + 1) - g.offsets.(v)

let of_normalized_edges n edges =
  (* [edges] holds each edge once as (u, v) with u < v, no duplicates. *)
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let offsets = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    offsets.(v + 1) <- offsets.(v) + deg.(v)
  done;
  let adj = Array.make offsets.(n) 0 in
  let cursor = Array.copy offsets in
  List.iter
    (fun (u, v) ->
      adj.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1;
      adj.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1)
    edges;
  for v = 0 to n - 1 do
    Ps_util.Intsort.sort_range adj offsets.(v) (offsets.(v) + deg.(v))
  done;
  { n; offsets; adj = S_int adj; exact = true }

let normalize n edges =
  (* Dedup on the int-pair encoding u·n + v (u < v): monomorphic int
     hashing instead of boxed-tuple keys. *)
  let seen = Hashtbl.create (List.length edges) in
  List.filter_map
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edges: endpoint out of range";
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      let u, v = if u < v then (u, v) else (v, u) in
      let key = (u * n) + v in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        Some (u, v)
      end)
    edges

let of_edges n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative vertex count";
  of_normalized_edges n (normalize n edges)

(* Always copies (and widens an int32 store): external auditors get
   arrays they may probe freely, and arena-backed graphs are trimmed to
   their logical content.  [csr_view] below is the zero-copy
   alternative. *)
let to_csr g =
  let total = g.offsets.(g.n) in
  let offsets = Array.sub g.offsets 0 (g.n + 1) in
  let adj =
    match g.adj with
    | S_int a -> Array.sub a 0 total
    | S_i32 a ->
        Array.init total (fun i -> Int32.to_int (Bigarray.Array1.get a i))
  in
  (offsets, adj)

type view = {
  v_n : int;
  v_offsets : int array;
  v_store_len : int;
  v_exact : bool;
  v_get : int -> int;
  v_store : store;
}

let csr_view g =
  { v_n = g.n;
    v_offsets = g.offsets;
    v_store_len = store_length g.adj;
    v_exact = g.exact;
    v_get =
      (match g.adj with
      | S_int a -> fun i -> a.(i)
      | S_i32 a -> fun i -> Int32.to_int (Bigarray.Array1.get a i));
    v_store = g.adj }

let of_edge_array n edges = of_edges n (Array.to_list edges)

(* Fast-path constructors.  All take ownership of already-final data and
   skip normalization; full structural validation runs only when the
   PSLOCAL_DEBUG environment variable is set (or on explicit request), so
   the release-mode cost is O(1) beyond the caller's own work. *)

let debug_validation =
  match Sys.getenv_opt "PSLOCAL_DEBUG" with
  | None | Some "" | Some "0" | Some "false" -> false
  | Some _ -> true

let validate_csr ?(exact = true) g =
  let len = Array.length g.offsets in
  if (if exact then len <> g.n + 1 else len < g.n + 1) then
    invalid_arg "Graph.of_csr: offsets length <> n+1";
  if g.offsets.(0) <> 0 then invalid_arg "Graph.of_csr: offsets.(0) <> 0";
  for v = 0 to g.n - 1 do
    if g.offsets.(v + 1) < g.offsets.(v) then
      invalid_arg "Graph.of_csr: offsets not monotone"
  done;
  let store_len = store_length g.adj in
  if
    if exact then g.offsets.(g.n) <> store_len
    else g.offsets.(g.n) > store_len
  then invalid_arg "Graph.of_csr: offsets.(n) <> |adj|";
  let get = match g.adj with
    | S_int a -> fun i -> a.(i)
    | S_i32 a -> fun i -> Int32.to_int (Bigarray.Array1.get a i)
  in
  for v = 0 to g.n - 1 do
    for i = g.offsets.(v) to g.offsets.(v + 1) - 1 do
      let u = get i in
      if u < 0 || u >= g.n then invalid_arg "Graph.of_csr: endpoint out of range";
      if u = v then invalid_arg "Graph.of_csr: self-loop";
      if i > g.offsets.(v) && get (i - 1) >= u then
        invalid_arg "Graph.of_csr: row not strictly increasing"
    done
  done;
  (* Symmetry: u ∈ row v ⟹ v ∈ row u (binary search per entry). *)
  for v = 0 to g.n - 1 do
    for i = g.offsets.(v) to g.offsets.(v + 1) - 1 do
      let u = get i in
      let lo = ref g.offsets.(u) and hi = ref (g.offsets.(u + 1) - 1) in
      let found = ref false in
      while (not !found) && !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let w = get mid in
        if w = v then found := true
        else if w < v then lo := mid + 1
        else hi := mid - 1
      done;
      if not !found then invalid_arg "Graph.of_csr: asymmetric adjacency"
    done
  done

let make_csr ?validate ~exact n ~offsets ~adj =
  if n < 0 then invalid_arg "Graph.of_csr: negative vertex count";
  let g = { n; offsets; adj; exact } in
  let validate = match validate with Some v -> v | None -> debug_validation in
  if validate then validate_csr ~exact g;
  g

let of_csr ?validate n ~offsets ~adj =
  make_csr ?validate ~exact:true n ~offsets ~adj:(S_int adj)

let of_csr_prefix ?validate n ~offsets ~adj =
  make_csr ?validate ~exact:false n ~offsets ~adj:(S_int adj)

let of_csr_i32 ?validate n ~offsets ~adj =
  make_csr ?validate ~exact:true n ~offsets ~adj:(S_i32 adj)

let of_csr_prefix_i32 ?validate n ~offsets ~adj =
  make_csr ?validate ~exact:false n ~offsets ~adj:(S_i32 adj)

let of_sorted_edge_array ?validate n edges =
  if n < 0 then invalid_arg "Graph.of_sorted_edge_array: negative vertex count";
  (let validate = match validate with Some v -> v | None -> debug_validation in
   if validate then
     Array.iteri
       (fun i (u, v) ->
         if u < 0 || v >= n || u >= v then
           invalid_arg "Graph.of_sorted_edge_array: edge not normalized";
         if i > 0 then begin
           let pu, pv = edges.(i - 1) in
           if pu > u || (pu = u && pv >= v) then
             invalid_arg "Graph.of_sorted_edge_array: edges not sorted/unique"
         end)
       edges);
  let deg = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let offsets = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    offsets.(v + 1) <- offsets.(v) + deg.(v)
  done;
  let adj = Array.make offsets.(n) 0 in
  let cursor = Array.copy offsets in
  (* Lexicographic input order writes every row in increasing order: for a
     fixed row w, all back-edges (u, w) are scanned before any forward
     edge (w, x) — their first components satisfy u < w — and each group
     arrives in increasing order, with u < w < x throughout.  So no
     per-row sort is needed. *)
  Array.iter
    (fun (u, v) ->
      adj.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1;
      adj.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1)
    edges;
  { n; offsets; adj = S_int adj; exact = true }

(* Direct-to-CSR from unnormalized endpoint arrays — the streaming
   constructor behind [Gio.read_file] and the huge generators.  Each
   edge appears once as (u.(i), v.(i)) in either orientation; duplicates
   are collapsed, self-loops rejected, nothing is materialized beyond
   the CSR being built (no lists, no hash tables): count, fill, per-row
   sort (skipped for rows already in order), in-place adjacent dedup.
   O(n + m log maxdeg); O(n + m) when every row arrives sorted. *)
let of_unnormalized_pairs ?(width = `Auto) n ~u ~v ~len =
  if n < 0 then invalid_arg "Graph.of_unnormalized_pairs: negative vertex count";
  if len < 0 || len > Array.length u || len > Array.length v then
    invalid_arg "Graph.of_unnormalized_pairs: bad length";
  let deg = Array.make (max n 1) 0 in
  for i = 0 to len - 1 do
    let a = u.(i) and b = v.(i) in
    if a < 0 || a >= n || b < 0 || b >= n then
      invalid_arg "Graph.of_unnormalized_pairs: endpoint out of range";
    if a = b then invalid_arg "Graph.of_unnormalized_pairs: self-loop";
    deg.(a) <- deg.(a) + 1;
    deg.(b) <- deg.(b) + 1
  done;
  let offsets = Array.make (n + 1) 0 in
  for x = 0 to n - 1 do
    offsets.(x + 1) <- offsets.(x) + deg.(x)
  done;
  let adj = Array.make (max offsets.(n) 1) 0 in
  let cursor = Array.copy offsets in
  for i = 0 to len - 1 do
    let a = u.(i) and b = v.(i) in
    adj.(cursor.(a)) <- b;
    cursor.(a) <- cursor.(a) + 1;
    adj.(cursor.(b)) <- a;
    cursor.(b) <- cursor.(b) + 1
  done;
  (* Sort each row, drop duplicate entries, compact leftwards; rewrite
     offsets as we go.  The write head never passes the read head, so
     the compaction is safe in place.  A row that arrived non-decreasing
     (every row of a file [Gio.write_file] wrote) skips the sort; the
     check stops at the first inversion. *)
  let w = ref 0 in
  for x = 0 to n - 1 do
    let lo = offsets.(x) and hi = offsets.(x + 1) in
    let i = ref (lo + 1) in
    while !i < hi && adj.(!i - 1) <= adj.(!i) do
      incr i
    done;
    if !i < hi then Ps_util.Intsort.sort_range adj lo hi;
    offsets.(x) <- !w;
    let prev = ref (-1) in
    for i = lo to hi - 1 do
      let y = adj.(i) in
      if y <> !prev then begin
        adj.(!w) <- y;
        incr w;
        prev := y
      end
    done
  done;
  offsets.(n) <- !w;
  let total = !w in
  let pick =
    match width with
    | (`Int | `Int32) as w -> w
    | `Auto -> if n < 0x4000_0000 * 2 then `Int32 else `Int
  in
  match pick with
  | `Int ->
      (* The scratch array may carry dedup slack past [total]; keep it
         as an arena-style prefix rather than paying a trimming copy. *)
      { n; offsets; adj = S_int adj; exact = total = Array.length adj }
  | `Int32 ->
      let a32 = i32_create total in
      for i = 0 to total - 1 do
        Bigarray.Array1.unsafe_set a32 i (Int32.of_int (Array.unsafe_get adj i))
      done;
      { n; offsets; adj = S_i32 a32; exact = total = Bigarray.Array1.dim a32 }

(* Re-encode the adjacency store at the given width (no-op when already
   there).  The int -> int32 direction requires n < 2^31. *)
let with_width g (target : width) =
  match (g.adj, target) with
  | S_int _, `Int | S_i32 _, `Int32 -> g
  | S_int a, `Int32 ->
      if g.n > 0x7FFF_FFFF then
        invalid_arg "Graph.with_width: vertex ids exceed int32";
      let total = g.offsets.(g.n) in
      let a32 = i32_create total in
      for i = 0 to total - 1 do
        Bigarray.Array1.unsafe_set a32 i (Int32.of_int (Array.unsafe_get a i))
      done;
      { g with adj = S_i32 a32; exact = total = Bigarray.Array1.dim a32 }
  | S_i32 a, `Int ->
      let total = g.offsets.(g.n) in
      let ai = Array.make (max total 1) 0 in
      for i = 0 to total - 1 do
        Array.unsafe_set ai i (Int32.to_int (Bigarray.Array1.unsafe_get a i))
      done;
      { g with adj = S_int ai; exact = total = Array.length ai }

let empty n = of_edges n []

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    best := max !best (degree g v)
  done;
  !best

let avg_degree g =
  if g.n = 0 then 0.0
  else 2.0 *. float_of_int (n_edges g) /. float_of_int g.n

let has_edge g u v =
  check_vertex g u;
  check_vertex g v;
  (* Binary search in the sorted row of the lower-degree endpoint. *)
  let u, v = if degree g u <= degree g v then (u, v) else (v, u) in
  let lo = ref g.offsets.(u) and hi = ref (g.offsets.(u + 1) - 1) in
  let found = ref false in
  (match g.adj with
  | S_int a ->
      while (not !found) && !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let w = a.(mid) in
        if w = v then found := true
        else if w < v then lo := mid + 1
        else hi := mid - 1
      done
  | S_i32 a ->
      while (not !found) && !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let w = Int32.to_int (Bigarray.Array1.get a mid) in
        if w = v then found := true
        else if w < v then lo := mid + 1
        else hi := mid - 1
      done);
  !found

let neighbors g v =
  check_vertex g v;
  match g.adj with
  | S_int a -> Array.sub a g.offsets.(v) (degree g v)
  | S_i32 a ->
      let lo = g.offsets.(v) in
      Array.init (degree g v) (fun i ->
          Int32.to_int (Bigarray.Array1.get a (lo + i)))

let iter_neighbors g v f =
  check_vertex g v;
  match g.adj with
  | S_int a ->
      for i = g.offsets.(v) to g.offsets.(v + 1) - 1 do
        f a.(i)
      done
  | S_i32 a ->
      for i = g.offsets.(v) to g.offsets.(v + 1) - 1 do
        f (Int32.to_int (Bigarray.Array1.get a i))
      done

let fold_neighbors g v f init =
  let acc = ref init in
  iter_neighbors g v (fun u -> acc := f !acc u);
  !acc

let exists_neighbor g v pred =
  let exception Found in
  try
    iter_neighbors g v (fun u -> if pred u then raise Found);
    false
  with Found -> true

let iter_edges g f =
  for u = 0 to g.n - 1 do
    iter_neighbors g u (fun v -> if u < v then f u v)
  done

let edges g =
  let acc = ref [] in
  iter_edges g (fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let vertices g = List.init g.n (fun i -> i)

(* Degree-sorted, cache-blocked re-layout: vertices renumbered by
   decreasing degree (stable within equal degrees), rows rebuilt in the
   new order.  The few high-degree rows that every solver sweep keeps
   revisiting end up packed together at the front of the store — one
   compact block of cache lines instead of being scattered across the
   whole array — and row lengths decay monotonically, so a scan's
   working set shrinks as it advances.  Returns the relabelled graph
   (same width) and the permutation [perm], with [perm.(i)] the original
   id of new vertex [i]. *)
let degree_sorted g =
  let n = g.n in
  let maxdeg = max_degree g in
  (* Stable counting sort on key maxdeg - degree (ascending buckets =
     descending degree). *)
  let count = Array.make (maxdeg + 2) 0 in
  for v = 0 to n - 1 do
    let key = maxdeg - (g.offsets.(v + 1) - g.offsets.(v)) in
    count.(key + 1) <- count.(key + 1) + 1
  done;
  for k = 0 to maxdeg do
    count.(k + 1) <- count.(k + 1) + count.(k)
  done;
  let perm = Array.make (max n 1) 0 in
  for v = 0 to n - 1 do
    let key = maxdeg - (g.offsets.(v + 1) - g.offsets.(v)) in
    perm.(count.(key)) <- v;
    count.(key) <- count.(key) + 1
  done;
  let inv = Array.make (max n 1) 0 in
  for i = 0 to n - 1 do
    inv.(perm.(i)) <- i
  done;
  let offsets = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let v = perm.(i) in
    offsets.(i + 1) <- offsets.(i) + (g.offsets.(v + 1) - g.offsets.(v))
  done;
  let total = offsets.(n) in
  let fill_row write =
    for i = 0 to n - 1 do
      let v = perm.(i) in
      let w = ref offsets.(i) in
      iter_neighbors g v (fun x ->
          write !w inv.(x);
          incr w)
    done
  in
  let adj =
    match g.adj with
    | S_int _ ->
        let a = Array.make (max total 1) 0 in
        fill_row (fun i x -> a.(i) <- x);
        (* Relabelling scrambles row order; restore sortedness. *)
        for i = 0 to n - 1 do
          Ps_util.Intsort.sort_range a offsets.(i) offsets.(i + 1)
        done;
        S_int a
    | S_i32 _ ->
        (* Sort in an int scratch row buffer, then narrow. *)
        let a32 = i32_create total in
        let row = Array.make (max (if n = 0 then 0 else maxdeg) 1) 0 in
        for i = 0 to n - 1 do
          let v = perm.(i) in
          let len = ref 0 in
          iter_neighbors g v (fun x ->
              row.(!len) <- inv.(x);
              incr len);
          Ps_util.Intsort.sort_range row 0 !len;
          let base = offsets.(i) in
          for j = 0 to !len - 1 do
            Bigarray.Array1.unsafe_set a32 (base + j) (Int32.of_int row.(j))
          done
        done;
        S_i32 a32
  in
  ({ n; offsets; adj; exact = total = store_length adj }, perm)

let induced_subgraph g vs =
  let vs = List.sort_uniq Int.compare vs in
  List.iter (check_vertex g) vs;
  let back = Array.of_list vs in
  (* Dense renaming array instead of a hash table: original id -> new id. *)
  let fwd = Array.make g.n (-1) in
  Array.iteri (fun i v -> fwd.(v) <- i) back;
  let sub_edges = ref [] in
  (* [back] is increasing, so for v < u the new ids satisfy i < j and the
     collected edges are already normalized (distinct, u < v). *)
  Array.iteri
    (fun i v ->
      iter_neighbors g v (fun u ->
          if v < u && fwd.(u) >= 0 then sub_edges := (i, fwd.(u)) :: !sub_edges))
    back;
  (of_normalized_edges (Array.length back) !sub_edges, back)

let complement g =
  let acc = ref [] in
  for u = 0 to g.n - 1 do
    for v = u + 1 to g.n - 1 do
      if not (has_edge g u v) then acc := (u, v) :: !acc
    done
  done;
  of_edges g.n !acc

let contract g labels =
  if Array.length labels <> g.n then
    invalid_arg "Graph.contract: labels length mismatch";
  let top = Array.fold_left max (-1) labels in
  Array.iter
    (fun l -> if l < 0 then invalid_arg "Graph.contract: negative label")
    labels;
  let acc = ref [] in
  iter_edges g (fun u v ->
      if labels.(u) <> labels.(v) then acc := (labels.(u), labels.(v)) :: !acc);
  of_edges (top + 1) !acc

let union g h =
  if g.n <> h.n then invalid_arg "Graph.union: vertex count mismatch";
  of_edges g.n (edges g @ edges h)

let is_subgraph g h =
  g.n = h.n
  &&
  let ok = ref true in
  iter_edges g (fun u v -> if not (has_edge h u v) then ok := false);
  !ok

(* Compare logical content only: arena-backed graphs may carry spare
   store capacity past offsets.(n), and the two widths must compare
   equal whenever they hold the same entries. *)
let equal g h =
  g.n = h.n
  &&
  let ok = ref true in
  for v = 0 to g.n do
    if g.offsets.(v) <> h.offsets.(v) then ok := false
  done;
  (if !ok then
     match (g.adj, h.adj) with
     | S_int a, S_int b ->
         for i = 0 to g.offsets.(g.n) - 1 do
           if a.(i) <> b.(i) then ok := false
         done
     | S_i32 a, S_i32 b ->
         for i = 0 to g.offsets.(g.n) - 1 do
           if not (Int32.equal (Bigarray.Array1.get a i) (Bigarray.Array1.get b i))
           then ok := false
         done
     | (S_int _ | S_i32 _), _ ->
         let ga = store_get g.adj and gb = store_get h.adj in
         for i = 0 to g.offsets.(g.n) - 1 do
           if ga i <> gb i then ok := false
         done);
  !ok

(* Content-addressed digest over the same logical content [equal]
   compares: n, the offsets prefix, and the adjacency entries below
   offsets.(n), each hashed as a logical int value.  Both physical
   widths (and arena views with spare capacity) of the same graph
   therefore produce the same digest; distinct CSRs differ up to
   64-bit collisions (qcheck'd against [equal]). *)
let content_hash g =
  let h = ref (Ps_util.Fnv.int Ps_util.Fnv.init g.n) in
  for v = 0 to g.n do
    h := Ps_util.Fnv.int !h g.offsets.(v)
  done;
  let total = g.offsets.(g.n) in
  (match g.adj with
  | S_int a ->
      for i = 0 to total - 1 do
        h := Ps_util.Fnv.int !h a.(i)
      done
  | S_i32 a ->
      for i = 0 to total - 1 do
        h := Ps_util.Fnv.int !h (Int32.to_int (Bigarray.Array1.get a i))
      done);
  Ps_util.Fnv.finish !h

let pp ppf g =
  let lo =
    if g.n = 0 then 0
    else
      let m = ref max_int in
      for v = 0 to g.n - 1 do
        m := min !m (degree g v)
      done;
      !m
  in
  Format.fprintf ppf "graph(n=%d, m=%d, w=%s, deg=[%d..%d])" g.n (n_edges g)
    (match g.adj with S_int _ -> "int" | S_i32 _ -> "i32")
    lo (max_degree g)
