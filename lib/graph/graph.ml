(* CSR with an int32 adjacency store.  The store — the 2m-entry array
   every solver scan walks — is a Bigarray of int32, 4 bytes per entry:
   half the memory traffic of an [int array] on the scans that dominate
   at 10^7+ edges.  ocamlopt eliminates the box/unbox pair in
   [Int32.to_int (Array1.get a i)], so a read costs a 32-bit load plus a
   sign-extend and allocates nothing.

   Entries are vertex ids, so every constructor rejects [n] past
   [max_vertices] = 2^31 - 1 before it allocates.  The [offsets] array
   stays [int]: it has n+1 entries against the store's 2m, and its
   values (up to 2m) exceed 32 bits exactly when m >= 2^31. *)

type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n : int;
  offsets : int array; (* length >= n+1; row u is store indices
                          [offsets.(u), offsets.(u+1)) *)
  adj : i32;           (* concatenated sorted adjacency rows; the logical
                          content is the prefix of length offsets.(n) = 2m —
                          arena-backed graphs ([of_csr_prefix]) may carry
                          spare capacity beyond it *)
  exact : bool;        (* physical store length = offsets.(n)?  False for
                          arena views carrying spare capacity. *)
}

let max_vertices = 0x7FFF_FFFF

let check_n fn n =
  if n < 0 then invalid_arg (fn ^ ": negative vertex count");
  if n > max_vertices then
    invalid_arg
      (Printf.sprintf "%s: vertex count %d exceeds the int32 id limit %d" fn n
         max_vertices)

(* The annotation matters: it lets ocamlopt compile the read to an
   inline load instead of a call to the generic C accessor. *)
let[@inline] get (a : i32) i = Int32.to_int (Bigarray.Array1.get a i)

let i32_create len =
  Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len

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
  let a32 = i32_create offsets.(n) in
  Array.iteri
    (fun i x -> Bigarray.Array1.unsafe_set a32 i (Int32.of_int x))
    adj;
  { n; offsets; adj = a32; exact = true }

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
  check_n "Graph.of_edges" n;
  of_normalized_edges n (normalize n edges)

(* Always copies (widening the int32 store): external auditors get
   arrays they may probe freely, and arena-backed graphs are trimmed to
   their logical content.  [csr_view] below is the zero-copy
   alternative. *)
let to_csr g =
  (Array.sub g.offsets 0 (g.n + 1), Array.init g.offsets.(g.n) (get g.adj))

type view = {
  v_n : int;
  v_offsets : int array;
  v_store_len : int;
  v_exact : bool;
  v_store : i32;
}

let csr_view g =
  { v_n = g.n;
    v_offsets = g.offsets;
    v_store_len = Bigarray.Array1.dim g.adj;
    v_exact = g.exact;
    v_store = g.adj }

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
  let store_len = Bigarray.Array1.dim g.adj in
  if
    if exact then g.offsets.(g.n) <> store_len
    else g.offsets.(g.n) > store_len
  then invalid_arg "Graph.of_csr: offsets.(n) <> |adj|";
  let get = get g.adj in
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
  check_n "Graph.of_csr" n;
  let g = { n; offsets; adj; exact } in
  let validate = match validate with Some v -> v | None -> debug_validation in
  if validate then validate_csr ~exact g;
  g

let of_csr ?validate n ~offsets ~adj =
  make_csr ?validate ~exact:true n ~offsets ~adj

let of_csr_prefix ?validate n ~offsets ~adj =
  make_csr ?validate ~exact:false n ~offsets ~adj

let of_sorted_edge_array ?validate n edges =
  check_n "Graph.of_sorted_edge_array" n;
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
  let adj = i32_create offsets.(n) in
  let cursor = Array.copy offsets in
  (* Lexicographic input order writes every row in increasing order: for a
     fixed row w, all back-edges (u, w) are scanned before any forward
     edge (w, x) — their first components satisfy u < w — and each group
     arrives in increasing order, with u < w < x throughout.  So no
     per-row sort is needed, and the rows go straight into the int32
     store. *)
  Array.iter
    (fun (u, v) ->
      Bigarray.Array1.set adj cursor.(u) (Int32.of_int v);
      cursor.(u) <- cursor.(u) + 1;
      Bigarray.Array1.set adj cursor.(v) (Int32.of_int u);
      cursor.(v) <- cursor.(v) + 1)
    edges;
  { n; offsets; adj; exact = true }

(* Growable int32 endpoint buffer, pairs interleaved as u0 v0 u1 v1 ...
   The one collector between an edge stream (a parsed file chunk, a
   generator) and [of_pair_chunks].  The store is a Bigarray, so the
   capacity a caller reserves up front is only address space until it
   is written. *)
module Pairs = struct
  type t = { mutable buf : i32; mutable len : int }

  let create ?(capacity = 1024) () =
    { buf = i32_create (2 * max capacity 1); len = 0 }

  let length p = p.len

  let grow p =
    let old = Bigarray.Array1.dim p.buf in
    let b = i32_create (2 * old) in
    Bigarray.Array1.blit p.buf (Bigarray.Array1.sub b 0 old);
    p.buf <- b

  (* One test rejects a negative id and one past the int32 range:
     both set a bit at or above bit 31 of [u lor v]. *)
  let push p u v =
    if (u lor v) lsr 31 <> 0 then
      invalid_arg "Graph.Pairs.push: endpoint outside [0, max_vertices]";
    let i = 2 * p.len in
    if i = Bigarray.Array1.dim p.buf then grow p;
    Bigarray.Array1.unsafe_set p.buf i (Int32.of_int u);
    Bigarray.Array1.unsafe_set p.buf (i + 1) (Int32.of_int v);
    p.len <- p.len + 1
end

(* Direct-to-CSR from endpoint chunks — the streaming constructor behind
   [Gio.read_file] and the huge generators.  Each edge appears once as a
   pair in either orientation; duplicates are collapsed, self-loops and
   out-of-range endpoints rejected.  Count degrees over the chunks in
   order, turn the degree array into the fill cursor and write both
   directions of every pair straight into the int32 store.  When every
   row of that scattered store came out strictly increasing (every row
   of a file [Gio.write_file] wrote does), it is the CSR.  Otherwise one
   transpose settles all rows with no comparison sort: walk the rows x
   upward and append x to the row of every y that row x lists.  The
   scattered store is symmetric, so row y receives each of its
   neighbours, in increasing order, once per copy of the pair; a copy
   after the first finds x already the row's last entry and is dropped.
   The rows are then compacted in place.  The transpose writes into the
   buffer of a chunk that can hold the whole store (a single chunk
   always can: it holds two entries per pair), which the scatter has
   finished reading; that chunk is left empty.  O(n + m) for any pair
   order. *)
let of_pair_chunks n chunks =
  check_n "Graph.of_pair_chunks" n;
  let deg = Array.make n 0 in
  Array.iter
    (fun { Pairs.buf; len } ->
      for i = 0 to len - 1 do
        let a = get buf (2 * i) and b = get buf ((2 * i) + 1) in
        if a >= n || b >= n then
          invalid_arg "Graph.of_pair_chunks: endpoint out of range";
        if a = b then invalid_arg "Graph.of_pair_chunks: self-loop";
        deg.(a) <- deg.(a) + 1;
        deg.(b) <- deg.(b) + 1
      done)
    chunks;
  let offsets = Array.make (n + 1) 0 in
  for x = 0 to n - 1 do
    offsets.(x + 1) <- offsets.(x) + deg.(x);
    deg.(x) <- offsets.(x)
  done;
  let total = offsets.(n) in
  let cursor = deg and adj = i32_create total in
  Array.iter
    (fun { Pairs.buf; len } ->
      for i = 0 to len - 1 do
        let a = get buf (2 * i) and b = get buf ((2 * i) + 1) in
        Bigarray.Array1.unsafe_set adj cursor.(a) (Int32.of_int b);
        cursor.(a) <- cursor.(a) + 1;
        Bigarray.Array1.unsafe_set adj cursor.(b) (Int32.of_int a);
        cursor.(b) <- cursor.(b) + 1
      done)
    chunks;
  let sorted = ref true and x = ref 0 in
  while !sorted && !x < n do
    let i = ref (offsets.(!x) + 1) and hi = offsets.(!x + 1) in
    while !i < hi && get adj (!i - 1) < get adj !i do
      incr i
    done;
    sorted := !i >= hi;
    incr x
  done;
  if !sorted then of_csr n ~offsets ~adj
  else begin
    let out =
      match
        Array.find_opt
          (fun (p : Pairs.t) -> Bigarray.Array1.dim p.buf >= total)
          chunks
      with
      | Some p ->
          let buf = p.buf in
          p.buf <- i32_create 2;
          p.len <- 0;
          buf
      | None -> i32_create total
    in
    Array.blit offsets 0 cursor 0 n;
    for x = 0 to n - 1 do
      for i = offsets.(x) to offsets.(x + 1) - 1 do
        let y = get adj i in
        let c = Array.unsafe_get cursor y in
        if c = Array.unsafe_get offsets y || get out (c - 1) <> x then begin
          Bigarray.Array1.unsafe_set out c (Int32.of_int x);
          Array.unsafe_set cursor y (c + 1)
        end
      done
    done;
    (* The cursor holds each row's end.  Move the rows down over the
       dropped copies, if there were any. *)
    let w = ref 0 in
    for x = 0 to n - 1 do
      let lo = offsets.(x) in
      offsets.(x) <- !w;
      if !w = lo then w := cursor.(x)
      else
        for i = lo to cursor.(x) - 1 do
          Bigarray.Array1.unsafe_set out !w (Bigarray.Array1.unsafe_get out i);
          incr w
        done
    done;
    offsets.(n) <- !w;
    let out =
      if !w = Bigarray.Array1.dim out then out else Bigarray.Array1.sub out 0 !w
    in
    of_csr n ~offsets ~adj:out
  end

let of_unnormalized_pairs n pairs = of_pair_chunks n [| pairs |]

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
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = get g.adj mid in
    if w = v then found := true
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let neighbors g v =
  check_vertex g v;
  let lo = g.offsets.(v) in
  Array.init (degree g v) (fun i -> get g.adj (lo + i))

let iter_neighbors g v f =
  check_vertex g v;
  for i = g.offsets.(v) to g.offsets.(v + 1) - 1 do
    f (get g.adj i)
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

(* Rows are read in place: no closure per vertex. *)
let iter_edges g f =
  for u = 0 to g.n - 1 do
    for i = g.offsets.(u) to g.offsets.(u + 1) - 1 do
      let v = get g.adj i in
      if u < v then f u v
    done
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
   and the permutation [perm], with [perm.(i)] the original id of new
   vertex [i]. *)
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
  (* Relabelling scrambles row order: sort each row in an int scratch
     buffer, then narrow it into place. *)
  let adj = i32_create offsets.(n) in
  let row = Array.make (max maxdeg 1) 0 in
  for i = 0 to n - 1 do
    let len = ref 0 in
    iter_neighbors g perm.(i) (fun x ->
        row.(!len) <- inv.(x);
        incr len);
    Ps_util.Intsort.sort_range row 0 !len;
    let base = offsets.(i) in
    for j = 0 to !len - 1 do
      Bigarray.Array1.unsafe_set adj (base + j) (Int32.of_int row.(j))
    done
  done;
  ({ n; offsets; adj; exact = true }, perm)

let induced_subgraph g vs =
  let vs = List.sort_uniq Int.compare vs in
  List.iter (check_vertex g) vs;
  let back = Array.of_list vs in
  let k = Array.length back in
  (* Original id -> new id by binary search over the sorted [back] (-1
     when absent); an n-sized renaming array would make every call O(n). *)
  let rec find (u : int) lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let x = back.(mid) in
      if x = u then mid
      else if x < u then find u (mid + 1) hi
      else find u lo mid
  in
  let sub_edges = ref [] in
  (* [back] is increasing, so for v < u the new ids satisfy i < j (the
     search starts past i) and the collected edges are already
     normalized (distinct, u < v). *)
  Array.iteri
    (fun i v ->
      iter_neighbors g v (fun u ->
          if v < u then
            let j = find u (i + 1) k in
            if j >= 0 then sub_edges := (i, j) :: !sub_edges))
    back;
  (of_normalized_edges k !sub_edges, back)

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
   store capacity past offsets.(n). *)
let equal g h =
  g.n = h.n
  &&
  let ok = ref true in
  for v = 0 to g.n do
    if g.offsets.(v) <> h.offsets.(v) then ok := false
  done;
  if !ok then
    for i = 0 to g.offsets.(g.n) - 1 do
      if get g.adj i <> get h.adj i then ok := false
    done;
  !ok

(* Content-addressed digest over the same logical content [equal]
   compares: n, the offsets prefix, and the adjacency entries below
   offsets.(n), each hashed as an int value.  Arena views with spare
   capacity therefore hash like their exact copies; distinct CSRs differ
   up to 64-bit collisions (qcheck'd against [equal]). *)
let content_hash g =
  let h = ref (Ps_util.Fnv.int Ps_util.Fnv.init g.n) in
  for v = 0 to g.n do
    h := Ps_util.Fnv.int !h g.offsets.(v)
  done;
  for i = 0 to g.offsets.(g.n) - 1 do
    h := Ps_util.Fnv.int !h (get g.adj i)
  done;
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
  Format.fprintf ppf "graph(n=%d, m=%d, deg=[%d..%d])" g.n (n_edges g) lo
    (max_degree g)
