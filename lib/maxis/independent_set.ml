module B = Ps_util.Bitset
module G = Ps_graph.Graph

type t = B.t

let empty g = B.create (G.n_vertices g)

let of_list g vs =
  let s = empty g in
  List.iter (B.add s) vs;
  s

let of_indicator flags =
  let s = B.create (Array.length flags) in
  Array.iteri (fun v flag -> if flag then B.add s v) flags;
  s

let to_list = B.to_list

let size = B.cardinal

(* [s] as an n-byte membership mask, one byte per vertex.  The probes
   below read a row's entries against it: a byte load per entry instead
   of a [Bitset.mem] call (range check, divide, shift).  One mask is
   built per call and serves every probe of that call.  Callers check
   [B.capacity s = n] first, so the writes are unchecked. *)
let mask_of n s =
  let mask = Bytes.make n '\000' in
  B.iter (fun v -> Bytes.unsafe_set mask v '\001') s;
  mask

(* The one maximality loop's probe: [touches g mask v] says whether some
   neighbor of [v] is in the mask, walking [v]'s row in the CSR store in
   place — a plain loop, with no call per entry and no exception to
   leave it.  Row entries are vertices of [g], so the mask reads are
   unchecked. *)
let touches g mask =
  let view = G.csr_view g in
  let off = view.G.v_offsets and a = view.G.v_store in
  fun v ->
    let i = ref off.(v) and hi = off.(v + 1) in
    while
      !i < hi
      && Bytes.unsafe_get mask
           (Int32.to_int (Bigarray.Array1.unsafe_get a !i))
         = '\000'
    do
      incr i
    done;
    !i < hi

let is_independent g s =
  B.capacity s = G.n_vertices g
  &&
  let touches = touches g (mask_of (G.n_vertices g) s) in
  let ok = ref true in
  B.iter (fun v -> if touches v then ok := false) s;
  !ok

(* One pass: a member must touch no member, a non-member must touch
   one. *)
let is_maximal g s =
  B.capacity s = G.n_vertices g
  &&
  let n = G.n_vertices g in
  let mask = mask_of n s in
  let touches = touches g mask in
  let v = ref 0 in
  while !v < n && (Bytes.unsafe_get mask !v <> '\000') <> touches !v do
    incr v
  done;
  !v = n

let verify_exn g s =
  if not (is_independent g s) then
    invalid_arg "Independent_set.verify_exn: set is not independent"

(* The mask tracks the set as it grows, so each probe sees the vertices
   added before it. *)
let complete_mask g mask =
  let n = G.n_vertices g in
  if Bytes.length mask <> n then
    invalid_arg "Independent_set.complete_mask: mask length is not the graph's";
  let touches = touches g mask in
  for v = 0 to n - 1 do
    if Bytes.unsafe_get mask v = '\000' && not (touches v) then
      Bytes.unsafe_set mask v '\001'
  done;
  B.of_mask mask

let complete g s =
  let n = G.n_vertices g in
  if B.capacity s <> n then
    invalid_arg "Independent_set.complete: set universe is not the graph's";
  complete_mask g (mask_of n s)

let make_maximal g s =
  verify_exn g s;
  complete g s

let approximation_ratio ~alpha s =
  if alpha > 0 && size s = 0 then
    invalid_arg "Independent_set.approximation_ratio: empty set";
  if alpha = 0 then 1.0 else float_of_int alpha /. float_of_int (size s)
