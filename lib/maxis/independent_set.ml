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

(* The one maximality loop's probe: [touches g s v] says whether some
   neighbor of [v] is in [s], walking [v]'s row in the CSR store in
   place — a plain loop, with no closure call per entry and no exception
   to leave it. *)
let touches g s =
  let view = G.csr_view g in
  let off = view.G.v_offsets and a = view.G.v_store in
  fun v ->
    let i = ref off.(v) and hi = off.(v + 1) in
    while
      !i < hi && not (B.mem s (Int32.to_int (Bigarray.Array1.unsafe_get a !i)))
    do
      incr i
    done;
    !i < hi

let is_independent g s =
  B.capacity s = G.n_vertices g
  &&
  let touches = touches g s in
  let ok = ref true in
  B.iter (fun v -> if touches v then ok := false) s;
  !ok

(* One pass: a member must touch no member, a non-member must touch
   one. *)
let is_maximal g s =
  B.capacity s = G.n_vertices g
  &&
  let touches = touches g s in
  let n = G.n_vertices g in
  let v = ref 0 in
  while !v < n && B.mem s !v <> touches !v do
    incr v
  done;
  !v = n

let verify_exn g s =
  if not (is_independent g s) then
    invalid_arg "Independent_set.verify_exn: set is not independent"

let complete g s =
  let s = B.copy s in
  let touches = touches g s in
  for v = 0 to G.n_vertices g - 1 do
    if not (B.mem s v || touches v) then B.add s v
  done;
  s

let make_maximal g s =
  verify_exn g s;
  complete g s

let approximation_ratio ~alpha s =
  if alpha > 0 && size s = 0 then
    invalid_arg "Independent_set.approximation_ratio: empty set";
  if alpha = 0 then 1.0 else float_of_int alpha /. float_of_int (size s)
