module G = Ps_graph.Graph
module B = Ps_util.Bitset
module Rng = Ps_util.Rng

type first_fit = {
  order : Rng.t -> int -> int array;
  thin : (Rng.t -> int array -> int array) option;
}

type solver = {
  name : string;
  solve : Rng.t -> G.t -> Independent_set.t;
  first_fit : first_fit option;
}

(* [thin] applied to the ascending members of [s]. *)
let thin_set thin rng s =
  let members = Array.make (B.cardinal s) 0 and i = ref 0 in
  B.iter
    (fun v ->
      members.(!i) <- v;
      incr i)
    s;
  let out = B.create (B.capacity s) in
  Array.iter (B.add out) (thin rng members);
  out

(* The set a first-fit declaration describes, on the graph itself. *)
let run_first_fit ff rng g =
  let s = Greedy.in_order g (ff.order rng (G.n_vertices g)) in
  match ff.thin with None -> s | Some thin -> thin_set thin rng s

let of_first_fit name ff =
  { name; solve = run_first_fit ff; first_fit = Some ff }

let greedy_min_degree =
  { name = "greedy-min-degree"; solve = (fun _rng g -> Greedy.min_degree g);
    first_fit = None }

let greedy_adversarial =
  { name = "greedy-max-degree";
    solve = (fun _rng g -> Greedy.max_degree_adversary g);
    first_fit = None }

(* [Caro_wei.run_maximal], declared. *)
let caro_wei =
  of_first_fit "caro-wei" { order = Rng.permutation; thin = None }

let caro_wei_boosted t =
  { name = Printf.sprintf "caro-wei-x%d" t;
    solve = (fun rng g -> Caro_wei.best_of rng t g);
    first_fit = None }

let exact =
  { name = "exact-bnb"; solve = (fun _rng g -> Exact.maximum g);
    first_fit = None }

let all_heuristics =
  [ greedy_min_degree; greedy_adversarial; caro_wei; caro_wei_boosted 8 ]

(* One Bernoulli draw per member, in member order; when every draw
   fails, the first member stays. *)
let thin ~keep rng members =
  let kept = Array.make (Array.length members) 0 and k = ref 0 in
  Array.iter
    (fun v ->
      if Rng.bernoulli rng keep then begin
        kept.(!k) <- v;
        incr k
      end)
    members;
  if !k = 0 && Array.length members > 0 then [| members.(0) |]
  else Array.sub kept 0 !k

let degrade ~keep solver =
  if keep <= 0.0 || keep > 1.0 then invalid_arg "Approx.degrade";
  let name = Printf.sprintf "%s@%.0f%%" solver.name (100.0 *. keep) in
  match solver.first_fit with
  | Some ff ->
      let thin =
        match ff.thin with
        | None -> thin ~keep
        | Some inner -> fun rng members -> thin ~keep rng (inner rng members)
      in
      of_first_fit name { ff with thin = Some thin }
  | None ->
      { name;
        solve = (fun rng g -> thin_set (thin ~keep) rng (solver.solve rng g));
        first_fit = None }

let solve_verified solver rng g =
  let is = solver.solve rng g in
  Independent_set.verify_exn g is;
  is

type measurement = {
  solver_name : string;
  is_size : int;
  alpha_ref : int;
  alpha_exact : bool;
  lambda : float;
}

let measure ?(exact_budget = 200_000) solver rng g =
  let is = solve_verified solver rng g in
  let is_size = Independent_set.size is in
  let alpha_ref, alpha_exact =
    match Exact.maximum_within ~budget:exact_budget g with
    | Some opt -> (Independent_set.size opt, true)
    | None -> (snd (Bounds.sandwich g), false)
  in
  let lambda =
    if is_size = 0 then if alpha_ref = 0 then 1.0 else infinity
    else float_of_int alpha_ref /. float_of_int is_size
  in
  { solver_name = solver.name; is_size; alpha_ref; alpha_exact; lambda }
