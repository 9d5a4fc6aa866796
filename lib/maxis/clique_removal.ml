module G = Ps_graph.Graph
module B = Ps_util.Bitset

(* One Ramsey pass over the live set [s]: walk the non-neighbor spine
   iteratively (pivot, shrink to the non-neighbors, repeat), then fold
   back deepest-first, recursing only into the neighbor subsets.  That
   keeps the stack bounded by the nesting of neighborhood subproblems
   (clique-number-ish) instead of the spine length, which on sparse
   graphs is nearly |s|.  Returns a (clique, independent set) pair; the
   shared [budget] counts pivot expansions, and an exhausted budget
   returns the trivial pair for whatever is left unexplored — both sides
   stay valid, just smaller. *)
let rec ramsey g budget cancel s =
  let n = G.n_vertices g in
  let frames = ref [] in
  let cur = ref s in
  let walking = ref true in
  while !walking do
    match B.choose_opt !cur with
    | None -> walking := false
    | Some v ->
        if !budget <= 0 || cancel () then walking := false
        else begin
          decr budget;
          let nb = B.create n in
          let live = !cur in
          G.iter_neighbors g v (fun x -> if B.mem live x then B.add nb x);
          let rest = B.copy live in
          B.remove rest v;
          B.diff_into rest nb;
          frames := (v, nb) :: !frames;
          cur := rest
        end
  done;
  List.fold_left
    (fun (c2, i2) (v, nb) ->
      let c1, i1 = ramsey g budget cancel nb in
      (* c1 ⊆ nb ⊆ N(v), so v extends it; v is non-adjacent to the
         whole non-neighbor rest, so it extends i2. *)
      B.add c1 v;
      B.add i2 v;
      let c = if B.cardinal c1 >= B.cardinal c2 then c1 else c2 in
      let i = if B.cardinal i1 > B.cardinal i2 then i1 else i2 in
      (c, i))
    (B.create n, B.create n)
    !frames

let default_budget n = (64 * n) + 256

let run ?(cancel = fun () -> false) ?budget _rng g =
  let n = G.n_vertices g in
  let budget = ref (match budget with Some b -> b | None -> default_budget n) in
  let active = B.create n in
  B.fill active;
  let best = ref (B.create n) in
  let rounds = ref 0 in
  (try
     while (not (B.is_empty active)) && not (cancel ()) do
       let c, i = ramsey g budget cancel active in
       incr rounds;
       if B.cardinal i > B.cardinal !best then best := i;
       if B.is_empty c then raise Exit (* budget dry: nothing removed *)
       else B.diff_into active c
     done
   with Exit -> ());
  Independent_set.make_maximal g !best

let solver =
  { Approx.name = "clique-removal"; solve = (fun rng g -> run rng g);
    first_fit = None }
