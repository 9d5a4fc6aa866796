module G = Ps_graph.Graph
module B = Ps_util.Bitset
module Rng = Ps_util.Rng

let run rng g =
  let n = G.n_vertices g in
  let position = Array.make n 0 in
  Array.iteri (fun pos v -> position.(v) <- pos) (Rng.permutation rng n);
  let chosen = B.create n in
  for v = 0 to n - 1 do
    if not (G.exists_neighbor g v (fun u -> position.(u) < position.(v)))
    then B.add chosen v
  done;
  chosen

let run_maximal rng g = Greedy.in_order g (Rng.permutation rng (G.n_vertices g))

let best_of rng t g =
  if t < 1 then invalid_arg "Caro_wei.best_of: need t >= 1";
  let best = ref (run_maximal rng g) in
  for _ = 2 to t do
    let candidate = run_maximal rng g in
    if B.cardinal candidate > B.cardinal !best then best := candidate
  done;
  !best

let expected_size_bound g =
  let acc = ref 0.0 in
  for v = 0 to G.n_vertices g - 1 do
    acc := !acc +. (1.0 /. float_of_int (G.degree g v + 1))
  done;
  !acc
