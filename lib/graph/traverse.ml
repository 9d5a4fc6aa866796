let bfs_multi g sources =
  let n = Graph.n_vertices g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  List.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg "Traverse.bfs_multi: bad source";
      if dist.(s) < 0 then begin
        dist.(s) <- 0;
        Queue.add s queue
      end)
    sources;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.iter_neighbors g u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
  done;
  dist

let bfs_distances g src = bfs_multi g [ src ]

module Int_tbl = Hashtbl.Make (Int)

(* Layer by layer, with the visited set in a hash table: a call costs
   O(ball and its edges); an n-sized distance array would make a ball per
   vertex quadratic. *)
let ball g v r =
  if r < 0 then invalid_arg "Traverse.ball: negative radius";
  if v < 0 || v >= Graph.n_vertices g then invalid_arg "Traverse.ball: vertex";
  let seen = Int_tbl.create 16 in
  Int_tbl.replace seen v ();
  let visit next w =
    if Int_tbl.mem seen w then next else (Int_tbl.replace seen w (); w :: next)
  in
  let rec grow d frontier members =
    if d >= r || List.is_empty frontier then members
    else
      let next =
        List.fold_left
          (fun acc u -> Graph.fold_neighbors g u visit acc)
          [] frontier
      in
      grow (d + 1) next (List.rev_append next members)
  in
  List.sort Int.compare (grow 0 [ v ] [ v ])

let ball_subgraph g v r = Graph.induced_subgraph g (ball g v r)

let connected_components g =
  let n = Graph.n_vertices g in
  let uf = Ps_util.Union_find.create n in
  Graph.iter_edges g (fun u v -> ignore (Ps_util.Union_find.union uf u v));
  Ps_util.Union_find.components uf

let is_connected g =
  Graph.n_vertices g <= 1 || Array.length (connected_components g) = 1

let eccentricity g v =
  Array.fold_left max 0 (bfs_distances g v)

let diameter g =
  let n = Graph.n_vertices g in
  if n <= 1 then 0
  else if not (is_connected g) then -1
  else begin
    let best = ref 0 in
    for v = 0 to n - 1 do
      best := max !best (eccentricity g v)
    done;
    !best
  end

let dfs_preorder g src =
  let n = Graph.n_vertices g in
  if src < 0 || src >= n then invalid_arg "Traverse.dfs_preorder";
  let visited = Array.make n false in
  let order = ref [] in
  let rec visit v =
    visited.(v) <- true;
    order := v :: !order;
    Graph.iter_neighbors g v (fun u -> if not visited.(u) then visit u)
  in
  visit src;
  List.rev !order

let distance g u v = (bfs_distances g u).(v)

let power g k =
  if k < 0 then invalid_arg "Traverse.power: negative exponent";
  let acc = ref [] in
  for v = 0 to Graph.n_vertices g - 1 do
    List.iter
      (fun u -> if u > v then acc := (v, u) :: !acc)
      (ball g v k)
  done;
  Graph.of_edges (Graph.n_vertices g) !acc
