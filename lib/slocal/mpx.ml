module G = Ps_graph.Graph
module Rng = Ps_util.Rng

type t = {
  cluster_of : int array;
  center_of : int array;
  radius_of : int array;
  n_clusters : int;
  beta : float;
}

module Frontier = Set.Make (struct
  type t = float * int (* shifted arrival time, vertex *)

  let compare (t1, v1) (t2, v2) =
    match Float.compare t1 t2 with 0 -> Int.compare v1 v2 | c -> c
end)

(* Shifted-distance Dijkstra: every vertex is a potential center starting
   at time -δ_v; a vertex is claimed by the first arrival.  Unit edge
   lengths, so arrival times are (integer - δ_center). *)
let decompose rng ~beta g =
  if beta <= 0.0 then invalid_arg "Mpx.decompose: beta must be positive";
  let n = G.n_vertices g in
  (* Exponential shifts with rate beta by inversion.  [u] is the value
     [Rng.float rng 1.0] would return, drawn as an int and scaled here:
     a float returned from another library is boxed, and so is one a
     closure returns to [Array.init]; this loop allocates nothing. *)
  let delta = Array.make n 0.0 in
  for v = 0 to n - 1 do
    let u = Float.of_int (Rng.bits53 rng) *. 0x1p-53 in
    let u = if u <= 0.0 then epsilon_float else u in
    delta.(v) <- -.log u /. beta
  done;
  let owner = Array.make n (-1) in
  let arrival = Array.make n infinity in
  let frontier = ref Frontier.empty in
  for v = 0 to n - 1 do
    let t0 = -.delta.(v) in
    arrival.(v) <- t0;
    frontier := Frontier.add (t0, v) !frontier
  done;
  let origin = Array.init n (fun v -> v) in
  (* origin.(v) = center whose wave reaches v first (tentatively) *)
  while not (Frontier.is_empty !frontier) do
    let ((time, v) as entry) = Frontier.min_elt !frontier in
    frontier := Frontier.remove entry !frontier;
    if owner.(v) = -1 && time <= arrival.(v) then begin
      owner.(v) <- origin.(v);
      G.iter_neighbors g v (fun u ->
          if owner.(u) = -1 && time +. 1.0 < arrival.(u) then begin
            frontier := Frontier.remove (arrival.(u), u) !frontier;
            arrival.(u) <- time +. 1.0;
            origin.(u) <- origin.(v);
            frontier := Frontier.add (time +. 1.0, u) !frontier
          end)
    end
  done;
  (* densify cluster ids to 0..c-1 in order of center index *)
  let id_of_center = Hashtbl.create 16 in
  let centers = ref [] in
  for v = 0 to n - 1 do
    let c = owner.(v) in
    if not (Hashtbl.mem id_of_center c) then begin
      Hashtbl.add id_of_center c (Hashtbl.length id_of_center);
      centers := c :: !centers
    end
  done;
  let center_of = Array.of_list (List.rev !centers) in
  let cluster_of = Array.map (Hashtbl.find id_of_center) owner in
  let n_clusters = Array.length center_of in
  (* observed radius: eccentricity of the center within its cluster *)
  let members = Array.make n_clusters [] in
  for v = n - 1 downto 0 do
    members.(cluster_of.(v)) <- v :: members.(cluster_of.(v))
  done;
  let radius_of =
    Array.mapi
      (fun c center ->
        let sub, back = G.induced_subgraph g members.(c) in
        let pos = ref (-1) in
        Array.iteri (fun i v -> if v = center then pos := i) back;
        Ps_graph.Traverse.eccentricity sub !pos)
      center_of
  in
  { cluster_of; center_of; radius_of; n_clusters; beta }

let cut_edges g t =
  let cut = ref 0 in
  G.iter_edges g (fun u v ->
      if t.cluster_of.(u) <> t.cluster_of.(v) then incr cut);
  !cut

let max_radius t = Array.fold_left max 0 t.radius_of

let is_valid g t =
  let n = G.n_vertices g in
  Array.length t.cluster_of = n
  && Array.for_all (fun c -> c >= 0 && c < t.n_clusters) t.cluster_of
  &&
  let members = Array.make t.n_clusters [] in
  Array.iteri (fun v c -> members.(c) <- v :: members.(c)) t.cluster_of;
  let ok = ref true in
  Array.iteri
    (fun c center ->
      let sub, back = G.induced_subgraph g members.(c) in
      if not (Ps_graph.Traverse.is_connected sub) then ok := false;
      let pos = ref (-1) in
      Array.iteri (fun i v -> if v = center then pos := i) back;
      if !pos < 0 then ok := false
      else if Ps_graph.Traverse.eccentricity sub !pos > t.radius_of.(c) then
        ok := false)
    t.center_of;
  !ok

let to_decomposition g t =
  let quotient = G.contract g t.cluster_of in
  let coloring = Ps_graph.Coloring.greedy quotient in
  { Decomposition.cluster_of = Array.copy t.cluster_of;
    color_of = coloring;
    center_of = Array.copy t.center_of;
    radius_of = Array.copy t.radius_of;
    n_clusters = t.n_clusters;
    n_colors = Ps_graph.Coloring.num_colors coloring;
    max_radius = max_radius t }
