module G = Ps_graph.Graph
module Tm = Ps_util.Telemetry

type t = {
  cluster_of : int array;
  color_of : int array;
  center_of : int array;
  radius_of : int array;
  n_clusters : int;
  n_colors : int;
  max_radius : int;
}

(* Grow a ball around [v] inside the vertices marked [active] until one
   more hop would not double it; return (ball, radius).  Each vertex
   reached, in the ball or its final ring, leaves [active] as it is
   found, so no later carve of the phase enters it and a carve costs
   O(ball ∪ ring), not O(n). *)
let carve_ball g active v =
  let ball = ref [ v ] and ball_size = ref 1 in
  active.(v) <- false;
  let frontier = ref [ v ] in
  let radius = ref 0 in
  let next_ring () =
    List.concat_map
      (fun u ->
        G.fold_neighbors g u
          (fun acc w ->
            if active.(w) then begin
              active.(w) <- false;
              w :: acc
            end
            else acc)
          [])
      !frontier
  in
  let ring = ref (next_ring ()) in
  while List.length !ring > !ball_size do
    (* Ball still more than doubles: absorb the ring and grow again. *)
    ball := List.rev_append !ring !ball;
    ball_size := !ball_size + List.length !ring;
    frontier := !ring;
    incr radius;
    ring := next_ring ()
  done;
  (!ball, !radius)

let ball_carving ?order g =
  Tm.with_span "decomposition.ball_carving" @@ fun () ->
  let n = G.n_vertices g in
  Tm.set_int "n" n;
  let order =
    match order with
    | None -> Array.init n (fun i -> i)
    | Some o ->
        if Array.length o <> n then
          invalid_arg "Decomposition.ball_carving: order length mismatch";
        o
  in
  let cluster_of = Array.make n (-1) in
  let colors = ref [] and centers = ref [] and radii = ref [] in
  let n_clusters = ref 0 in
  let remaining = Array.make n true in
  let remaining_count = ref n in
  let color = ref 0 in
  while !remaining_count > 0 do
    (* One color phase: carve from a private copy so deferred rings are
       inactive for this phase but return in the next one. *)
    let active = Array.copy remaining in
    Array.iter
      (fun v ->
        if active.(v) then begin
          let ball, radius = carve_ball g active v in
          let id = !n_clusters in
          incr n_clusters;
          colors := !color :: !colors;
          centers := v :: !centers;
          radii := radius :: !radii;
          List.iter
            (fun u ->
              cluster_of.(u) <- id;
              remaining.(u) <- false;
              decr remaining_count)
            ball
        end)
      order;
    incr color
  done;
  let color_of = Array.of_list (List.rev !colors) in
  let center_of = Array.of_list (List.rev !centers) in
  let radius_of = Array.of_list (List.rev !radii) in
  if Tm.enabled () then begin
    Tm.set_int "clusters" !n_clusters;
    Tm.set_int "colors" !color;
    Tm.set_int "max_radius" (Array.fold_left max 0 radius_of);
    Tm.count "decomposition.clusters" !n_clusters
  end;
  { cluster_of;
    color_of;
    center_of;
    radius_of;
    n_clusters = !n_clusters;
    n_colors = !color;
    max_radius = Array.fold_left max 0 radius_of }

type check = {
  is_partition : bool;
  clusters_connected : bool;
  radius_ok : bool;
  colors_legal : bool;
  radius_bound : bool;
  colors_bound : bool;
}

let ceil_log2 n =
  let rec go acc p = if p >= n then acc else go (acc + 1) (2 * p) in
  if n <= 1 then 0 else go 0 1

let verify g t =
  let n = G.n_vertices g in
  let is_partition =
    Array.length t.cluster_of = n
    && Array.for_all (fun c -> c >= 0 && c < t.n_clusters) t.cluster_of
  in
  let members = Array.make t.n_clusters [] in
  if is_partition then
    Array.iteri (fun v c -> members.(c) <- v :: members.(c)) t.cluster_of;
  let connected = ref is_partition and radius_ok = ref is_partition in
  if is_partition then
    for c = 0 to t.n_clusters - 1 do
      let sub, back = G.induced_subgraph g members.(c) in
      if not (Ps_graph.Traverse.is_connected sub) then connected := false;
      let center_pos = ref (-1) in
      Array.iteri (fun i v -> if v = t.center_of.(c) then center_pos := i) back;
      if !center_pos < 0 then radius_ok := false
      else begin
        let ecc = Ps_graph.Traverse.eccentricity sub !center_pos in
        if ecc > t.radius_of.(c) then radius_ok := false
      end
    done;
  let colors_legal = ref is_partition in
  if is_partition then
    G.iter_edges g (fun u v ->
        let cu = t.cluster_of.(u) and cv = t.cluster_of.(v) in
        if cu <> cv && t.color_of.(cu) = t.color_of.(cv) then
          colors_legal := false);
  { is_partition;
    clusters_connected = !connected;
    radius_ok = !radius_ok;
    colors_legal = !colors_legal;
    radius_bound = t.max_radius <= ceil_log2 (max n 1);
    colors_bound = t.n_colors <= ceil_log2 (max n 1) + 1 }

let check_all c =
  c.is_partition && c.clusters_connected && c.radius_ok && c.colors_legal
  && c.radius_bound && c.colors_bound

let pp_check ppf c =
  Format.fprintf ppf
    "partition=%b connected=%b radius=%b colors=%b radius_bound=%b \
     colors_bound=%b"
    c.is_partition c.clusters_connected c.radius_ok c.colors_legal
    c.radius_bound c.colors_bound
