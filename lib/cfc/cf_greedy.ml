module H = Ps_hypergraph.Hypergraph

let ruler_color_count n =
  if n < 1 then invalid_arg "Cf_greedy.ruler_color_count";
  let rec log2 acc p = if 2 * p > n then acc else log2 (acc + 1) (2 * p) in
  log2 0 1 + 1

let ruler h =
  let exponent_of_two i =
    let rec go acc i = if i land 1 = 1 then acc else go (acc + 1) (i lsr 1) in
    go 0 i
  in
  Array.init (H.n_vertices h) (fun v -> exponent_of_two (v + 1))

let conservative h =
  let n = H.n_vertices h in
  let f = Cf_coloring.blank h in
  (* Colors stay below n: a recolored vertex takes the smallest color
     none of its at most n-1 primal neighbors holds. *)
  let cnt = Cf_coloring.happy_scratch ~k:(n + 1) in
  (* [blocked.(c) = v] marks color [c] as held by a neighbor of [v].
     Stamping with the vertex means the array is never cleared: colored
     primal neighbors always hold distinct colors (each newly colored
     vertex avoids its neighbors' colors), so an edge with a colored
     member is happy, every recolor targets an uncolored vertex, and no
     vertex is colored twice. *)
  let blocked = Array.make (n + 1) (-1) in
  let color_distinctly v =
    List.iter
      (fun e ->
        H.iter_edge h e (fun u ->
            let c = f.(u) in
            if u <> v && c <> Cf_coloring.uncolored then blocked.(c) <- v))
      (H.incident_edges h v);
    let c = ref 0 in
    while blocked.(!c) = v do incr c done;
    f.(v) <- !c
  in
  (* Coloring a vertex with a color held by none of its primal-graph
     neighbors makes every edge through it happy (the vertex is then a
     unique witness everywhere) and leaves every other edge as it was,
     so no happy edge ever turns unhappy.  The lowest-index unhappy edge
     therefore only moves forward, and one pass that fixes each edge it
     finds unhappy takes exactly the steps of "repeatedly fix the
     lowest-index unhappy edge". *)
  for e = 0 to H.n_edges h - 1 do
    if not (Cf_coloring.happy_fast cnt h f e) then begin
      (* Prefer an uncolored vertex; otherwise recolor the smallest. *)
      let members = H.edge h e in
      let target =
        match
          Array.find_opt (fun v -> f.(v) = Cf_coloring.uncolored) members
        with
        | Some v -> v
        | None -> members.(0)
      in
      color_distinctly target
    end
  done;
  f
