(* The straightforward list-based G_k builder that the direct-CSR
   [Ps_core.Conflict_graph.build] replaced: emit every edge family's
   pairs into an edge list and normalize through [Graph.of_edges].  Kept
   verbatim as the differential oracle for the CSR builder (the property
   suite checks [Graph.equal] on random hypergraphs) and as the
   micro-benchmark baseline. *)

module H = Ps_hypergraph.Hypergraph
module G = Ps_graph.Graph
module Triple = Ps_core.Triple
module Ix = Triple.Indexer

let build_reference h ~k =
  let ix = Ix.make h ~k in
  let edges = ref [] in
  let add t1 t2 =
    let a = Ix.encode ix t1 and b = Ix.encode ix t2 in
    if a <> b then edges := (a, b) :: !edges
  in
  let clique triples =
    let arr = Array.of_list triples in
    let n = Array.length arr in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        add arr.(i) arr.(j)
      done
    done
  in
  (* E_edge (plus intra-edge parts of the other families): one clique per
     hyperedge over its |e|·k triples. *)
  for e = 0 to H.n_edges h - 1 do
    clique (Ix.triples_of_edge ix e)
  done;
  (* E_vertex: triples sharing a hypergraph vertex are adjacent exactly
     when their colors differ (same-vertex same-color pairs from distinct
     edges are independent — Lemma 2.1(a) relies on it). *)
  for v = 0 to H.n_vertices h - 1 do
    let triples = Array.of_list (Ix.triples_of_vertex ix v) in
    let n = Array.length triples in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if triples.(i).Triple.color <> triples.(j).Triple.color then
          add triples.(i) triples.(j)
      done
    done
  done;
  (* E_color (u ≠ v by definition): (e,v,c) ~ (g,u,c) whenever u ∈ e. *)
  for e = 0 to H.n_edges h - 1 do
    let members = H.edge h e in
    Array.iter
      (fun v ->
        Array.iter
          (fun u ->
            if u <> v then
              List.iter
                (fun g ->
                  for c = 0 to k - 1 do
                    add
                      { Triple.edge = e; vertex = v; color = c }
                      { Triple.edge = g; vertex = u; color = c }
                  done)
                (H.incident_edges h u))
          members)
      members
  done;
  { Ps_core.Conflict_graph.graph = G.of_edges (Ix.total ix) !edges;
    indexer = ix;
    k }
