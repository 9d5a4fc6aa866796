module H = Ps_hypergraph.Hypergraph
module Ix = Triple.Indexer
module Is = Ps_maxis.Independent_set

(* Adjacency of triples from *different* hyperedges (the per-edge choice
   already rules out E_edge pairs): E_vertex or E_color. *)
let conflicts h (t1 : Triple.t) (t2 : Triple.t) =
  (t1.vertex = t2.vertex && t1.color <> t2.color)
  || (t1.color = t2.color
     && t1.vertex <> t2.vertex
     && (H.edge_mem h t1.edge t2.vertex || H.edge_mem h t2.edge t1.vertex))

exception Budget_exhausted

let maximum ?(budget = 10_000_000) h ~k =
  let ix = Ix.make h ~k in
  let m = H.n_edges h in
  let best = ref [] and best_size = ref (-1) in
  let nodes = ref 0 in
  let rec branch e chosen n_chosen =
    incr nodes;
    if !nodes > budget then raise Budget_exhausted;
    if e = m then begin
      if n_chosen > !best_size then begin
        best := chosen;
        best_size := n_chosen
      end
    end
    else if n_chosen + (m - e) > !best_size then begin
      (* try each compatible triple of edge e, then the skip branch *)
      List.iter
        (fun (t : Triple.t) ->
          if not (List.exists (conflicts h t) chosen) then
            branch (e + 1) (t :: chosen) (n_chosen + 1))
        (Ix.triples_of_edge ix e);
      branch (e + 1) chosen n_chosen
    end
  in
  match branch 0 [] 0 with
  | () ->
      let set = Ps_util.Bitset.create (Ix.total ix) in
      List.iter (fun t -> Ps_util.Bitset.add set (Ix.encode ix t)) !best;
      Some set
  | exception Budget_exhausted -> None

let independence_number ?budget h ~k =
  Option.map Is.size (maximum ?budget h ~k)

let solver h ~k =
  let ix = Ix.make h ~k in
  { Ps_maxis.Approx.name = "exact-gk";
    solve =
      (fun _rng g ->
        if Ps_graph.Graph.n_vertices g <> Ix.total ix then
          invalid_arg "Exact_gk.solver: graph is not this instance's G_k";
        match maximum h ~k with
        | Some set -> set
        | None -> failwith "Exact_gk.solver: budget exhausted");
    first_fit = None }
