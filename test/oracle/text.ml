(* The Printf and [string_of_int] text writers that [Ps_graph.Gio.Writer]
   replaced, as the byte-for-byte oracle for every edge-list and
   hypergraph writer. *)

module G = Ps_graph.Graph
module H = Ps_hypergraph.Hypergraph

let edge_lines ~n ~m emit =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%d %d\n" n m);
  emit (fun u v -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
  Buffer.contents buf

let to_edge_list g =
  edge_lines ~n:(G.n_vertices g) ~m:(G.n_edges g) (G.iter_edges g)

let to_text h =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%d %d\n" (H.n_vertices h) (H.n_edges h));
  for i = 0 to H.n_edges h - 1 do
    let e = H.edge h i in
    Buffer.add_string buf (string_of_int (Array.length e));
    Array.iter (fun v -> Buffer.add_string buf (" " ^ string_of_int v)) e;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
