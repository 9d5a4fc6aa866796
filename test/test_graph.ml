(* Tests for Ps_graph: construction, queries, generators, traversals,
   coloring, I/O. *)

module G = Ps_graph.Graph
module Gen = Ps_graph.Gen
module T = Ps_graph.Traverse
module C = Ps_graph.Coloring
module Gio = Ps_graph.Gio
module Rng = Ps_util.Rng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* An int32 adjacency store holding [a], for the raw-CSR constructors. *)
let i32 a =
  Bigarray.Array1.of_array Bigarray.int32 Bigarray.c_layout
    (Array.map Int32.of_int a)

(* ------------------------------------------------------------------ *)
(* Graph core *)

let triangle () = G.of_edges 3 [ (0, 1); (1, 2); (2, 0) ]

let test_graph_basic () =
  let g = triangle () in
  check "n" 3 (G.n_vertices g);
  check "m" 3 (G.n_edges g);
  check "deg" 2 (G.degree g 0);
  check_bool "edge" true (G.has_edge g 0 1);
  check_bool "edge sym" true (G.has_edge g 1 0);
  check_bool "no self edge" false (G.has_edge g 1 1)

let test_graph_duplicate_edges_collapse () =
  let g = G.of_edges 3 [ (0, 1); (1, 0); (0, 1) ] in
  check "m" 1 (G.n_edges g);
  check "deg 0" 1 (G.degree g 0)

let test_graph_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument
    "Graph.of_edges: self-loop") (fun () ->
      ignore (G.of_edges 2 [ (1, 1) ]))

let test_graph_rejects_out_of_range () =
  Alcotest.check_raises "range" (Invalid_argument
    "Graph.of_edges: endpoint out of range") (fun () ->
      ignore (G.of_edges 2 [ (0, 2) ]))

let test_graph_neighbors_sorted () =
  let g = G.of_edges 5 [ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 3; 4 |] (G.neighbors g 2)

let test_graph_empty () =
  let g = G.empty 4 in
  check "m" 0 (G.n_edges g);
  check "max degree" 0 (G.max_degree g);
  Alcotest.(check (float 1e-9)) "avg" 0.0 (G.avg_degree g)

let test_graph_zero_vertices () =
  let g = G.empty 0 in
  check "n" 0 (G.n_vertices g);
  check "m" 0 (G.n_edges g)

let test_graph_edges_iteration () =
  let g = triangle () in
  Alcotest.(check (list (pair int int)))
    "edges once, lexicographic" [ (0, 1); (0, 2); (1, 2) ] (G.edges g)

let test_graph_fold_exists () =
  let g = triangle () in
  check "fold sum" 3 (G.fold_neighbors g 0 (fun a u -> a + u) 0);
  check_bool "exists" true (G.exists_neighbor g 0 (fun u -> u = 2));
  check_bool "not exists" false (G.exists_neighbor g 0 (fun u -> u = 0))

let test_induced_subgraph () =
  let g = G.of_edges 6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0) ] in
  let sub, back = G.induced_subgraph g [ 0; 1; 2 ] in
  check "n" 3 (G.n_vertices sub);
  check "m" 2 (G.n_edges sub);
  Alcotest.(check (array int)) "back map" [| 0; 1; 2 |] back

let test_induced_subgraph_relabeling () =
  let g = G.of_edges 6 [ (3, 5) ] in
  let sub, back = G.induced_subgraph g [ 5; 3 ] in
  (* back is sorted ascending *)
  Alcotest.(check (array int)) "back" [| 3; 5 |] back;
  check_bool "edge mapped" true (G.has_edge sub 0 1)

let test_complement () =
  let g = G.of_edges 4 [ (0, 1) ] in
  let c = G.complement g in
  check "m" 5 (G.n_edges c);
  check_bool "lost edge" false (G.has_edge c 0 1);
  check_bool "gained edge" true (G.has_edge c 2 3);
  (* double complement is identity *)
  check_bool "involution" true (G.equal g (G.complement c))

let test_union () =
  let a = G.of_edges 4 [ (0, 1) ] and b = G.of_edges 4 [ (1, 2); (0, 1) ] in
  let u = G.union a b in
  check "m" 2 (G.n_edges u);
  check_bool "subgraph a" true (G.is_subgraph a u);
  check_bool "subgraph b" true (G.is_subgraph b u)

let test_avg_max_degree () =
  let g = Gen.star 5 in
  check "max" 4 (G.max_degree g);
  Alcotest.(check (float 1e-9)) "avg" 1.6 (G.avg_degree g)

(* ------------------------------------------------------------------ *)
(* Generators *)

let test_gen_ring () =
  let g = Gen.ring 10 in
  check "m" 10 (G.n_edges g);
  check "regular" 2 (G.max_degree g);
  check_bool "connected" true (T.is_connected g);
  check "diameter" 5 (T.diameter g)

let test_gen_path () =
  let g = Gen.path 6 in
  check "m" 5 (G.n_edges g);
  check "diameter" 5 (T.diameter g)

let test_gen_complete () =
  let g = Gen.complete 7 in
  check "m" 21 (G.n_edges g);
  check "degree" 6 (G.max_degree g);
  check "diameter" 1 (T.diameter g)

let test_gen_complete_bipartite () =
  let g = Gen.complete_bipartite 3 4 in
  check "m" 12 (G.n_edges g);
  check_bool "no intra-left edge" false (G.has_edge g 0 1);
  check_bool "cross edge" true (G.has_edge g 0 3)

let test_gen_grid () =
  let g = Gen.grid 4 5 in
  check "n" 20 (G.n_vertices g);
  check "m" ((3 * 5) + (4 * 4)) (G.n_edges g);
  check "diameter" 7 (T.diameter g)

let test_gen_balanced_tree () =
  let g = Gen.balanced_tree 2 3 in
  check "n" 15 (G.n_vertices g);
  check "m" 14 (G.n_edges g);
  check_bool "connected" true (T.is_connected g)

let test_gen_gnp_extremes () =
  let rng = Rng.create 1 in
  check "p=0" 0 (G.n_edges (Gen.gnp rng 20 0.0));
  check "p=1" 190 (G.n_edges (Gen.gnp rng 20 1.0))

let test_gen_gnp_density () =
  let rng = Rng.create 2 in
  let n = 300 and p = 0.1 in
  let g = Gen.gnp rng n p in
  let expected = p *. float_of_int (n * (n - 1) / 2) in
  let actual = float_of_int (G.n_edges g) in
  check_bool "within 15% of expectation" true
    (abs_float (actual -. expected) /. expected < 0.15)

let test_gen_gnm () =
  let rng = Rng.create 3 in
  let g = Gen.gnm rng 50 200 in
  check "exact m" 200 (G.n_edges g);
  Alcotest.check_raises "too many" (Invalid_argument
    "Gen.gnm: m out of range") (fun () -> ignore (Gen.gnm rng 3 4))

let test_gen_random_regular_ish () =
  let rng = Rng.create 4 in
  let g = Gen.random_regular_ish rng 100 5 in
  check_bool "degree cap" true (G.max_degree g <= 5);
  check_bool "mostly d-regular" true
    (G.avg_degree g > 4.0)

let test_gen_random_tree () =
  let rng = Rng.create 5 in
  for n = 1 to 30 do
    let g = Gen.random_tree rng n in
    check "tree edges" (max 0 (n - 1)) (G.n_edges g);
    check_bool "connected" true (T.is_connected g)
  done

let test_gen_unit_interval () =
  let rng = Rng.create 6 in
  let g = Gen.unit_interval rng 100 20.0 in
  (* Interval graphs sorted by left endpoint: neighbors form runs, and the
     graph has no induced C4 — spot-check connectivity of neighborhoods. *)
  check_bool "nonempty" true (G.n_edges g > 0);
  for v = 0 to 98 do
    (* consecutive overlapping windows: neighbor sets are intervals *)
    let ns = G.neighbors g v in
    Array.iteri
      (fun i u ->
        if i > 0 then check_bool "contiguous ids" true (u > ns.(i - 1)))
      ns
  done

let test_gen_power_law () =
  let rng = Rng.create 7 in
  let g = Gen.power_law rng 200 2.5 in
  check "n" 200 (G.n_vertices g);
  check_bool "connected" true (T.is_connected g);
  check_bool "skewed" true (G.max_degree g > 3 * int_of_float (G.avg_degree g))

let test_gen_hypercube () =
  let g = Gen.hypercube 4 in
  check "n" 16 (G.n_vertices g);
  check "m = d*2^(d-1)" 32 (G.n_edges g);
  check "regular" 4 (G.max_degree g);
  check "diameter = d" 4 (T.diameter g);
  (* bipartite: 2-colorable *)
  check "chi" 2
    (Option.get (C.chromatic_number_within ~budget:1_000_000 g));
  check "Q0" 1 (G.n_vertices (Gen.hypercube 0))

let test_gen_petersen_invariants () =
  let g = Gen.petersen () in
  check "n" 10 (G.n_vertices g);
  check "m" 15 (G.n_edges g);
  check "3-regular" 3 (G.max_degree g);
  check "diameter" 2 (T.diameter g);
  check "alpha" 4 (Ps_maxis.Exact.independence_number g);
  check "chi" 3 (Option.get (C.chromatic_number_within ~budget:1_000_000 g));
  check "gamma" 3
    (Option.get (Ps_graph.Dominating.domination_number_within
                   ~budget:1_000_000 g));
  check "perfect matching" 5 (Ps_graph.Matching.size (Ps_graph.Matching.greedy g))

let test_gen_kneser () =
  (* K(5,2) is Petersen *)
  let k52 = Gen.kneser_petersen_family 5 in
  check "n" 10 (G.n_vertices k52);
  check "m" 15 (G.n_edges k52);
  check "alpha = n-1" 4 (Ps_maxis.Exact.independence_number k52);
  let k62 = Gen.kneser_petersen_family 6 in
  check "K(6,2) n" 15 (G.n_vertices k62);
  check "K(6,2) alpha" 5 (Ps_maxis.Exact.independence_number k62);
  check "K(6,2) chi = n-2" 4
    (Option.get (C.chromatic_number_within ~budget:5_000_000 k62))

let test_gen_crown () =
  let g = Gen.crown 4 in
  check "n" 8 (G.n_vertices g);
  check "m = n(n-1)" 12 (G.n_edges g);
  check_bool "matching pair non-adjacent" false (G.has_edge g 0 4);
  check_bool "cross pair adjacent" true (G.has_edge g 0 5);
  check "chi" 2 (Option.get (C.chromatic_number_within ~budget:1_000_000 g))

let test_gen_wheel () =
  let w5 = Gen.wheel 5 in
  check "n" 6 (G.n_vertices w5);
  check "m" 10 (G.n_edges w5);
  check "odd wheel chi" 4
    (Option.get (C.chromatic_number_within ~budget:1_000_000 w5));
  check "even wheel chi" 3
    (Option.get (C.chromatic_number_within ~budget:1_000_000 (Gen.wheel 6)));
  check "gamma" 1
    (Option.get (Ps_graph.Dominating.domination_number_within
                   ~budget:1_000_000 w5))

let test_gen_disjoint_cliques () =
  let g = Gen.disjoint_cliques 4 3 in
  check "n" 12 (G.n_vertices g);
  check "m" 12 (G.n_edges g);
  check "components" 4 (Array.length (T.connected_components g))

(* ------------------------------------------------------------------ *)
(* Traversals *)

let test_bfs_distances () =
  let g = Gen.path 5 in
  Alcotest.(check (array int)) "path distances" [| 0; 1; 2; 3; 4 |]
    (T.bfs_distances g 0)

let test_bfs_unreachable () =
  let g = G.of_edges 4 [ (0, 1) ] in
  let d = T.bfs_distances g 0 in
  check "reachable" 1 d.(1);
  check "unreachable" (-1) d.(2)

let test_bfs_multi () =
  let g = Gen.path 7 in
  let d = T.bfs_multi g [ 0; 6 ] in
  Alcotest.(check (array int)) "multi-source" [| 0; 1; 2; 3; 2; 1; 0 |] d

let test_ball () =
  let g = Gen.ring 10 in
  Alcotest.(check (list int)) "ball r=0" [ 0 ] (T.ball g 0 0);
  Alcotest.(check (list int)) "ball r=1" [ 0; 1; 9 ] (T.ball g 0 1);
  Alcotest.(check (list int)) "ball r=2" [ 0; 1; 2; 8; 9 ] (T.ball g 0 2)

let test_ball_subgraph () =
  let g = Gen.ring 10 in
  let sub, back = T.ball_subgraph g 0 2 in
  check "vertices" 5 (G.n_vertices sub);
  check "edges" 4 (G.n_edges sub);
  Alcotest.(check (array int)) "back" [| 0; 1; 2; 8; 9 |] back

let test_components () =
  let g = G.of_edges 7 [ (0, 1); (1, 2); (4, 5) ] in
  let comps = T.connected_components g in
  check "count" 4 (Array.length comps);
  let sizes = Array.map List.length comps |> Array.to_list
              |> List.sort compare in
  Alcotest.(check (list int)) "sizes" [ 1; 1; 2; 3 ] sizes

let test_eccentricity_diameter () =
  let g = Gen.grid 3 3 in
  check "center ecc" 2 (T.eccentricity g 4);
  check "corner ecc" 4 (T.eccentricity g 0);
  check "diameter" 4 (T.diameter g)

let test_diameter_disconnected () =
  check "disconnected" (-1) (T.diameter (G.of_edges 3 [ (0, 1) ]));
  check "singleton" 0 (T.diameter (G.empty 1));
  check "empty" 0 (T.diameter (G.empty 0))

let test_dfs_preorder () =
  let g = Gen.path 4 in
  Alcotest.(check (list int)) "preorder" [ 0; 1; 2; 3 ] (T.dfs_preorder g 0)

let test_distance () =
  let g = Gen.ring 12 in
  check "antipodal" 6 (T.distance g 0 6);
  check "adjacent" 1 (T.distance g 0 11)

let test_power_graph () =
  let g = Gen.ring 6 in
  check_bool "power 1 = g" true (G.equal (T.power g 1) g);
  check "power 0 edgeless" 0 (G.n_edges (T.power g 0));
  let p2 = T.power g 2 in
  check "ring^2 is 4-regular" 4 (G.max_degree p2);
  check_bool "distance-2 pair adjacent" true (G.has_edge p2 0 2);
  check_bool "antipodal not adjacent" false (G.has_edge p2 0 3);
  (* high enough power of a connected graph is complete *)
  check_bool "power diam = complete" true
    (G.equal (T.power g (T.diameter g)) (Gen.complete 6));
  (* edges of G^k are exactly pairs at distance <= k *)
  let g = Gen.grid 3 4 in
  let p = T.power g 3 in
  for u = 0 to G.n_vertices g - 1 do
    for v = u + 1 to G.n_vertices g - 1 do
      check_bool "iff distance <= 3" (T.distance g u v <= 3)
        (G.has_edge p u v)
    done
  done

(* ------------------------------------------------------------------ *)
(* Coloring *)

let test_coloring_greedy_proper () =
  let rng = Rng.create 11 in
  let g = Gen.gnp rng 80 0.1 in
  let c = C.greedy g in
  check_bool "proper" true (C.is_proper g c);
  check_bool "within Delta+1" true (C.max_color c <= G.max_degree g)

let test_coloring_greedy_path_two_colors () =
  let g = Gen.path 10 in
  let c = C.greedy g in
  check "two colors" 2 (C.num_colors c)

let test_coloring_partial () =
  let g = triangle () in
  let c = [| 0; 1; C.uncolored |] in
  check_bool "partial proper" true (C.is_proper_partial g c);
  check_bool "not total proper" false (C.is_proper g c);
  let bad = [| 0; 0; C.uncolored |] in
  check_bool "monochromatic edge" false (C.is_proper_partial g bad)

let test_coloring_classes () =
  let c = [| 0; 1; 0; C.uncolored; 1 |] in
  let classes = C.color_classes c in
  check "count" 2 (Array.length classes);
  Alcotest.(check (list int)) "class 0" [ 0; 2 ] classes.(0);
  Alcotest.(check (list int)) "class 1" [ 1; 4 ] classes.(1)

let test_chromatic_known_values () =
  let chi g = Option.get (C.chromatic_number_within ~budget:2_000_000 g) in
  check "empty" 1 (chi (G.empty 5));
  check "zero vertices" 0 (chi (G.empty 0));
  check "path" 2 (chi (Gen.path 6));
  check "even cycle" 2 (chi (Gen.ring 8));
  check "odd cycle" 3 (chi (Gen.ring 9));
  check "K7" 7 (chi (Gen.complete 7));
  check "bipartite" 2 (chi (Gen.complete_bipartite 4 5));
  check "grid" 2 (chi (Gen.grid 4 5));
  check "tree" 2 (chi (Gen.balanced_tree 3 2))

let test_chromatic_vs_greedy () =
  let rng = Rng.create 71 in
  for _ = 1 to 8 do
    let g = Gen.gnp rng 18 0.3 in
    let chi = Option.get (C.chromatic_number_within ~budget:2_000_000 g) in
    check_bool "chi <= greedy" true (chi <= C.num_colors (C.greedy g));
    (* witness coloring exists and is proper *)
    match C.k_colorable g chi with
    | Some f ->
        check_bool "witness proper" true (C.is_proper g f);
        check_bool "witness tight" true (C.num_colors f <= chi)
    | None -> Alcotest.fail "chi not achievable"
  done

let test_k_colorable_boundaries () =
  let g = Gen.ring 5 in
  check_bool "C5 not 2-colorable" true (C.k_colorable g 2 = None);
  check_bool "C5 3-colorable" true (C.k_colorable g 3 <> None);
  check_bool "k=0 on empty" true (C.k_colorable (G.empty 0) 0 <> None);
  check_bool "k=0 with vertices" true (C.k_colorable (G.empty 1) 0 = None)

let test_coloring_custom_order () =
  let g = Gen.star 5 in
  (* Color leaves first: all get 0, the center gets 1. *)
  let c = C.greedy ~order:[| 1; 2; 3; 4; 0 |] g in
  check "leaf color" 0 c.(1);
  check "center color" 1 c.(0);
  check_bool "proper" true (C.is_proper g c)

(* ------------------------------------------------------------------ *)
(* Dominating sets *)

module D = Ps_graph.Dominating

let test_dominating_verify () =
  let g = Gen.star 5 in
  let center = Ps_util.Bitset.of_list 5 [ 0 ] in
  check_bool "center dominates star" true (D.is_dominating g center);
  let leaf = Ps_util.Bitset.of_list 5 [ 1 ] in
  check_bool "leaf does not" false (D.is_dominating g leaf);
  check_bool "verify raises" true
    (try
       D.verify_exn g leaf;
       false
     with Invalid_argument _ -> true)

let test_dominating_greedy_valid () =
  let rng = Rng.create 31 in
  List.iter
    (fun g -> check_bool "greedy dominates" true
        (D.is_dominating g (D.greedy g)))
    [ Gen.ring 12; Gen.grid 4 5; Gen.gnp rng 70 0.08; G.empty 6;
      Gen.complete 9; Gen.star 15 ]

let test_dominating_known_numbers () =
  let gamma g = Option.get (D.domination_number_within ~budget:1_000_000 g) in
  check "star" 1 (gamma (Gen.star 8));
  check "complete" 1 (gamma (Gen.complete 7));
  check "empty" 5 (gamma (G.empty 5));
  check "P4" 2 (gamma (Gen.path 4));
  (* gamma(C_n) = ceil(n/3) *)
  check "C6" 2 (gamma (Gen.ring 6));
  check "C7" 3 (gamma (Gen.ring 7));
  check "C9" 3 (gamma (Gen.ring 9))

let test_dominating_exact_at_most_greedy () =
  let rng = Rng.create 32 in
  for _ = 1 to 8 do
    let g = Gen.gnp rng 18 0.15 in
    let exact = Option.get (D.domination_number_within ~budget:2_000_000 g) in
    check_bool "exact <= greedy" true
      (exact <= Ps_util.Bitset.cardinal (D.greedy g))
  done

let test_dominating_budget_gives_up () =
  let g = Gen.gnp (Rng.create 33) 30 0.1 in
  check_bool "tiny budget" true (D.minimum_within ~budget:1 g = None)

(* ------------------------------------------------------------------ *)
(* Matching *)

module M = Ps_graph.Matching

let test_matching_verify () =
  let g = Gen.path 4 in
  check_bool "valid maximal" true
    (M.is_maximal_matching g [| 1; 0; 3; 2 |]);
  check_bool "valid but not maximal" false
    (M.is_maximal_matching g [| -1; -1; 3; 2 |]);
  check_bool "still a matching" true (M.is_matching g [| -1; -1; 3; 2 |]);
  check_bool "broken involution" false (M.is_matching g [| 1; 2; 1; -1 |]);
  check_bool "non-edge pair" false
    (M.is_matching (Gen.path 4) [| 2; -1; 0; -1 |])

let test_matching_greedy () =
  let rng = Rng.create 61 in
  List.iter
    (fun g ->
      let m = M.greedy g in
      check_bool "maximal matching" true (M.is_maximal_matching g m))
    [ Gen.path 7; Gen.ring 8; Gen.complete 9; Gen.gnp rng 60 0.1;
      G.empty 5; Gen.star 10 ]

let test_matching_size_and_vertices () =
  let m = [| 1; 0; -1; 4; 3 |] in
  check "size" 2 (M.size m);
  Alcotest.(check (list int)) "matched" [ 0; 1; 3; 4 ] (M.matched_vertices m)

let test_matching_greedy_custom_order () =
  let g = Gen.path 4 in
  (* prefer the middle edge: leaves ends unmatched but still maximal *)
  let m = M.greedy ~order:[ (1, 2) ] g in
  check "partner of 1" 2 m.(1);
  check_bool "maximal" true (M.is_maximal_matching g m)

let test_matching_perfect_on_even_ring () =
  let g = Gen.ring 8 in
  check "perfect" 4 (M.size (M.greedy g))

(* ------------------------------------------------------------------ *)
(* I/O *)

let test_io_roundtrip () =
  let rng = Rng.create 21 in
  let g = Gen.gnp rng 40 0.15 in
  let g' = Gio.of_edge_list (Gio.to_edge_list g) in
  check_bool "roundtrip" true (G.equal g g')

let test_io_comments_and_blanks () =
  let text = "# a comment\n3 2\n\n0 1\n# another\n1 2\n" in
  let g = Gio.of_edge_list text in
  check "n" 3 (G.n_vertices g);
  check "m" 2 (G.n_edges g)

let test_io_bad_header () =
  Alcotest.check_raises "bad header"
    (Failure "Gio.of_edge_list: line 1: header must be \"n m\"") (fun () ->
      ignore (Gio.of_edge_list "3\n"))

let test_io_whitespace_tolerance () =
  (* tabs, runs of blanks and CRLF line endings all parse *)
  let g = Gio.of_edge_list "3\t2\r\n0  \t1\r\n 1\t 2 \r\n" in
  check "n" 3 (G.n_vertices g);
  check "m" 2 (G.n_edges g);
  check_bool "edge 0-1" true (G.has_edge g 0 1);
  check_bool "edge 1-2" true (G.has_edge g 1 2)

let test_io_rejects_out_of_range_vertex () =
  Alcotest.check_raises "id = n"
    (Failure "Gio.of_edge_list: line 2: vertex id 3 out of range [0, 3)")
    (fun () -> ignore (Gio.of_edge_list "3 1\n0 3\n"));
  Alcotest.check_raises "negative id"
    (Failure "Gio.of_edge_list: line 3: vertex id -1 out of range [0, 3)")
    (fun () -> ignore (Gio.of_edge_list "3 2\n0 1\n-1 2\n"));
  Alcotest.check_raises "negative vertex count"
    (Failure "Gio.of_edge_list: line 1: vertex count must be nonnegative")
    (fun () -> ignore (Gio.of_edge_list "-3 0\n"))

let test_io_edge_count_mismatch () =
  check_bool "mismatch raises" true
    (try
       ignore (Gio.of_edge_list "3 5\n0 1\n");
       false
     with Failure _ -> true)

let test_io_dot () =
  let dot = Gio.to_dot ~name:"t" (triangle ()) in
  check_bool "mentions graph" true
    (String.length dot > 10 && String.sub dot 0 7 = "graph t")

let test_io_file_roundtrip () =
  let g = Gen.grid 3 4 in
  let path = Filename.temp_file "pslocal" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Gio.write_file path g;
      check_bool "file roundtrip" true (G.equal g (Gio.read_file path)))

(* An id of 19+ digits used to wrap modulo 2^63 in the fast scanner and
   land in range (the first case read as the edge 1-5). *)
let test_io_rejects_overlong_id () =
  Alcotest.check_raises "wraps into range"
    (Failure "Gio.of_edge_list: line 2: bad edge") (fun () ->
      ignore (Gio.of_edge_list "10 1\n9223372036854775813 1\n"));
  Alcotest.check_raises "20 digits"
    (Failure "Gio.of_edge_list: line 2: bad edge") (fun () ->
      ignore (Gio.of_edge_list "3 1\n0 12345678901234567890\n"));
  Alcotest.check_raises "max_int is out of range"
    (Failure
       "Gio.of_edge_list: line 2: vertex id 4611686018427387903 out of \
        range [0, 3)") (fun () ->
      ignore (Gio.of_edge_list "3 1\n0 4611686018427387903\n"));
  let g = Gio.of_edge_list "3 1\n000000000000000000001 2\n" in
  check_bool "leading zeros still parse" true (G.has_edge g 1 2)

let test_io_rejects_self_loop () =
  Alcotest.check_raises "self-loop"
    (Failure "Gio.of_edge_list: line 2: self-loop on vertex 1") (fun () ->
      ignore (Gio.of_edge_list "3 1\n1 1\n"));
  Alcotest.check_raises "self-loop on the slow path"
    (Failure "Gio.of_edge_list: line 3: self-loop on vertex 2") (fun () ->
      ignore (Gio.of_edge_list "3 2\n0 1\n0x2 2\n"))

(* Test-only oracle: the line-based parser the windowed scanner replaced
   — split the text on '\n', tokenize every line, [int_of_string] each
   field — plus the scanner's line-numbered self-loop check.  The old
   allocation-free digit loop is left out on purpose: it was the path
   that let an overlong id wrap into range. *)
let oracle_of_edge_list text =
  let fail lineno msg =
    failwith (Printf.sprintf "Gio.of_edge_list: line %d: %s" lineno msg)
  in
  let tokens line =
    String.map
      (fun c -> if c = '\t' || c = '\r' || c = '\012' then ' ' else c)
      line
    |> String.split_on_char ' '
    |> List.filter (fun t -> t <> "")
  in
  let lines = String.split_on_char '\n' text in
  (* A trailing newline ends the last line; it does not start one. *)
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let content =
    List.mapi (fun i line -> (i + 1, tokens line)) lines
    |> List.filter (fun (_, toks) ->
           match toks with [] -> false | t :: _ -> t.[0] <> '#')
  in
  let pair lineno what = function
    | [ a; b ] -> (
        try (int_of_string a, int_of_string b)
        with Failure _ -> fail lineno ("bad " ^ what))
    | _ ->
        fail lineno
          (if what = "header" then "header must be \"n m\""
           else "edge must be \"u v\"")
  in
  match content with
  | [] -> failwith "Gio.of_edge_list: empty input"
  | (hline, htoks) :: rest ->
      let n, m = pair hline "header" htoks in
      if n < 0 then fail hline "vertex count must be nonnegative";
      if m < 0 then fail hline "edge count must be nonnegative";
      let edges =
        List.map
          (fun (lineno, toks) ->
            let u, v = pair lineno "edge" toks in
            List.iter
              (fun x ->
                if x < 0 || x >= n then
                  fail lineno
                    (Printf.sprintf "vertex id %d out of range [0, %d)" x n))
              [ u; v ];
            if u = v then
              fail lineno (Printf.sprintf "self-loop on vertex %d" u);
            (u, v))
          rest
      in
      if List.length edges <> m then
        failwith
          (Printf.sprintf "Gio.of_edge_list: header promises %d edges, found %d"
             m (List.length edges));
      G.of_edges n edges

let with_temp_file text f =
  let path = Filename.temp_file "pslocal" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      f path)

(* A 20-byte input whose header promises 10^14 edges: preallocation is
   bounded by the input length, so both readers reach the header-count
   check instead of dying in [Array.make]. *)
let test_io_huge_header_m () =
  let text = "3 100000000000000\n0 1\n" in
  let want =
    Failure "Gio.of_edge_list: header promises 100000000000000 edges, found 1"
  in
  Alcotest.check_raises "of_edge_list" want (fun () ->
      ignore (Gio.of_edge_list text));
  Alcotest.check_raises "read_file" want (fun () ->
      ignore (with_temp_file text Gio.read_file))

(* A 20-byte input whose header promises more vertices than int32 ids
   can name: 2^60, 2^50 and the boundary 2^31.  Both readers report
   line 1 before allocating anything sized by the header.  (A header of
   2^31 - 1 passes this check and can only fail by running out of
   memory, which the CLI smoke test exercises under an address-space
   limit.) *)
let test_io_huge_header_n () =
  List.iter
    (fun n ->
      let text = Printf.sprintf "%d 1\n0 1\n" n in
      let want =
        Failure
          (Printf.sprintf
             "Gio.of_edge_list: line 1: vertex count %d exceeds the int32 id \
              limit 2147483647"
             n)
      in
      Alcotest.check_raises "of_edge_list" want (fun () ->
          ignore (Gio.of_edge_list text));
      Alcotest.check_raises "read_file" want (fun () ->
          ignore (with_temp_file text Gio.read_file)))
    [ 1 lsl 60; 1 lsl 50; 1 lsl 31 ]

(* The constructors enforce the same limit, before allocating. *)
let test_constructors_reject_huge_n () =
  let n = G.max_vertices + 1 in
  List.iter
    (fun (name, build) ->
      check_bool name true
        (try
           ignore (build ());
           false
         with Invalid_argument _ -> true))
    [ ("of_edges", fun () -> G.of_edges n []);
      ("of_sorted_edge_array", fun () -> G.of_sorted_edge_array n [||]);
      ("of_unnormalized_pairs",
       fun () -> G.of_unnormalized_pairs n (G.Pairs.create ()));
      ("of_csr", fun () -> G.of_csr n ~offsets:[| 0 |] ~adj:(i32 [||])) ]

let outcome f = match f () with g -> Ok g | exception Failure m -> Error m

let same_outcome a b =
  match (a, b) with
  | Ok g, Ok h -> G.equal g h
  | Error x, Error y -> String.equal x y
  | _ -> false

(* Both front-ends, checked against the oracle: the same graph, or a
   [Failure] with exactly the oracle's message. *)
let agrees_with_oracle text =
  let want = outcome (fun () -> oracle_of_edge_list text) in
  same_outcome want (outcome (fun () -> Gio.of_edge_list text))
  && same_outcome want
       (outcome (fun () -> with_temp_file text Gio.read_file))

(* Both front-ends with the body split across 1 to 4 domains, checked
   against the oracle the same way: the graph and every message must
   not depend on where the splits fall. *)
let agrees_at_all_domains text =
  let want = outcome (fun () -> oracle_of_edge_list text) in
  with_temp_file text (fun path ->
      List.for_all
        (fun d ->
          same_outcome want
            (outcome (fun () -> Gio.of_edge_list ~domains:d text))
          && same_outcome want
               (outcome (fun () -> Gio.read_file ~domains:d path)))
        [ 1; 2; 3; 4 ])

(* A comment line longer than the 64 KiB read chunk (the buffer must
   grow), a data line that long too, and data lines laid across the
   chunk boundaries: the id "123" straddles byte 65536 exactly, and
   enough lines follow that every later refill cuts one as well. *)
let window_boundary_input () =
  let chunk = 65536 and n = 1000 in
  let avoid_loop u v = if u = v then (u, (v + 1) mod n) else (u, v) in
  let early = List.init 1000 (fun i -> avoid_loop i (((i * 7) + 1) mod n)) in
  let late =
    List.init 30_000 (fun i -> avoid_loop (i mod n) (((i * 31) + 17) mod n))
  in
  let edges = ((123, 456) :: early) @ ((0, 999) :: late) in
  let header = Printf.sprintf "%d %d\n" n (List.length edges) in
  let lines es =
    String.concat ""
      (List.map (fun (u, v) -> Printf.sprintf "%d %d\n" u v) es)
  in
  (* Header plus this comment end 2 bytes short of the first boundary. *)
  let pad = "#" ^ String.make (chunk - 2 - String.length header - 2) '-' in
  let text =
    String.concat ""
      [ header; pad ^ "\n"; lines ((123, 456) :: early);
        "#" ^ String.make (chunk + 5000) 'x' ^ "\n";
        "0" ^ String.make (chunk + 17) ' ' ^ "999\r\n";
        lines late ]
  in
  check_bool "\"123\" straddles the first boundary" true
    (String.equal (String.sub text (chunk - 2) 3) "123");
  (text, G.of_edges n edges)

let test_io_chunk_boundaries () =
  let text, want = window_boundary_input () in
  check_bool "of_edge_list" true (G.equal want (Gio.of_edge_list text));
  check_bool "read_file" true
    (G.equal want (with_temp_file text Gio.read_file));
  check_bool "oracle agrees" true (agrees_with_oracle text)

(* Split points swept over a body: a comment of [k] bytes after the
   header shifts the body by [k] while each split point moves by about
   k / d, so as [k] runs over twice the body's length every byte of the
   body falls under a split at every domain count. *)
let sweep_splits ?(step = 1) body =
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k <= 2 * String.length body do
    let text = "9 7\n#" ^ String.make !k '.' ^ "\n" ^ body in
    if not (agrees_at_all_domains text) then begin
      ok := false;
      Printf.printf "disagreement at pad %d: %S\n" !k text
    end;
    k := !k + step
  done;
  !ok

(* Seven edges among CRLF endings, tabs, comment lines (one holding a
   pair), blank and whitespace-only lines, and no trailing newline. *)
let split_body_lines =
  [ "0 1\r"; "# comment 5 6"; ""; "2\t3\r"; " \t"; "4 5"; "# x\r"; "6\t 7\r";
    ""; "1 8"; "3\t 4"; "0 8" ]

let test_io_split_clean () =
  check_bool "every split agrees" true
    (sweep_splits (String.concat "\n" split_body_lines))

(* One bad line at a random position, and sometimes a second one after
   it: the first in file order must win whichever chunk it lands in. *)
let test_io_split_bad_line () =
  let rng = Rng.create 2024 in
  let bad = [| "1 1"; "0 9"; "x 1"; "0 1 2"; "-1 0"; "0 1#" |] in
  for _ = 1 to 6 do
    let lines = Array.of_list split_body_lines in
    let insert lines =
      let at = Rng.int rng (Array.length lines + 1) in
      let line = bad.(Rng.int rng (Array.length bad)) in
      Array.concat
        [ Array.sub lines 0 at; [| line |];
          Array.sub lines at (Array.length lines - at) ]
    in
    let lines = insert lines in
    let lines = if Rng.bool rng then insert lines else lines in
    let body = String.concat "\n" (Array.to_list lines) in
    check_bool body true (sweep_splits ~step:3 body)
  done

(* Inputs with fewer body lines, or bytes, than domains. *)
let test_io_split_tiny () =
  List.iter
    (fun text ->
      check_bool (String.escaped text) true (agrees_at_all_domains text))
    [ "3 1\n0 1\n"; "3 1\n0 1"; "3 0\n"; "3 0"; "3 1\n\n0 1\n"; "3 2\n0 1\n1 2";
      "3 1\n1 1\n"; "3 2\n0 1\n"; "# c\n3 1\r\n\t0 2\r\n" ]

(* The 64 KiB window tests at every domain count: the split points of
   3 and 4 domains fall inside the 70 KB comment line and the 65 KB
   data line, which the chunk before reads whole and the chunk after
   skips. *)
let test_io_split_long_lines () =
  let text, want = window_boundary_input () in
  List.iter
    (fun d ->
      check_bool (Printf.sprintf "of_edge_list %d" d) true
        (G.equal want (Gio.of_edge_list ~domains:d text)))
    [ 2; 3; 4 ];
  check_bool "every domain count agrees" true (agrees_at_all_domains text)

(* Reading ~10^5 edges must not allocate on the minor heap per line:
   the endpoint and CSR arrays are large enough to go straight to the
   major heap, and the scanner keeps its per-line state in one mutable
   window.  A line string or a (u, v) tuple per line is several words. *)
let test_io_read_file_allocation () =
  let g = Gen.rmat (Rng.create 5) ~scale:14 ~edges:100_000 in
  let path = Filename.temp_file "pslocal" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Gio.write_file path g;
      let before = Gc.minor_words () in
      let back = Gio.read_file path in
      let words = Gc.minor_words () -. before in
      check_bool "roundtrip" true (G.equal g back);
      let lines = G.n_edges g in
      check_bool
        (Printf.sprintf "%.0f minor words over %d data lines" words lines)
        true
        (lines > 50_000 && words < float_of_int lines))

(* ------------------------------------------------------------------ *)
(* Fast-path constructors *)

let test_of_sorted_edge_array () =
  let edges = [| (0, 1); (0, 2); (1, 2); (2, 3) |] in
  let fast = G.of_sorted_edge_array ~validate:true 4 edges in
  let slow = G.of_edges 4 (Array.to_list edges) in
  check_bool "equal to of_edges" true (G.equal fast slow)

let test_of_sorted_edge_array_rejects_unsorted () =
  check_bool "unsorted rejected" true
    (try
       ignore (G.of_sorted_edge_array ~validate:true 3 [| (1, 2); (0, 1) |]);
       false
     with Invalid_argument _ -> true);
  check_bool "reversed endpoint rejected" true
    (try
       ignore (G.of_sorted_edge_array ~validate:true 3 [| (1, 0) |]);
       false
     with Invalid_argument _ -> true);
  check_bool "duplicate rejected" true
    (try
       ignore (G.of_sorted_edge_array ~validate:true 3 [| (0, 1); (0, 1) |]);
       false
     with Invalid_argument _ -> true)

let test_of_csr () =
  (* path 0 - 1 - 2 as raw CSR *)
  let g =
    G.of_csr ~validate:true 3 ~offsets:[| 0; 1; 3; 4 |]
      ~adj:(i32 [| 1; 0; 2; 1 |])
  in
  check_bool "equal to of_edges" true
    (G.equal g (G.of_edges 3 [ (0, 1); (1, 2) ]))

let test_of_csr_rejects_invalid () =
  check_bool "asymmetric rejected" true
    (try
       ignore
         (G.of_csr ~validate:true 2 ~offsets:[| 0; 1; 1 |] ~adj:(i32 [| 1 |]));
       false
     with Invalid_argument _ -> true);
  check_bool "unsorted row rejected" true
    (try
       ignore
         (G.of_csr ~validate:true 3 ~offsets:[| 0; 2; 3; 4 |]
            ~adj:(i32 [| 2; 1; 0; 0 |]));
       false
     with Invalid_argument _ -> true);
  check_bool "bad offsets length rejected" true
    (try
       ignore (G.of_csr ~validate:true 2 ~offsets:[| 0; 0 |] ~adj:(i32 [||]));
       false
     with Invalid_argument _ -> true)

let test_of_csr_prefix () =
  (* Arena-backed view: arrays longer than their logical content; the
     spare tails (99 / 77 sentinels) must be invisible everywhere. *)
  let offsets = [| 0; 1; 3; 4; 99; 99 |] in
  let adj = i32 [| 1; 0; 2; 1; 77; 77 |] in
  let g = G.of_csr_prefix ~validate:true 3 ~offsets ~adj in
  check "n" 3 (G.n_vertices g);
  check "m" 2 (G.n_edges g);
  check_bool "equal to exact-size graph" true
    (G.equal g (G.of_edges 3 [ (0, 1); (1, 2) ]));
  let o, a = G.to_csr g in
  check_bool "to_csr trims to logical content" true
    (o = [| 0; 1; 3; 4 |] && a = [| 1; 0; 2; 1 |]);
  check_bool "prefix shorter than n+1 rejected" true
    (try
       ignore (G.of_csr_prefix ~validate:true 3 ~offsets:[| 0; 1 |] ~adj);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let arbitrary_gnp =
  (* Generates (seed, n, p-as-percent) and builds a random graph. *)
  QCheck.make
    ~print:(fun (seed, n, p) -> Printf.sprintf "gnp seed=%d n=%d p=%d%%" seed n p)
    QCheck.Gen.(triple (int_bound 1000) (int_range 1 40) (int_bound 100))

let graph_of (seed, n, p) =
  Gen.gnp (Rng.create seed) n (float_of_int p /. 100.0)

let prop_handshake =
  QCheck.Test.make ~count:200 ~name:"handshake: sum of degrees = 2m"
    arbitrary_gnp (fun params ->
      let g = graph_of params in
      let sum = ref 0 in
      for v = 0 to G.n_vertices g - 1 do
        sum := !sum + G.degree g v
      done;
      !sum = 2 * G.n_edges g)

let prop_has_edge_matches_neighbors =
  QCheck.Test.make ~count:100 ~name:"has_edge agrees with neighbor lists"
    arbitrary_gnp (fun params ->
      let g = graph_of params in
      let ok = ref true in
      for u = 0 to G.n_vertices g - 1 do
        for v = 0 to G.n_vertices g - 1 do
          if u <> v then begin
            let listed = Array.mem v (G.neighbors g u) in
            if listed <> G.has_edge g u v then ok := false
          end
        done
      done;
      !ok)

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~count:100
    ~name:"bfs distances satisfy edge-wise triangle inequality"
    arbitrary_gnp (fun params ->
      let g = graph_of params in
      if G.n_vertices g = 0 then true
      else begin
        let d = T.bfs_distances g 0 in
        let ok = ref true in
        G.iter_edges g (fun u v ->
            if d.(u) >= 0 && d.(v) >= 0 && abs (d.(u) - d.(v)) > 1 then
              ok := false);
        !ok
      end)

let prop_greedy_coloring_proper =
  QCheck.Test.make ~count:100 ~name:"greedy coloring always proper, ≤ Δ+1"
    arbitrary_gnp (fun params ->
      let g = graph_of params in
      let c = C.greedy g in
      C.is_proper g c && C.max_color c <= G.max_degree g)

let prop_components_partition =
  QCheck.Test.make ~count:100 ~name:"components partition the vertex set"
    arbitrary_gnp (fun params ->
      let g = graph_of params in
      let comps = T.connected_components g in
      let all = Array.to_list comps |> List.concat |> List.sort compare in
      all = List.init (G.n_vertices g) (fun i -> i))

let prop_io_roundtrip =
  QCheck.Test.make ~count:50 ~name:"edge-list IO roundtrip"
    arbitrary_gnp (fun params ->
      let g = graph_of params in
      G.equal g (Gio.of_edge_list (Gio.to_edge_list g)))

(* Re-render [text] with randomized token separators: runs of spaces and
   tabs between tokens, optional leading/trailing blanks, CRLF line
   endings. A parser that tokenizes on single ' ' only chokes on all of
   these. *)
let mangle_whitespace rng text =
  let buf = Buffer.create (String.length text * 2) in
  let sep () =
    for _ = 0 to Rng.int rng 3 do
      Buffer.add_char buf (if Rng.bernoulli rng 0.5 then '\t' else ' ')
    done
  in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" then begin
           if Rng.bernoulli rng 0.3 then sep ();
           List.iteri
             (fun i tok ->
               if i > 0 then sep ();
               Buffer.add_string buf tok)
             (String.split_on_char ' ' line);
           if Rng.bernoulli rng 0.3 then sep ();
           if Rng.bernoulli rng 0.5 then Buffer.add_char buf '\r';
           Buffer.add_char buf '\n'
         end);
  Buffer.contents buf

let prop_io_roundtrip_whitespace =
  QCheck.Test.make ~count:50
    ~name:"edge-list IO roundtrip under randomized whitespace"
    arbitrary_gnp (fun params ->
      let seed, _, _ = params in
      let g = graph_of params in
      let text = mangle_whitespace (Rng.create (seed + 1)) (Gio.to_edge_list g) in
      G.equal g (Gio.of_edge_list text))

(* A random edge list as found in the wild, drawn from [seed]: runs of
   spaces, tabs and form feeds, CRLF endings, blank and comment lines,
   [0x]/[_]/leading-zero ids, sometimes no trailing newline, a header
   count that is sometimes off, and now and then one bad line (wrong
   arity, junk, a self-loop, an out-of-range, negative or overlong id,
   a trailing comment). *)
let mangled_edge_list seed =
  let rng = Rng.create seed in
  let n = Rng.int rng 12 in
  let g = Gen.gnp rng n 0.3 in
  let buf = Buffer.create 256 in
  let sep () =
    for _ = 0 to Rng.int rng 2 do
      Buffer.add_char buf [| ' '; ' '; '\t'; '\012' |].(Rng.int rng 4)
    done
  in
  let eol () =
    if Rng.bernoulli rng 0.3 then Buffer.add_char buf '\r';
    Buffer.add_char buf '\n'
  in
  let noise () =
    while Rng.bernoulli rng 0.2 do
      (match Rng.int rng 3 with
      | 0 -> ()
      | 1 -> sep ()
      | _ ->
          if Rng.bool rng then sep ();
          Buffer.add_string buf "# 0 1 comment");
      eol ()
    done
  in
  let id v =
    match Rng.int rng 8 with
    | 0 -> Printf.sprintf "0x%x" v
    | 1 when v >= 10 ->
        let d = string_of_int v in
        String.sub d 0 1 ^ "_" ^ String.sub d 1 (String.length d - 1)
    | 2 -> "000" ^ string_of_int v
    | _ -> string_of_int v
  in
  let line toks =
    noise ();
    if Rng.bernoulli rng 0.3 then sep ();
    List.iteri
      (fun i t ->
        if i > 0 then sep ();
        Buffer.add_string buf t)
      toks;
    if Rng.bernoulli rng 0.3 then sep ();
    eol ()
  in
  let m = G.n_edges g in
  let m = if Rng.bernoulli rng 0.1 then m + 1 - Rng.int rng 3 else m in
  line [ id n; id m ];
  let bad () =
    match Rng.int rng 9 with
    | 0 -> [ "1" ]
    | 1 -> [ "0"; "1"; "2" ]
    | 2 -> [ "x"; "1" ]
    | 3 -> [ "0"; "0" ]
    | 4 -> [ "0"; string_of_int n ]
    | 5 -> [ "-1"; "0" ]
    | 6 -> [ "12345678901234567890"; "0" ]
    | 7 -> [ "0"; "1#" ]
    | _ -> [ "0"; "1"; "#"; "note" ]
  in
  G.iter_edges g (fun u v ->
      if Rng.bernoulli rng 0.03 then line (bad ());
      if Rng.bool rng then line [ id u; id v ] else line [ id v; id u ]);
  noise ();
  let text = Buffer.contents buf in
  let len = String.length text in
  if len > 0 && Rng.bernoulli rng 0.3 then String.sub text 0 (len - 1)
  else text

let prop_io_scanner_matches_oracle =
  QCheck.Test.make ~count:300
    ~name:"edge-list scanner = line-based oracle (graph or exact error)"
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "%S" (mangled_edge_list seed))
       (QCheck.Gen.int_bound 1_000_000))
    (fun seed -> agrees_with_oracle (mangled_edge_list seed))

(* The pair orders that take each branch of the per-row sortedness
   check: sorted and duplicate-laden sorted rows skip the sort,
   reverse-sorted and shuffled rows take it. *)
let prop_io_split_matches_oracle =
  QCheck.Test.make ~count:100
    ~name:"split edge-list readers at 1-4 domains = line-based oracle"
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "%S" (mangled_edge_list seed))
       (QCheck.Gen.int_bound 1_000_000))
    (fun seed -> agrees_at_all_domains (mangled_edge_list seed))

let prop_unnormalized_pairs_orders =
  QCheck.Test.make ~count:100
    ~name:"of_unnormalized_pairs = of_edges on sorted/reversed/shuffled/dup"
    arbitrary_gnp (fun ((seed, n, _) as params) ->
      let g = graph_of params in
      let sorted = Array.of_list (G.edges g) in
      let reversed = Array.of_list (List.rev (G.edges g)) in
      let shuffled = Array.copy sorted in
      Rng.shuffle_in_place (Rng.create seed) shuffled;
      let dups =
        Array.concat
          [ sorted; sorted; Array.sub sorted 0 (Array.length sorted / 2) ]
      in
      Array.sort
        (fun (a, b) (c, d) ->
          if a <> c then Int.compare a c else Int.compare b d)
        dups;
      List.for_all
        (fun pairs ->
          let buf = G.Pairs.create () in
          Array.iter (fun (u, v) -> G.Pairs.push buf u v) pairs;
          G.equal g (G.of_unnormalized_pairs n buf))
        [ sorted; reversed; shuffled; dups ])

let prop_sorted_edge_array_fast_path =
  QCheck.Test.make ~count:100
    ~name:"of_sorted_edge_array (validated) = of_edges on sorted edges"
    arbitrary_gnp (fun params ->
      let g = graph_of params in
      (* [G.edges] returns each edge once, u < v, lexicographic. *)
      let edges = Array.of_list (G.edges g) in
      G.equal g
        (G.of_sorted_edge_array ~validate:true (G.n_vertices g) edges))

(* The O(ball) local views against plain references: the edge filter
   for the induced subgraph (duplicate picks and the empty set
   included), BFS distances for the ball. *)
let arbitrary_gnp_picks =
  QCheck.make
    ~print:(fun ((seed, n, p), picks) ->
      Printf.sprintf "gnp seed=%d n=%d p=%d%% picks=[%s]" seed n p
        (String.concat ";" (List.map string_of_int picks)))
    QCheck.Gen.(
      pair
        (triple (int_bound 1000) (int_range 1 40) (int_bound 100))
        (list_size (int_bound 60) (int_bound 1000)))

let prop_induced_subgraph_reference =
  QCheck.Test.make ~count:200 ~name:"induced_subgraph = edge-filter reference"
    arbitrary_gnp_picks (fun (params, picks) ->
      let g = graph_of params in
      let n = G.n_vertices g in
      let reference vs =
        let back = Array.of_list (List.sort_uniq compare vs) in
        let id = Array.make n (-1) in
        Array.iteri (fun i v -> id.(v) <- i) back;
        let kept =
          List.filter_map
            (fun (u, v) ->
              if id.(u) >= 0 && id.(v) >= 0 then Some (id.(u), id.(v))
              else None)
            (G.edges g)
        in
        (G.of_edges (Array.length back) kept, back)
      in
      List.for_all
        (fun vs ->
          let sub, back = G.induced_subgraph g vs in
          let ref_sub, ref_back = reference vs in
          back = ref_back && G.equal sub ref_sub)
        [ List.map (fun x -> x mod n) picks; [] ])

let prop_ball_reference =
  QCheck.Test.make ~count:200 ~name:"ball = vertices within BFS distance r"
    (QCheck.pair arbitrary_gnp
       QCheck.(pair (int_bound 1000) (int_bound 6)))
    (fun (params, (v, r)) ->
      let g = graph_of params in
      let n = G.n_vertices g in
      let v = v mod n in
      let d = T.bfs_distances g v in
      let within r =
        List.filter (fun u -> d.(u) >= 0 && d.(u) <= r) (List.init n Fun.id)
      in
      T.ball g v r = within r && T.ball g v n = within n)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_handshake;
      prop_has_edge_matches_neighbors;
      prop_bfs_triangle_inequality;
      prop_greedy_coloring_proper;
      prop_components_partition;
      prop_io_roundtrip;
      prop_io_roundtrip_whitespace;
      prop_io_scanner_matches_oracle;
      prop_io_split_matches_oracle;
      prop_unnormalized_pairs_orders;
      prop_sorted_edge_array_fast_path;
      prop_induced_subgraph_reference;
      prop_ball_reference ]

let suites =
  [ ( "graph.core",
      [ Alcotest.test_case "basic" `Quick test_graph_basic;
        Alcotest.test_case "duplicates collapse" `Quick
          test_graph_duplicate_edges_collapse;
        Alcotest.test_case "rejects self-loop" `Quick
          test_graph_rejects_self_loop;
        Alcotest.test_case "rejects out of range" `Quick
          test_graph_rejects_out_of_range;
        Alcotest.test_case "neighbors sorted" `Quick
          test_graph_neighbors_sorted;
        Alcotest.test_case "empty graph" `Quick test_graph_empty;
        Alcotest.test_case "zero vertices" `Quick test_graph_zero_vertices;
        Alcotest.test_case "edges iteration" `Quick
          test_graph_edges_iteration;
        Alcotest.test_case "fold/exists" `Quick test_graph_fold_exists;
        Alcotest.test_case "induced subgraph" `Quick test_induced_subgraph;
        Alcotest.test_case "induced relabeling" `Quick
          test_induced_subgraph_relabeling;
        Alcotest.test_case "complement" `Quick test_complement;
        Alcotest.test_case "union" `Quick test_union;
        Alcotest.test_case "degree stats" `Quick test_avg_max_degree;
        Alcotest.test_case "of_sorted_edge_array" `Quick
          test_of_sorted_edge_array;
        Alcotest.test_case "of_sorted_edge_array rejects" `Quick
          test_of_sorted_edge_array_rejects_unsorted;
        Alcotest.test_case "of_csr" `Quick test_of_csr;
        Alcotest.test_case "of_csr rejects" `Quick
          test_of_csr_rejects_invalid;
        Alcotest.test_case "of_csr_prefix" `Quick test_of_csr_prefix ] );
    ( "graph.gen",
      [ Alcotest.test_case "ring" `Quick test_gen_ring;
        Alcotest.test_case "path" `Quick test_gen_path;
        Alcotest.test_case "complete" `Quick test_gen_complete;
        Alcotest.test_case "complete bipartite" `Quick
          test_gen_complete_bipartite;
        Alcotest.test_case "grid" `Quick test_gen_grid;
        Alcotest.test_case "balanced tree" `Quick test_gen_balanced_tree;
        Alcotest.test_case "gnp extremes" `Quick test_gen_gnp_extremes;
        Alcotest.test_case "gnp density" `Quick test_gen_gnp_density;
        Alcotest.test_case "gnm" `Quick test_gen_gnm;
        Alcotest.test_case "random regular-ish" `Quick
          test_gen_random_regular_ish;
        Alcotest.test_case "random tree" `Quick test_gen_random_tree;
        Alcotest.test_case "unit interval" `Quick test_gen_unit_interval;
        Alcotest.test_case "power law" `Quick test_gen_power_law;
        Alcotest.test_case "hypercube" `Quick test_gen_hypercube;
        Alcotest.test_case "petersen invariants" `Quick
          test_gen_petersen_invariants;
        Alcotest.test_case "kneser" `Quick test_gen_kneser;
        Alcotest.test_case "crown" `Quick test_gen_crown;
        Alcotest.test_case "wheel" `Quick test_gen_wheel;
        Alcotest.test_case "disjoint cliques" `Quick
          test_gen_disjoint_cliques ] );
    ( "graph.traverse",
      [ Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
        Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
        Alcotest.test_case "bfs multi-source" `Quick test_bfs_multi;
        Alcotest.test_case "ball" `Quick test_ball;
        Alcotest.test_case "ball subgraph" `Quick test_ball_subgraph;
        Alcotest.test_case "components" `Quick test_components;
        Alcotest.test_case "eccentricity/diameter" `Quick
          test_eccentricity_diameter;
        Alcotest.test_case "diameter disconnected" `Quick
          test_diameter_disconnected;
        Alcotest.test_case "dfs preorder" `Quick test_dfs_preorder;
        Alcotest.test_case "distance" `Quick test_distance;
        Alcotest.test_case "power graph" `Quick test_power_graph ] );
    ( "graph.coloring",
      [ Alcotest.test_case "greedy proper" `Quick
          test_coloring_greedy_proper;
        Alcotest.test_case "path two colors" `Quick
          test_coloring_greedy_path_two_colors;
        Alcotest.test_case "partial" `Quick test_coloring_partial;
        Alcotest.test_case "classes" `Quick test_coloring_classes;
        Alcotest.test_case "chromatic known" `Quick
          test_chromatic_known_values;
        Alcotest.test_case "chromatic vs greedy" `Quick
          test_chromatic_vs_greedy;
        Alcotest.test_case "k-colorable boundaries" `Quick
          test_k_colorable_boundaries;
        Alcotest.test_case "custom order" `Quick test_coloring_custom_order ]
    );
    ( "graph.dominating",
      [ Alcotest.test_case "verify" `Quick test_dominating_verify;
        Alcotest.test_case "greedy valid" `Quick
          test_dominating_greedy_valid;
        Alcotest.test_case "known numbers" `Quick
          test_dominating_known_numbers;
        Alcotest.test_case "exact <= greedy" `Quick
          test_dominating_exact_at_most_greedy;
        Alcotest.test_case "budget" `Quick test_dominating_budget_gives_up ]
    );
    ( "graph.matching",
      [ Alcotest.test_case "verify" `Quick test_matching_verify;
        Alcotest.test_case "greedy" `Quick test_matching_greedy;
        Alcotest.test_case "size/vertices" `Quick
          test_matching_size_and_vertices;
        Alcotest.test_case "custom order" `Quick
          test_matching_greedy_custom_order;
        Alcotest.test_case "perfect on even ring" `Quick
          test_matching_perfect_on_even_ring ] );
    ( "graph.io",
      [ Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
        Alcotest.test_case "comments and blanks" `Quick
          test_io_comments_and_blanks;
        Alcotest.test_case "bad header" `Quick test_io_bad_header;
        Alcotest.test_case "whitespace tolerance" `Quick
          test_io_whitespace_tolerance;
        Alcotest.test_case "out-of-range vertex" `Quick
          test_io_rejects_out_of_range_vertex;
        Alcotest.test_case "edge count mismatch" `Quick
          test_io_edge_count_mismatch;
        Alcotest.test_case "huge header vertex count" `Quick
          test_io_huge_header_n;
        Alcotest.test_case "constructors reject n past the id limit" `Quick
          test_constructors_reject_huge_n;
        Alcotest.test_case "huge header edge count" `Quick
          test_io_huge_header_m;
        Alcotest.test_case "dot export" `Quick test_io_dot;
        Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
        Alcotest.test_case "overlong id" `Quick test_io_rejects_overlong_id;
        Alcotest.test_case "self-loop" `Quick test_io_rejects_self_loop;
        Alcotest.test_case "chunk boundaries" `Quick test_io_chunk_boundaries;
        Alcotest.test_case "split points, clean body" `Quick
          test_io_split_clean;
        Alcotest.test_case "split points, bad lines" `Quick
          test_io_split_bad_line;
        Alcotest.test_case "split inputs smaller than domains" `Quick
          test_io_split_tiny;
        Alcotest.test_case "split inside long lines" `Quick
          test_io_split_long_lines;
        Alcotest.test_case "read_file allocation" `Quick
          test_io_read_file_allocation ]
    );
    ("graph.properties", props) ]
