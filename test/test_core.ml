(* Tests for Ps_core — the paper's construction itself: triples, the
   conflict graph G_k, the Lemma 2.1 correspondences, the Theorem 1.1
   reduction, and end-to-end certification. *)

module H = Ps_hypergraph.Hypergraph
module Hgen = Ps_hypergraph.Hgen
module G = Ps_graph.Graph
module Triple = Ps_core.Triple
module Ix = Ps_core.Triple.Indexer
module Cg = Ps_core.Conflict_graph
module Corr = Ps_core.Correspondence
module Red = Ps_core.Reduction
module Cert = Ps_core.Certify
module Pipe = Ps_core.Pipeline
module Is = Ps_maxis.Independent_set
module Cf = Ps_cfc.Cf_coloring
module Mc = Ps_cfc.Multicolor
module Approx = Ps_maxis.Approx
module Rng = Ps_util.Rng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sample () = H.of_edges 5 [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 3; 4; 0 ] ]

(* ------------------------------------------------------------------ *)
(* Triple indexer *)

let test_indexer_total () =
  let h = sample () in
  (* Σ|e| = 3 + 2 + 3 = 8 *)
  check "k=1" 8 (Ix.total (Ix.make h ~k:1));
  check "k=4" 32 (Ix.total (Ix.make h ~k:4));
  check "matches formula" (Cg.size_formula h ~k:4) (Ix.total (Ix.make h ~k:4))

let test_indexer_roundtrip () =
  let h = sample () in
  let ix = Ix.make h ~k:3 in
  for idx = 0 to Ix.total ix - 1 do
    let t = Ix.decode ix idx in
    check "roundtrip" idx (Ix.encode ix t);
    check_bool "decoded valid" true (Ix.mem ix t)
  done

let test_indexer_encode_rejects () =
  let h = sample () in
  let ix = Ix.make h ~k:2 in
  check_bool "vertex not in edge" true
    (try
       ignore (Ix.encode ix { Triple.edge = 0; vertex = 3; color = 0 });
       false
     with Invalid_argument _ -> true);
  check_bool "color out of range" true
    (try
       ignore (Ix.encode ix { Triple.edge = 0; vertex = 0; color = 2 });
       false
     with Invalid_argument _ -> true)

let test_indexer_triples_of () =
  let h = sample () in
  let ix = Ix.make h ~k:2 in
  check "edge 1 has |e|*k" 4 (List.length (Ix.triples_of_edge ix 1));
  check "vertex 0 has deg*k" 4 (List.length (Ix.triples_of_vertex ix 0));
  List.iter
    (fun (t : Triple.t) -> check "edge component" 1 t.Triple.edge)
    (Ix.triples_of_edge ix 1);
  List.iter
    (fun (t : Triple.t) -> check "vertex component" 0 t.Triple.vertex)
    (Ix.triples_of_vertex ix 0)

let test_indexer_iter_count () =
  let h = sample () in
  let ix = Ix.make h ~k:3 in
  let count = ref 0 in
  Ix.iter ix (fun _ -> incr count);
  check "iterates all" (Ix.total ix) !count

(* ------------------------------------------------------------------ *)
(* Conflict graph: materialization vs specification *)

let test_adjacent_families () =
  let h = sample () in
  let k = 2 in
  let t e vertex color = { Triple.edge = e; vertex; color } in
  (* E_vertex: same vertex, different colors, different edges *)
  check_bool "E_vertex" true (Cg.adjacent h ~k (t 0 0 0) (t 2 0 1));
  (* E_edge: same edge, any members/colors *)
  check_bool "E_edge" true (Cg.adjacent h ~k (t 0 0 0) (t 0 1 1));
  check_bool "E_edge same vertex diff color" true
    (Cg.adjacent h ~k (t 0 0 0) (t 0 0 1));
  (* E_color: same color, distinct vertices, {u,v} within one of the
     edges: v=0 and u=4 are both in e2 = {0,3,4} *)
  check_bool "E_color (u,v ⊆ g)" true (Cg.adjacent h ~k (t 0 0 0) (t 2 4 0));
  (* same vertex, same color, different edges: NOT adjacent (u ≠ v is
     required in E_color; Lemma 2.1(a) depends on it) *)
  check_bool "same vertex same color independent" false
    (Cg.adjacent h ~k (t 0 2 0) (t 1 2 0));
  (* non-adjacent: different vertices, different colors, different edges *)
  check_bool "independent pair" false (Cg.adjacent h ~k (t 0 1 0) (t 1 3 1));
  (* same color but vertices never share an edge: v=1 only in e0, u=4 only
     in e2, 1 ∉ e2 and 4 ∉ e0 *)
  check_bool "same color no shared edge" false
    (Cg.adjacent h ~k (t 0 1 0) (t 2 4 0));
  (* self adjacency is false *)
  check_bool "no self loop" false (Cg.adjacent h ~k (t 0 0 0) (t 0 0 0))

let test_build_matches_adjacent_oracle () =
  let h = sample () in
  List.iter
    (fun k ->
      let cg = Cg.build h ~k in
      let ix = cg.Cg.indexer in
      for i = 0 to Ix.total ix - 1 do
        for j = i + 1 to Ix.total ix - 1 do
          let spec = Cg.adjacent h ~k (Ix.decode ix i) (Ix.decode ix j) in
          check_bool "materialized = spec" spec (G.has_edge cg.Cg.graph i j)
        done
      done)
    [ 1; 2; 3 ]

let test_implicit_matches_materialized () =
  let rng = Rng.create 1 in
  let h = Hgen.almost_uniform_random rng ~n:10 ~m:6 ~k:3 ~eps:0.5 in
  let k = 2 in
  let cg = Cg.build h ~k in
  let ix = cg.Cg.indexer in
  for i = 0 to Ix.total ix - 1 do
    let implicit = ref [] in
    Cg.iter_neighbors_implicit h ix (Ix.decode ix i) (fun t ->
        implicit := Ix.encode ix t :: !implicit);
    let implicit = List.sort compare !implicit in
    let materialized = Array.to_list (G.neighbors cg.Cg.graph i) in
    Alcotest.(check (list int)) "neighborhoods equal" materialized implicit
  done

let test_edge_family_counts_consistent () =
  let h = sample () in
  List.iter
    (fun k ->
      let counts = Cg.edge_family_counts h ~k in
      let cg = Cg.build h ~k in
      check "union = materialized m" (G.n_edges cg.Cg.graph)
        counts.Cg.n_union;
      check_bool "families nonneg" true
        (counts.Cg.n_vertex_family >= 0
        && counts.Cg.n_edge_family >= 0
        && counts.Cg.n_color_family >= 0))
    [ 1; 2 ]

let test_edge_family_formula_edge_cliques () =
  (* For disjoint blocks no two edges share a vertex, so E_vertex has only
     intra-edge pairs and E_edge is exactly m * C(s*k, 2). *)
  let h = Hgen.disjoint_blocks ~blocks:3 ~size:2 in
  let k = 2 in
  let counts = Cg.edge_family_counts h ~k in
  check "edge cliques" (3 * (4 * 3 / 2)) counts.Cg.n_edge_family

let test_to_dot () =
  let h = H.of_edges 3 [ [ 0; 1 ]; [ 1; 2 ] ] in
  let dot = Cg.to_dot h ~k:2 in
  check_bool "dot header" true (String.length dot > 20);
  let count_sub needle =
    let n = String.length needle and total = ref 0 in
    for i = 0 to String.length dot - n do
      if String.sub dot i n = needle then incr total
    done;
    !total
  in
  (* one label per triple *)
  check "labels" (Ix.total (Ix.make h ~k:2)) (count_sub "label=\"(e");
  (* every family appears on this instance *)
  check_bool "E_vertex edges" true (count_sub "color=red" > 0);
  check_bool "E_edge edges" true (count_sub "color=blue" > 0);
  check_bool "E_color edges" true (count_sub "color=green" > 0);
  (* total drawn edges = |E(G_k)| *)
  let cg = Cg.build h ~k:2 in
  check "edge lines" (G.n_edges cg.Cg.graph) (count_sub " -- ")

let test_vertex_count_formula () =
  let rng = Rng.create 2 in
  let h = Hgen.uniform_random rng ~n:15 ~m:10 ~k:4 in
  let cg = Cg.build h ~k:3 in
  check "|V| = k Σ|e|" (3 * 4 * 10) (G.n_vertices cg.Cg.graph);
  check "matches size_formula" (Cg.size_formula h ~k:3)
    (G.n_vertices cg.Cg.graph)

let test_csr_builder_matches_reference () =
  let rng = Rng.create 40 in
  List.iter
    (fun h ->
      List.iter
        (fun k ->
          let reference =
            (Ps_oracle.Conflict_graph.build_reference h ~k).Cg.graph
          in
          check_bool "csr = reference" true
            (G.equal (Cg.build h ~k).Cg.graph reference);
          check_bool "csr domains=2 = reference" true
            (G.equal (Cg.build ~domains:2 h ~k).Cg.graph reference);
          check_bool "csr domains=3 = reference" true
            (G.equal (Cg.build ~domains:3 h ~k).Cg.graph reference))
        [ 1; 2; 3 ])
    [ sample ();
      H.of_edges 5 [];
      Hgen.uniform_random rng ~n:12 ~m:9 ~k:3;
      Hgen.sunflower ~n_petals:5 ~core:2 ~petal:2;
      Hgen.random_intervals rng ~n:20 ~m:12 ~min_len:2 ~max_len:6 ]

(* A k whose triple count k·Σ|e| passes the int32 id limit is refused
   by both entry points before anything is sized by it: the check runs
   on a quotient, so k = max_int cannot wrap the product either. *)
let test_triple_limit () =
  let h = H.of_edges 2 [ [ 0; 1 ] ] in
  List.iter
    (fun k ->
      List.iter
        (fun (name, build) ->
          let before = Gc.allocated_bytes () in
          (match build k with
          | () -> Alcotest.failf "%s accepted k = %d" name k
          | exception Invalid_argument msg ->
              Alcotest.(check string) (name ^ ": names the triple count")
                (Printf.sprintf
                   "Conflict_graph: k * sum|e| = %d * 2 triples exceeds the \
                    int32 id limit 2147483647"
                   k)
                msg);
          check_bool (name ^ ": nothing sized by k") true
            (Gc.allocated_bytes () -. before < 1e6))
        [ ("build", fun k -> ignore (Cg.build h ~k));
          ("Incremental.create", fun k -> ignore (Cg.Incremental.create h ~k))
        ])
    [ 1 lsl 30; max_int ]

(* ------------------------------------------------------------------ *)
(* Structure-aware exact solver for G_k *)

module Egk = Ps_core.Exact_gk

let test_exact_gk_matches_generic () =
  let rng = Rng.create 30 in
  for _ = 1 to 6 do
    let h = Hgen.uniform_random rng ~n:8 ~m:5 ~k:3 in
    let k = 2 in
    let cg = Cg.build h ~k in
    let generic = Ps_maxis.Exact.independence_number cg.Cg.graph in
    let structured = Option.get (Egk.independence_number h ~k) in
    check "same alpha" generic structured;
    (* the returned set really is independent in the materialized graph *)
    let set = Option.get (Egk.maximum h ~k) in
    check_bool "independent" true (Is.is_independent cg.Cg.graph set)
  done

let test_exact_gk_alpha_equals_m_when_cf_colorable () =
  (* Lemma 2.1(a) maximality at a scale the generic solver can't touch:
     m = 40 edges, G_k with hundreds of vertices. *)
  let rng = Rng.create 31 in
  let h = Hgen.random_intervals rng ~n:48 ~m:40 ~min_len:2 ~max_len:8 in
  let f = Ps_cfc.Cf_greedy.ruler h in
  Ps_cfc.Cf_coloring.verify_exn h f;
  let k = max 1 (Cf.max_color f + 1) in
  check "alpha = m" (H.n_edges h)
    (Option.get (Egk.independence_number h ~k))

let test_exact_gk_solver_in_pipeline () =
  (* On a CF-k-colorable instance the exact solver finds alpha = m, so
     the reduction finishes in exactly one phase (and the solver, which
     is pinned to the full instance's G_k, is never asked about a
     restricted one). *)
  let rng = Rng.create 32 in
  let h = Hgen.random_intervals rng ~n:24 ~m:14 ~min_len:2 ~max_len:6 in
  let k = Pipe.choose_k Pipe.From_ruler h in
  let result = Pipe.solve ~k:(Pipe.Fixed k) ~solver:(Egk.solver h ~k) h in
  check_bool "certifies" true result.Pipe.certificate.Cert.all_ok;
  check "one phase" 1 result.Pipe.reduction.Red.total_phases

let test_exact_gk_budget () =
  let rng = Rng.create 33 in
  let h = Hgen.uniform_random rng ~n:20 ~m:15 ~k:4 in
  check_bool "tiny budget gives up" true
    (Egk.maximum ~budget:3 h ~k:2 = None)

(* ------------------------------------------------------------------ *)
(* Lemma 2.1 *)

let cf_coloring_of h =
  let f = Ps_cfc.Cf_greedy.conservative h in
  Cf.verify_exn h f;
  f

let test_lemma_a_size_equals_m () =
  (* A CF coloring induces an independent set of size exactly m. *)
  let rng = Rng.create 3 in
  List.iter
    (fun h ->
      let f = cf_coloring_of h in
      let k = max 1 (Cf.max_color f + 1) in
      let cg = Cg.build h ~k in
      let i_f = Corr.is_of_coloring h cg.Cg.indexer f in
      check "independent set size = m" (H.n_edges h) (Is.size i_f);
      check_bool "independent in G_k" true
        (Is.is_independent cg.Cg.graph i_f))
    [ sample ();
      Hgen.uniform_random rng ~n:12 ~m:8 ~k:3;
      Hgen.random_intervals rng ~n:20 ~m:10 ~min_len:2 ~max_len:6;
      Hgen.sunflower ~n_petals:4 ~core:2 ~petal:1 ]

let test_lemma_a_maximum () =
  (* No independent set of G_k can beat m: verified exactly on a small
     instance via branch and bound. *)
  let h = H.of_edges 4 [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ] in
  let f = cf_coloring_of h in
  let k = max 1 (Cf.max_color f + 1) in
  let cg = Cg.build h ~k in
  let alpha = Ps_maxis.Exact.independence_number cg.Cg.graph in
  check "alpha(G_k) = m" (H.n_edges h) alpha

let test_lemma_a_alpha_never_exceeds_m () =
  (* Even without a CF coloring premise, E_edge caps alpha at m. *)
  let rng = Rng.create 4 in
  for _ = 1 to 5 do
    let h = Hgen.uniform_random rng ~n:8 ~m:4 ~k:3 in
    let cg = Cg.build h ~k:2 in
    check_bool "alpha <= m" true
      (Ps_maxis.Exact.independence_number cg.Cg.graph <= H.n_edges h)
  done

let test_lemma_b_well_defined () =
  let rng = Rng.create 5 in
  let h = Hgen.uniform_random rng ~n:12 ~m:8 ~k:3 in
  let cg = Cg.build h ~k:3 in
  let is = Ps_maxis.Greedy.min_degree cg.Cg.graph in
  (* must not raise *)
  let f = Corr.coloring_of_is h cg.Cg.indexer is in
  check "coloring length" (H.n_vertices h) (Array.length f)

let test_lemma_b_happy_lower_bound () =
  let rng = Rng.create 6 in
  List.iter
    (fun h ->
      let cg = Cg.build h ~k:3 in
      List.iter
        (fun solver ->
          let is = Approx.solve_verified solver rng cg.Cg.graph in
          check_bool
            (solver.Approx.name ^ ": happy >= |I|")
            true
            (Corr.happy_at_least_lemma h cg.Cg.indexer is))
        (Approx.exact :: Approx.all_heuristics))
    [ sample (); Hgen.uniform_random rng ~n:10 ~m:5 ~k:3 ]

let test_lemma_b_happy_exactly_is_size () =
  (* The proof shows the happy count EQUALS |I| when every chosen triple's
     edge is distinct — which E_edge forces. Check equality. *)
  let rng = Rng.create 7 in
  let h = Hgen.uniform_random rng ~n:12 ~m:8 ~k:3 in
  let cg = Cg.build h ~k:2 in
  let is = Ps_maxis.Caro_wei.run_maximal rng cg.Cg.graph in
  let f = Corr.coloring_of_is h cg.Cg.indexer is in
  check "happy = |I|" (Is.size is) (Cf.count_happy h f)

let test_lemma_roundtrip () =
  (* f -> I_f -> f' : f' agrees with f on every witness vertex. *)
  let h = sample () in
  let f = cf_coloring_of h in
  let k = max 1 (Cf.max_color f + 1) in
  let cg = Cg.build h ~k in
  let i_f = Corr.is_of_coloring h cg.Cg.indexer f in
  let f' = Corr.coloring_of_is h cg.Cg.indexer i_f in
  Array.iteri
    (fun v c -> if c <> Cf.uncolored then check "agrees" f.(v) c)
    f';
  check_bool "roundtrip coloring still CF" true (Cf.is_conflict_free h f')

let test_coloring_of_dependent_set_raises () =
  (* Feeding a NON-independent set with two colors on one vertex must be
     rejected. *)
  let h = sample () in
  let ix = Ix.make h ~k:2 in
  let bad = Ps_util.Bitset.create (Ix.total ix) in
  Ps_util.Bitset.add bad
    (Ix.encode ix { Triple.edge = 0; vertex = 0; color = 0 });
  Ps_util.Bitset.add bad
    (Ix.encode ix { Triple.edge = 2; vertex = 0; color = 1 });
  check_bool "raises" true
    (try
       ignore (Corr.coloring_of_is h ix bad);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Theorem 1.1 reduction *)

let reduction_families rng =
  [ sample ();
    Hgen.uniform_random rng ~n:20 ~m:15 ~k:4;
    Hgen.almost_uniform_random rng ~n:25 ~m:20 ~k:3 ~eps:1.0;
    Hgen.random_intervals rng ~n:30 ~m:20 ~min_len:2 ~max_len:8;
    Hgen.sunflower ~n_petals:5 ~core:2 ~petal:2;
    Hgen.disjoint_blocks ~blocks:5 ~size:3 ]

let test_reduction_produces_cf_multicoloring () =
  let rng = Rng.create 8 in
  List.iter
    (fun h ->
      let result = Pipe.solve ~solver:Approx.greedy_min_degree h in
      check_bool "certificate" true result.Pipe.certificate.Cert.all_ok;
      check_bool "conflict free (direct check)" true
        (Mc.is_conflict_free h result.Pipe.reduction.Red.multicoloring))
    (reduction_families rng)

let test_reduction_all_solvers () =
  let rng = Rng.create 9 in
  let h = Hgen.uniform_random rng ~n:15 ~m:12 ~k:3 in
  List.iter
    (fun solver ->
      let result = Pipe.solve ~solver h in
      check_bool (solver.Approx.name ^ " certifies") true
        result.Pipe.certificate.Cert.all_ok)
    Approx.all_heuristics

let test_reduction_phase_records_consistent () =
  let rng = Rng.create 10 in
  let h = Hgen.uniform_random rng ~n:20 ~m:15 ~k:4 in
  let result = Pipe.solve ~solver:Approx.caro_wei h in
  let r = result.Pipe.reduction in
  check "phase count" r.Red.total_phases (List.length r.Red.phases);
  (* edges_before decreases by newly_happy *)
  let rec walk = function
    | (a : Red.phase_record) :: (b :: _ as rest) ->
        check "decrement" (a.Red.edges_before - a.Red.newly_happy)
          b.Red.edges_before;
        walk rest
    | [ last ] ->
        check "last phase clears" last.Red.edges_before last.Red.newly_happy
    | [] -> ()
  in
  walk r.Red.phases;
  List.iter
    (fun (p : Red.phase_record) ->
      check_bool "happy >= |I| (Lemma 2.1b)" true
        (p.Red.newly_happy >= p.Red.is_size);
      check_bool "|I| >= 1" true (p.Red.is_size >= 1))
    r.Red.phases

let test_reduction_color_budget () =
  let rng = Rng.create 11 in
  let h = Hgen.uniform_random rng ~n:20 ~m:12 ~k:4 in
  let result = Pipe.solve ~solver:Approx.greedy_min_degree h in
  let r = result.Pipe.reduction in
  check_bool "colors <= k * phases" true
    (r.Red.colors_used <= r.Red.k * r.Red.total_phases);
  (* every color is on the per-phase palettes *)
  Array.iter
    (List.iter (fun c ->
         check_bool "palette range" true
           (c >= 0 && c < r.Red.k * r.Red.total_phases)))
    r.Red.multicoloring

let test_reduction_single_phase_with_exact_solver () =
  (* An exact MaxIS (λ = 1) must finish interval instances in one phase:
     |E_2| <= (1 - 1/1)|E_1| = 0. *)
  let h = Hgen.all_intervals_of_length ~n:12 ~len:3 in
  let result = Pipe.solve ~k:Pipe.From_ruler ~solver:Approx.exact h in
  check "one phase" 1 result.Pipe.reduction.Red.total_phases

let test_reduction_empty_hypergraph () =
  let h = H.of_edges 5 [] in
  let result = Pipe.solve ~k:(Pipe.Fixed 1) ~solver:Approx.greedy_min_degree h in
  check "zero phases" 0 result.Pipe.reduction.Red.total_phases;
  check_bool "certifies" true result.Pipe.certificate.Cert.all_ok

let test_reduction_deterministic_given_seed () =
  let rng = Rng.create 12 in
  let h = Hgen.uniform_random rng ~n:15 ~m:10 ~k:3 in
  let a = Pipe.solve ~seed:5 ~solver:Approx.caro_wei h in
  let b = Pipe.solve ~seed:5 ~solver:Approx.caro_wei h in
  check "same phases" a.Pipe.reduction.Red.total_phases
    b.Pipe.reduction.Red.total_phases;
  check_bool "same multicoloring" true
    (a.Pipe.reduction.Red.multicoloring = b.Pipe.reduction.Red.multicoloring)

let test_reduction_rho_bound_holds () =
  (* phases <= λ_max ln m + 1 with the measured λ — Theorem 1.1's count. *)
  let rng = Rng.create 13 in
  List.iter
    (fun h ->
      let result = Pipe.solve ~solver:Approx.greedy_min_degree h in
      check_bool "within rho" true
        result.Pipe.certificate.Cert.phases_within_rho)
    (reduction_families rng)

let test_reduction_stalls_on_broken_solver () =
  (* A solver violating its contract (empty IS on a non-empty graph)
     must be caught by the Stalled guard, not loop forever. *)
  let broken =
    { Ps_maxis.Approx.name = "broken-empty";
      solve = (fun _ g -> Is.empty g);
      first_fit = None }
  in
  let h = sample () in
  check_bool "stalls" true
    (try
       ignore (Ps_core.Reduction.run ~presolve:`None ~solver:broken ~k:2 h);
       false
     with Ps_core.Reduction.Stalled 0 -> true);
  (* Under the default kernel presolve the same solver is rescued: the
     lift's vertex-addition repair turns the empty answer into a maximal
     set, so the run completes (the guard is about raw solvers). *)
  let r = Ps_core.Reduction.run ~solver:broken ~k:2 h in
  check_bool "kernel presolve repairs" true (r.Ps_core.Reduction.total_phases >= 1)

let test_reduction_with_degraded_solver_still_certifies () =
  (* Theorem 1.1 holds for ANY lambda: even a solver keeping 10% of a
     maximal IS drives the loop to a certified conflict-free coloring,
     just over more phases. *)
  let rng = Rng.create 22 in
  let h = Hgen.uniform_random rng ~n:20 ~m:18 ~k:4 in
  let solver = Approx.degrade ~keep:0.1 Approx.greedy_min_degree in
  let result = Pipe.solve ~solver h in
  check_bool "certifies" true result.Pipe.certificate.Cert.all_ok;
  check_bool "needs more phases than the full solver" true
    (result.Pipe.reduction.Red.total_phases
    >= (Pipe.solve ~solver:Approx.greedy_min_degree h)
         .Pipe.reduction.Red.total_phases)

(* ------------------------------------------------------------------ *)
(* Seed-behavior regression: the CSR builder and the bool-array edge
   pruning must not change what the reduction computes.  The expected
   numbers below were captured by running the pre-CSR (list-based)
   implementation on data/sunflower_12.hg with these exact parameters;
   any drift in the conflict graph or the phase loop shows up here. *)

let sunflower_file = "../data/sunflower_12.hg"

let phase_rows r =
  List.map
    (fun (p : Red.phase_record) ->
      [ p.Red.phase; p.Red.edges_before; p.Red.conflict_vertices;
        p.Red.conflict_edges; p.Red.is_size; p.Red.newly_happy ])
    r.Red.phases

let test_reduction_seed_behavior_sunflower () =
  let h = Ps_hypergraph.Hio.read_file sunflower_file in
  check "n" 39 (H.n_vertices h);
  check "m" 12 (H.n_edges h);
  (* Full-strength solver: a single phase clearing all 12 edges.  The
     pinned rows predate the kernelization front end, so these runs pin
     the raw solvers with [~presolve:`None]. *)
  let r =
    Red.run ~seed:0 ~presolve:`None ~solver:Approx.greedy_min_degree ~k:2 h
  in
  check "phases (greedy)" 1 r.Red.total_phases;
  check "colors (greedy)" 2 r.Red.colors_used;
  Alcotest.(check (list (list int)))
    "phase records (greedy)"
    [ [ 0; 12; 144; 4356; 12; 12 ] ]
    (phase_rows r);
  (* Degraded solver: the multi-phase trajectory, pinned number by number.
     [r] runs on the default [`Incremental] engine, so these rows double
     as the phase loop's regression pin: any drift in compaction
     renumbering or the fast happiness scan shows up against numbers
     captured from the original rebuild-every-phase implementation. *)
  let solver = Approx.degrade ~keep:0.3 Approx.greedy_min_degree in
  let r = Red.run ~seed:0 ~presolve:`None ~solver ~k:2 h in
  check "phases (degraded)" 4 r.Red.total_phases;
  check "colors (degraded)" 5 r.Red.colors_used;
  Alcotest.(check (list (list int)))
    "phase records (degraded)"
    [ [ 0; 12; 144; 4356; 4; 4 ];
      [ 1; 8; 96; 2040; 1; 1 ];
      [ 2; 7; 84; 1596; 1; 1 ];
      [ 3; 6; 72; 1206; 3; 6 ] ]
    (phase_rows r);
  (* The rebuild-every-phase oracle must agree bit for bit. *)
  let r_rebuild =
    Ps_oracle.Reduction.run ~seed:0 ~presolve:`None ~solver ~k:2 h
  in
  check_bool "engines agree (multicoloring)" true
    (r.Red.multicoloring = r_rebuild.Red.multicoloring);
  check_bool "engines agree (phase records)" true
    (r.Red.phases = r_rebuild.Red.phases)

(* ------------------------------------------------------------------ *)
(* Incremental engine: compaction must reproduce a fresh rebuild of the
   restricted hypergraph, graph and numbering included. *)

let test_incremental_compact_matches_rebuild () =
  let rng = Rng.create 33 in
  let h = Hgen.uniform_random rng ~n:18 ~m:14 ~k:3 in
  let k = 2 in
  let st = Cg.Incremental.create h ~k in
  check_bool "phase-0 graph = build" true
    (G.equal (Cg.Incremental.graph st) (Cg.build h ~k).Cg.graph);
  check "all alive" 14 (Cg.Incremental.n_alive_edges st);
  let alive = ref (List.init 14 (fun e -> e)) in
  List.iter
    (fun dead ->
      alive := List.filter (fun e -> not (List.mem e dead)) !alive;
      Cg.Incremental.retire_edges st dead;
      Cg.Incremental.compact st;
      check "alive count" (List.length !alive)
        (Cg.Incremental.n_alive_edges st);
      let hi, back = H.restrict_edges h !alive in
      let fresh = Cg.build hi ~k in
      check_bool "compacted graph = rebuilt graph" true
        (G.equal (Cg.Incremental.graph st) fresh.Cg.graph);
      (* Decode agrees with the fresh indexer modulo the local->global
         edge translation. *)
      for id = 0 to G.n_vertices fresh.Cg.graph - 1 do
        let t = Ix.decode fresh.Cg.indexer id in
        let t' = Cg.Incremental.decode st id in
        check "decode edge" back.(t.Triple.edge) t'.Triple.edge;
        check "decode vertex" t.Triple.vertex t'.Triple.vertex;
        check "decode color" t.Triple.color t'.Triple.color
      done)
    (* Second batch retires edge 7 twice: retirement is idempotent. *)
    [ [ 3 ]; [ 0; 7; 7 ]; [ 1; 2; 4 ]; [ 5; 13 ] ]

let test_incremental_retire_rejects_bad_edge () =
  let st = Cg.Incremental.create (sample ()) ~k:2 in
  check_bool "raises" true
    (try
       Cg.Incremental.retire_edges st [ 3 ];
       false
     with Invalid_argument _ -> true)

let test_incremental_compact_to_empty () =
  let h = sample () in
  let st = Cg.Incremental.create h ~k:2 in
  Cg.Incremental.retire_edges st [ 0; 1; 2 ];
  Cg.Incremental.compact st;
  check "no alive edges" 0 (Cg.Incremental.n_alive_edges st);
  check "empty graph" 0 (G.n_vertices (Cg.Incremental.graph st))

(* ------------------------------------------------------------------ *)
(* Ablation: reusing the same palette across phases must break CF. *)

let test_palette_reuse_ablation () =
  (* Replay a multi-phase run but fold all phases onto palette 0..k-1; the
     proof requires fresh palettes, and the collapsed coloring should stop
     being conflict-free on at least some instances. We assert the
     *mechanism*: collapsing never increases the number of distinct colors
     and the certified run always passes while a collapsed one may fail —
     concretely on the sunflower it does fail. *)
  let h = Hgen.sunflower ~n_petals:6 ~core:3 ~petal:1 in
  let result =
    Pipe.solve ~solver:Approx.greedy_adversarial ~k:Pipe.From_conservative h
  in
  let r = result.Pipe.reduction in
  if r.Red.total_phases > 1 then begin
    let collapsed = Mc.blank h in
    Array.iteri
      (fun v colors ->
        List.iter (fun c -> Mc.add_color collapsed v (c mod r.Red.k)) colors)
      r.Red.multicoloring;
    (* The original is CF; the collapsed version loses that here. *)
    check_bool "original CF" true (Mc.is_conflict_free h r.Red.multicoloring);
    check_bool "collapsed breaks" false
      (Mc.is_conflict_free h collapsed)
  end

(* ------------------------------------------------------------------ *)
(* Simulating G_k in the LOCAL model *)

module Sim = Ps_core.Simulate

let test_simulate_matches_materialized () =
  let rng = Rng.create 14 in
  let h = Hgen.uniform_random rng ~n:12 ~m:8 ~k:3 in
  let k = 2 in
  let cg = Cg.build h ~k in
  let direct_flags, direct_stats = Ps_local.Luby.run ~seed:4 cg.Cg.graph in
  let sim = Sim.luby_mis ~seed:4 h ~k in
  Alcotest.(check (list int)) "same independent set"
    (Is.to_list (Is.of_indicator direct_flags))
    (Is.to_list sim.Sim.independent_set);
  check "same virtual rounds" direct_stats.Ps_local.Network.rounds
    sim.Sim.virtual_rounds;
  check "host dilation" (Sim.host_dilation * sim.Sim.virtual_rounds)
    sim.Sim.host_rounds

let test_simulate_result_is_mis_of_gk () =
  let rng = Rng.create 15 in
  let h = Hgen.random_intervals rng ~n:16 ~m:8 ~min_len:2 ~max_len:5 in
  let k = 2 in
  let cg = Cg.build h ~k in
  let sim = Sim.luby_mis ~seed:1 h ~k in
  check_bool "independent in G_k" true
    (Is.is_independent cg.Cg.graph sim.Sim.independent_set);
  check_bool "maximal in G_k" true
    (Is.is_maximal cg.Cg.graph sim.Sim.independent_set)

let test_simulate_feeds_lemma_b () =
  (* The LOCAL-computed IS plugs into the Lemma 2.1(b) correspondence
     like any other: happy edges >= |I|. *)
  let rng = Rng.create 16 in
  let h = Hgen.uniform_random rng ~n:14 ~m:9 ~k:3 in
  let k = 2 in
  let ix = Ix.make h ~k in
  let sim = Sim.luby_mis ~seed:2 h ~k in
  check_bool "lemma b" true
    (Corr.happy_at_least_lemma h ix sim.Sim.independent_set)

let test_simulate_local_solver_in_pipeline () =
  (* The full Theorem 1.1 loop with a message-passing MaxIS oracle. *)
  let rng = Rng.create 17 in
  let h = Hgen.uniform_random rng ~n:15 ~m:10 ~k:3 in
  let result = Pipe.solve ~solver:(Sim.local_solver ~seed:5) h in
  check_bool "certifies" true result.Pipe.certificate.Cert.all_ok

let test_simulate_neighbors_oracle_sorted () =
  let rng = Rng.create 18 in
  let h = Hgen.uniform_random rng ~n:10 ~m:5 ~k:3 in
  let ix = Ix.make h ~k:2 in
  for i = 0 to Ix.total ix - 1 do
    let ns = Sim.neighbors_oracle h ix i in
    Array.iteri
      (fun j u -> if j > 0 then check_bool "sorted" true (u > ns.(j - 1)))
      ns
  done

(* ------------------------------------------------------------------ *)
(* Message-passing reduction *)

module RL = Ps_core.Reduction_local

let test_reduction_local_certifies () =
  let rng = Rng.create 19 in
  List.iter
    (fun h ->
      let k = Pipe.choose_k Pipe.From_conservative h in
      let result = RL.run ~k h in
      let cert = Cert.certify result.RL.reduction in
      check_bool "certificate" true cert.Cert.all_ok;
      check_bool "conflict free" true
        (Mc.is_conflict_free h result.RL.reduction.Red.multicoloring))
    [ sample ();
      Hgen.uniform_random rng ~n:14 ~m:10 ~k:3;
      Hgen.random_intervals rng ~n:20 ~m:12 ~min_len:2 ~max_len:6 ]

let test_reduction_local_cost_accounting () =
  let rng = Rng.create 20 in
  let h = Hgen.uniform_random rng ~n:14 ~m:10 ~k:3 in
  let k = 2 in
  let result = RL.run ~k h in
  let c = result.RL.cost in
  check "phase count consistent" result.RL.reduction.Red.total_phases
    c.RL.phases;
  check "host dilation + coordination"
    ((Ps_core.Simulate.host_dilation * c.RL.virtual_rounds) + (2 * c.RL.phases))
    c.RL.host_rounds;
  check_bool "messages counted" true (c.RL.messages > 0)

let test_reduction_local_deterministic () =
  let rng = Rng.create 21 in
  let h = Hgen.uniform_random rng ~n:12 ~m:8 ~k:3 in
  let a = RL.run ~seed:3 ~k:2 h in
  let b = RL.run ~seed:3 ~k:2 h in
  check_bool "same multicoloring" true
    (a.RL.reduction.Red.multicoloring = b.RL.reduction.Red.multicoloring);
  check "same rounds" a.RL.cost.RL.virtual_rounds b.RL.cost.RL.virtual_rounds

let test_reduction_local_empty () =
  let h = H.of_edges 4 [] in
  let result = RL.run ~k:1 h in
  check "zero phases" 0 result.RL.cost.RL.phases;
  check "zero rounds" 0 result.RL.cost.RL.host_rounds

(* Golden pin of the message-passing run, captured from the list-based
   bookkeeping (per-phase [Cf.happy_edges] + translation) that the
   bitset + [Cf.happy_fast] walk replaced. *)
let test_reduction_local_engines_agree () =
  let rng = Rng.create 23 in
  let h = Hgen.uniform_random rng ~n:14 ~m:10 ~k:3 in
  let r = RL.run ~seed:3 ~k:2 h in
  let mc_hash mc =
    Array.fold_left
      (fun s cs ->
        List.fold_left Ps_util.Fnv.int (Ps_util.Fnv.int s (List.length cs)) cs)
      Ps_util.Fnv.init mc
    |> Ps_util.Fnv.finish |> Ps_util.Fnv.to_hex
  in
  Alcotest.(check string)
    "multicoloring hash" "ede2f80c2b209dc2"
    (mc_hash r.RL.reduction.Red.multicoloring);
  Alcotest.(check (list (list int)))
    "phase records"
    [ [ 0; 10; 60; -1; 10; 10 ] ]
    (phase_rows r.RL.reduction);
  check "virtual rounds" 4 r.RL.cost.RL.virtual_rounds

(* ------------------------------------------------------------------ *)
(* Pipeline k choices *)

let test_choose_k () =
  let h = sample () in
  check "fixed" 7 (Pipe.choose_k (Pipe.Fixed 7) h);
  check_bool "conservative >= 1" true
    (Pipe.choose_k Pipe.From_conservative h >= 1);
  let intervals = Hgen.all_intervals_of_length ~n:16 ~len:4 in
  check "ruler k" 5 (Pipe.choose_k Pipe.From_ruler intervals)

let test_choose_k_ruler_rejects_non_interval () =
  let h = H.of_edges 3 [ [ 0; 2 ] ] in
  check_bool "raises" true
    (try
       ignore (Pipe.choose_k Pipe.From_ruler h);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* qcheck properties: the lemma and the theorem on random instances *)

let arbitrary_hg =
  QCheck.make
    ~print:(fun (seed, n, m, k) ->
      Printf.sprintf "hg seed=%d n=%d m=%d k=%d" seed n m k)
    QCheck.Gen.(
      quad (int_bound 1000) (int_range 3 15) (int_range 1 10) (int_range 1 3))

let hg_of (seed, n, m, k) =
  Hgen.almost_uniform_random (Rng.create seed) ~n ~m ~k:(min k n) ~eps:1.0

let prop_lemma_a =
  QCheck.Test.make ~count:60
    ~name:"Lemma 2.1(a): CF coloring gives independent set of size m"
    arbitrary_hg (fun params ->
      let h = hg_of params in
      let f = Ps_cfc.Cf_greedy.conservative h in
      let k = max 1 (Cf.max_color f + 1) in
      let cg = Cg.build h ~k in
      let i_f = Corr.is_of_coloring h cg.Cg.indexer f in
      Is.is_independent cg.Cg.graph i_f && Is.size i_f = H.n_edges h)

let prop_lemma_b =
  QCheck.Test.make ~count:60
    ~name:"Lemma 2.1(b): any IS gives well-defined coloring, happy >= |I|"
    arbitrary_hg (fun params ->
      let h = hg_of params in
      let cg = Cg.build h ~k:2 in
      let rng = Rng.create (Hashtbl.hash params) in
      let is = Ps_maxis.Caro_wei.run_maximal rng cg.Cg.graph in
      Corr.happy_at_least_lemma h cg.Cg.indexer is)

let prop_theorem_11 =
  QCheck.Test.make ~count:40
    ~name:"Theorem 1.1 pipeline always certifies" arbitrary_hg
    (fun params ->
      let h = hg_of params in
      let result =
        Pipe.solve_unchecked ~solver:Approx.greedy_min_degree h
      in
      result.Pipe.certificate.Cert.all_ok)

let prop_implicit_oracle_sound =
  QCheck.Test.make ~count:20
    ~name:"implicit adjacency oracle = materialized graph"
    arbitrary_hg (fun params ->
      let h = hg_of params in
      let k = 2 in
      let cg = Cg.build h ~k in
      let ix = cg.Cg.indexer in
      let ok = ref true in
      for i = 0 to Ix.total ix - 1 do
        let implicit = ref [] in
        Cg.iter_neighbors_implicit h ix (Ix.decode ix i) (fun t ->
            implicit := Ix.encode ix t :: !implicit);
        if List.sort compare !implicit
           <> Array.to_list (G.neighbors cg.Cg.graph i)
        then ok := false
      done;
      !ok)

let prop_csr_build_matches_reference =
  QCheck.Test.make ~count:60
    ~name:"CSR build (domains 1 and 2) = build_reference"
    arbitrary_hg (fun params ->
      let h = hg_of params in
      let _, _, _, k = params in
      let k = min k (max 1 (H.n_vertices h)) in
      let oracle = (Ps_oracle.Conflict_graph.build_reference h ~k).Cg.graph in
      G.equal (Cg.build h ~k).Cg.graph oracle
      && G.equal (Cg.build ~domains:2 h ~k).Cg.graph oracle)

(* Instances for the wide G_k equality property.  Family 0 is
   [hg_of]'s small random draw; the others make a slot's E_color run B
   (the slots of e's other members in edges without v) longer than
   Intsort's 16-entry insertion cutoff and deg v high: a star (vertex 0
   in every edge), a 40-petal sunflower, rank-8 uniform edges, singleton
   edges mixed with pairs and triples, and heavily overlapping
   intervals. *)
let gk_family_name = function
  | 0 -> "random" | 1 -> "star" | 2 -> "sunflower40" | 3 -> "rank8"
  | 4 -> "singletons" | _ -> "intervals"

let arbitrary_gk_family =
  QCheck.make
    ~print:(fun (family, seed, k) ->
      Printf.sprintf "%s seed=%d k=%d" (gk_family_name family) seed k)
    QCheck.Gen.(
      triple (int_bound 5) (int_bound 1000) (oneofl [ 1; 2; 3; 5 ]))

let gk_family_hg family seed =
  let rng = Rng.create seed in
  let subset n size = List.init size (fun _ -> Rng.int rng n) in
  match family with
  | 0 -> hg_of (seed, 3 + (seed mod 13), 1 + (seed mod 10), 1 + (seed mod 3))
  | 1 ->
      H.of_edges 16
        (List.init 12 (fun _ -> 0 :: subset 16 (1 + Rng.int rng 5)))
  | 2 ->
      Hgen.sunflower ~n_petals:40 ~core:(1 + (seed mod 3))
        ~petal:(1 + (seed / 3 mod 2))
  | 3 -> Hgen.uniform_random rng ~n:(10 + (seed mod 8)) ~m:12 ~k:8
  | 4 ->
      H.of_edges 10
        (List.init 14 (fun i ->
             if i mod 2 = 0 then [ Rng.int rng 10 ]
             else subset 10 (2 + Rng.int rng 2)))
  | _ -> Hgen.random_intervals rng ~n:24 ~m:18 ~min_len:8 ~max_len:16

let prop_gk_families_match_reference =
  QCheck.Test.make ~count:120
    ~name:
      "G_k = build_reference on wide families: build and \
       Incremental.create at domains 0/1/2, k in 1,2,3,5"
    arbitrary_gk_family (fun (family, seed, k) ->
      let h = gk_family_hg family seed in
      let oracle = (Ps_oracle.Conflict_graph.build_reference h ~k).Cg.graph in
      List.for_all
        (fun domains ->
          G.equal (Cg.build ~domains h ~k).Cg.graph oracle
          && G.equal
               (Cg.Incremental.graph (Cg.Incremental.create ~domains h ~k))
               oracle)
        [ 0; 1; 2 ])

let prop_engines_bit_identical =
  QCheck.Test.make ~count:40
    ~name:
      "engine `Incremental = `Rebuild: multicoloring, phases, audit \
       (domains 1 and 2)"
    arbitrary_hg
    (fun params ->
      let h = hg_of params in
      let k = 2 in
      (* A degraded solver forces a multi-phase trajectory, so several
         compactions actually happen and stay comparable. *)
      let solver = Approx.degrade ~keep:0.4 Approx.greedy_min_degree in
      let base = Ps_oracle.Reduction.run ~seed:7 ~domains:1 ~solver ~k h in
      let base_diag = Ps_core.Certify.diagnostics base in
      List.for_all
        (fun r ->
          r.Red.multicoloring = base.Red.multicoloring
          && r.Red.phases = base.Red.phases
          && r.Red.colors_used = base.Red.colors_used
          && Ps_core.Certify.diagnostics r = base_diag)
        [ Red.run ~seed:7 ~domains:1 ~solver ~k h;
          Red.run ~seed:7 ~domains:2 ~solver ~k h;
          Ps_oracle.Reduction.run ~seed:7 ~domains:2 ~solver ~k h ])

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_lemma_a; prop_lemma_b; prop_theorem_11; prop_implicit_oracle_sound;
      prop_csr_build_matches_reference; prop_engines_bit_identical;
      prop_gk_families_match_reference ]

let suites =
  [ ( "core.triple",
      [ Alcotest.test_case "total" `Quick test_indexer_total;
        Alcotest.test_case "roundtrip" `Quick test_indexer_roundtrip;
        Alcotest.test_case "encode rejects" `Quick
          test_indexer_encode_rejects;
        Alcotest.test_case "triples_of" `Quick test_indexer_triples_of;
        Alcotest.test_case "iter count" `Quick test_indexer_iter_count ] );
    ( "core.conflict_graph",
      [ Alcotest.test_case "edge families" `Quick test_adjacent_families;
        Alcotest.test_case "build = spec" `Quick
          test_build_matches_adjacent_oracle;
        Alcotest.test_case "implicit = materialized" `Quick
          test_implicit_matches_materialized;
        Alcotest.test_case "family counts" `Quick
          test_edge_family_counts_consistent;
        Alcotest.test_case "edge clique formula" `Quick
          test_edge_family_formula_edge_cliques;
        Alcotest.test_case "dot export" `Quick test_to_dot;
        Alcotest.test_case "vertex count formula" `Quick
          test_vertex_count_formula;
        Alcotest.test_case "CSR = reference" `Quick
          test_csr_builder_matches_reference;
        Alcotest.test_case "triple count past the id limit" `Quick
          test_triple_limit ] );
    ( "core.exact_gk",
      [ Alcotest.test_case "matches generic" `Quick
          test_exact_gk_matches_generic;
        Alcotest.test_case "alpha = m at scale" `Quick
          test_exact_gk_alpha_equals_m_when_cf_colorable;
        Alcotest.test_case "solver in pipeline" `Quick
          test_exact_gk_solver_in_pipeline;
        Alcotest.test_case "budget" `Quick test_exact_gk_budget ] );
    ( "core.lemma21",
      [ Alcotest.test_case "(a) size = m" `Quick test_lemma_a_size_equals_m;
        Alcotest.test_case "(a) maximum" `Quick test_lemma_a_maximum;
        Alcotest.test_case "(a) alpha <= m always" `Quick
          test_lemma_a_alpha_never_exceeds_m;
        Alcotest.test_case "(b) well-defined" `Quick
          test_lemma_b_well_defined;
        Alcotest.test_case "(b) happy >= |I|" `Quick
          test_lemma_b_happy_lower_bound;
        Alcotest.test_case "(b) happy = |I|" `Quick
          test_lemma_b_happy_exactly_is_size;
        Alcotest.test_case "roundtrip" `Quick test_lemma_roundtrip;
        Alcotest.test_case "dependent set rejected" `Quick
          test_coloring_of_dependent_set_raises ] );
    ( "core.reduction",
      [ Alcotest.test_case "CF multicoloring" `Quick
          test_reduction_produces_cf_multicoloring;
        Alcotest.test_case "all solvers" `Quick test_reduction_all_solvers;
        Alcotest.test_case "phase records" `Quick
          test_reduction_phase_records_consistent;
        Alcotest.test_case "color budget" `Quick test_reduction_color_budget;
        Alcotest.test_case "exact solver single phase" `Quick
          test_reduction_single_phase_with_exact_solver;
        Alcotest.test_case "empty hypergraph" `Quick
          test_reduction_empty_hypergraph;
        Alcotest.test_case "deterministic" `Quick
          test_reduction_deterministic_given_seed;
        Alcotest.test_case "rho bound" `Quick test_reduction_rho_bound_holds;
        Alcotest.test_case "degraded solver" `Quick
          test_reduction_with_degraded_solver_still_certifies;
        Alcotest.test_case "broken solver stalls" `Quick
          test_reduction_stalls_on_broken_solver;
        Alcotest.test_case "seed behavior sunflower_12" `Quick
          test_reduction_seed_behavior_sunflower;
        Alcotest.test_case "palette reuse ablation" `Quick
          test_palette_reuse_ablation ] );
    ( "core.incremental",
      [ Alcotest.test_case "compact = rebuild" `Quick
          test_incremental_compact_matches_rebuild;
        Alcotest.test_case "retire rejects bad edge" `Quick
          test_incremental_retire_rejects_bad_edge;
        Alcotest.test_case "compact to empty" `Quick
          test_incremental_compact_to_empty ] );
    ( "core.simulate",
      [ Alcotest.test_case "matches materialized" `Quick
          test_simulate_matches_materialized;
        Alcotest.test_case "MIS of G_k" `Quick
          test_simulate_result_is_mis_of_gk;
        Alcotest.test_case "feeds Lemma 2.1(b)" `Quick
          test_simulate_feeds_lemma_b;
        Alcotest.test_case "local solver in pipeline" `Quick
          test_simulate_local_solver_in_pipeline;
        Alcotest.test_case "oracle sorted" `Quick
          test_simulate_neighbors_oracle_sorted ] );
    ( "core.reduction_local",
      [ Alcotest.test_case "certifies" `Quick test_reduction_local_certifies;
        Alcotest.test_case "cost accounting" `Quick
          test_reduction_local_cost_accounting;
        Alcotest.test_case "deterministic" `Quick
          test_reduction_local_deterministic;
        Alcotest.test_case "empty" `Quick test_reduction_local_empty;
        Alcotest.test_case "engines agree" `Quick
          test_reduction_local_engines_agree ] );
    ( "core.pipeline",
      [ Alcotest.test_case "choose_k" `Quick test_choose_k;
        Alcotest.test_case "ruler rejects non-interval" `Quick
          test_choose_k_ruler_rejects_non_interval ] );
    ("core.properties", props) ]
