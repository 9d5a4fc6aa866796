(* Tests for Ps_maxis: independent sets, greedy heuristics, Caro–Wei,
   exact branch and bound, bounds, and the solver interface. *)

module G = Ps_graph.Graph
module Gen = Ps_graph.Gen
module Is = Ps_maxis.Independent_set
module Greedy = Ps_maxis.Greedy
module Cw = Ps_maxis.Caro_wei
module Exact = Ps_maxis.Exact
module Bounds = Ps_maxis.Bounds
module Approx = Ps_maxis.Approx
module Rng = Ps_util.Rng
module B = Ps_util.Bitset
module Tm = Ps_util.Telemetry
module Cg = Ps_core.Conflict_graph
module Hgen = Ps_hypergraph.Hgen
module Pipeline = Ps_core.Pipeline

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Independent_set *)

let test_is_basics () =
  let g = Gen.path 4 in
  let s = Is.of_list g [ 0; 2 ] in
  check "size" 2 (Is.size s);
  check_bool "independent" true (Is.is_independent g s);
  check_bool "{0,2} maximal (1~0, 3~2)" true (Is.is_maximal g s);
  (* {0} alone is not maximal: vertices 2 and 3 are unblocked. *)
  check_bool "{0} not maximal" false (Is.is_maximal g (Is.of_list g [ 0 ]));
  (* {0,3} on path 0-1-2-3: 1~0 and 2~3, so it is maximal too. *)
  check_bool "{0,3} maximal" true (Is.is_maximal g (Is.of_list g [ 0; 3 ]))

let test_is_dependent_detected () =
  let g = Gen.path 4 in
  let s = Is.of_list g [ 0; 1 ] in
  check_bool "dependent" false (Is.is_independent g s);
  (* {0,1,3} touches every vertex but holds the edge 0-1. *)
  check_bool "dependent cover not maximal" false
    (Is.is_maximal g (Is.of_list g [ 0; 1; 3 ]));
  check_bool "verify raises" true
    (try
       Is.verify_exn g s;
       false
     with Invalid_argument _ -> true)

let test_is_of_indicator () =
  let s = Is.of_indicator [| true; false; true |] in
  Alcotest.(check (list int)) "members" [ 0; 2 ] (Is.to_list s)

let test_is_make_maximal () =
  let g = Gen.path 5 in
  let s = Is.make_maximal g (Is.of_list g [ 2 ]) in
  check_bool "maximal" true (Is.is_maximal g s);
  check_bool "contains seed" true (Ps_util.Bitset.mem s 2)

let test_is_empty_graph_maximal () =
  let g = G.empty 4 in
  let s = Is.make_maximal g (Is.empty g) in
  check "all vertices" 4 (Is.size s)

let test_is_approximation_ratio () =
  let g = Gen.path 4 in
  let s = Is.of_list g [ 0; 2 ] in
  Alcotest.(check (float 1e-9)) "ratio" 1.0 (Is.approximation_ratio ~alpha:2 s);
  Alcotest.(check (float 1e-9)) "ratio 2" 2.0
    (Is.approximation_ratio ~alpha:4 s)

(* ------------------------------------------------------------------ *)
(* Greedy *)

let families rng =
  [ Gen.ring 11; Gen.complete 8; Gen.grid 4 5; Gen.star 9;
    Gen.gnp rng 60 0.1; Gen.gnp rng 60 0.4; G.empty 7;
    Gen.disjoint_cliques 5 4 ]

let test_greedy_min_degree_valid () =
  let rng = Rng.create 1 in
  List.iter
    (fun g ->
      let s = Greedy.min_degree g in
      check_bool "independent" true (Is.is_independent g s);
      check_bool "maximal" true (Is.is_maximal g s))
    (families rng)

let test_greedy_turan_bound () =
  let rng = Rng.create 2 in
  List.iter
    (fun g ->
      let s = Greedy.min_degree g in
      let n = G.n_vertices g and d = G.max_degree g in
      check_bool "n/(Δ+1)" true (Is.size s * (d + 1) >= n))
    (families rng)

let test_greedy_disjoint_cliques_optimal () =
  let g = Gen.disjoint_cliques 6 5 in
  check "one per clique" 6 (Is.size (Greedy.min_degree g))

let test_greedy_star_optimal () =
  (* min-degree greedy picks leaves first: n-1 leaves. *)
  check "all leaves" 9 (Is.size (Greedy.min_degree (Gen.star 10)))

let test_greedy_adversary_valid_but_weaker () =
  let g = Gen.star 10 in
  let bad = Greedy.max_degree_adversary g in
  check_bool "still independent" true (Is.is_independent g bad);
  check_bool "still maximal" true (Is.is_maximal g bad);
  (* anti-greedy takes the center first: only 1 vertex *)
  check "center only" 1 (Is.size bad)

let test_greedy_in_order () =
  let g = Gen.path 4 in
  let s = Greedy.in_order g [| 1; 3; 0; 2 |] in
  Alcotest.(check (list int)) "first-fit along order" [ 1; 3 ] (Is.to_list s)

(* ------------------------------------------------------------------ *)
(* Batched greedy against the per-decrement oracle *)

(* One graph per (family, seed): G(n,p), R-MAT, G_k of a uniform and of
   an interval hypergraph, then the empty, star, complete and
   disjoint-clique shapes. *)
let oracle_graph family seed =
  let rng = Rng.create seed in
  match family with
  | 0 -> Gen.gnp rng (1 + Rng.int rng 120) (0.02 +. Rng.float rng 0.3)
  | 1 -> Gen.rmat rng ~scale:(2 + Rng.int rng 6) ~edges:(Rng.int rng 800)
  | 2 ->
      let n = 4 + Rng.int rng 20 in
      let h =
        Hgen.uniform_random rng ~n ~m:(1 + Rng.int rng 16)
          ~k:(1 + Rng.int rng 4)
      in
      (Cg.build h ~k:(1 + Rng.int rng 4)).Cg.graph
  | 3 ->
      let n = 2 + Rng.int rng 40 in
      let h =
        Hgen.all_intervals_of_length ~n ~len:(1 + Rng.int rng (min n 12))
      in
      (Cg.build h ~k:(1 + Rng.int rng 4)).Cg.graph
  | 4 -> G.empty (Rng.int rng 12)
  | 5 -> Gen.star (1 + Rng.int rng 30)
  | 6 -> Gen.complete (1 + Rng.int rng 16)
  | _ -> Gen.disjoint_cliques (1 + Rng.int rng 8) (1 + Rng.int rng 7)

let qcheck_greedy_matches_oracle =
  QCheck.Test.make ~count:200
    ~name:"min-degree and adversary greedy equal the per-decrement oracle"
    QCheck.(pair (int_bound 7) (int_bound 1_000_000))
    (fun (family, seed) ->
      let g = oracle_graph family seed in
      let arena, tails_intact = Test_kernel.arena_of g in
      let want_min = Ps_oracle.Greedy.min_degree g
      and want_max = Ps_oracle.Greedy.max_degree_adversary g in
      List.iter
        (fun (store, h) ->
          if not (B.equal (Greedy.min_degree h) want_min) then
            QCheck.Test.fail_reportf "min_degree differs (%s)" store;
          if not (B.equal (Greedy.max_degree_adversary h) want_max)
          then QCheck.Test.fail_reportf "max_degree_adversary differs (%s)"
              store)
        [ ("exact", g); ("arena", arena) ];
      tails_intact ())

(* Reduce-default-style instances: 4-uniform with n = 4m/3, and every
   interval of length 10 on 170 points, at the k that [pslocal reduce]
   derives.  Per instance: the size and hash of the min-degree set on
   G_k, of the adversary's set, and
   [Pipeline.solve]'s colors_used with min-degree greedy as the MaxIS
   oracle.  Recorded with the per-decrement greedy. *)
let greedy_golden =
  [ ("uniform m=96",
     (fun () -> Hgen.uniform_random (Rng.create 1) ~n:128 ~m:96 ~k:4),
     (96, 0x7cc5836ca0e34505L),
     (89, 0xaaba5ab3d58ff0fcL), 4);
    ("uniform m=768",
     (fun () -> Hgen.uniform_random (Rng.create 1) ~n:1024 ~m:768 ~k:4),
     (768, 0x18fb7652e5548ae5L),
     (709, 0x238af817ce7e1daaL), 4);
    ("intervals n=170",
     (fun () -> Hgen.all_intervals_of_length ~n:170 ~len:10),
     (161, 0xd99f9734a2f25c47L),
     (161, 0x44cd129216b9d77L), 10) ]

let test_greedy_golden_pins () =
  let pin name (size, hash) s =
    check (name ^ ": size") size (B.cardinal s);
    Alcotest.(check int64) (name ^ ": hash") hash (Test_kernel.set_hash s)
  in
  List.iter
    (fun (name, mk, natural, adversary, colors) ->
      let h = mk () in
      let k = Pipeline.choose_k Pipeline.From_conservative h in
      let g = (Cg.build h ~k).Cg.graph in
      pin (name ^ " min-degree") natural (Greedy.min_degree g);
      pin (name ^ " adversary") adversary (Greedy.max_degree_adversary g);
      let r = Pipeline.solve ~solver:Approx.greedy_min_degree h in
      check (name ^ ": colors_used") colors
        r.Pipeline.reduction.Ps_core.Reduction.colors_used)
    greedy_golden

(* The same pins on graphs large enough for tie order to matter:
   [Gen.huge_gnp] with n = 10^5, p = 8e-5, and an R-MAT at scale 14 with
   10^5 sampled edges, both drawn from seed 1.  Size and FNV hash of the
   min-degree set, then of the adversary's.  Recorded with the binary
   heap that preceded the packed 4-ary one. *)
let greedy_scale_golden =
  [ ("huge_gnp n=1e5",
     (fun () -> Gen.huge_gnp (Rng.create 1) 100_000 8e-5),
     (33686, 0x63e38911d7710cebL), (20653, 0x21190ba9b1022c00L));
    ("rmat scale 14",
     (fun () -> Gen.rmat (Rng.create 1) ~scale:14 ~edges:100_000),
     (12921, 0xc0b0de54eaaebc5aL), (11478, 0x10d457da97ee2e6fL)) ]

let test_greedy_scale_pins () =
  let pin name (size, hash) s =
    check (name ^ ": size") size (B.cardinal s);
    Alcotest.(check int64) (name ^ ": hash") hash (Test_kernel.set_hash s)
  in
  List.iter
    (fun (name, mk, natural, adversary) ->
      let g = mk () in
      pin (name ^ " min-degree") natural (Greedy.min_degree g);
      pin (name ^ " adversary") adversary (Greedy.max_degree_adversary g))
    greedy_scale_golden

let test_greedy_counters () =
  (* G_3 of a small uniform hypergraph: every deleted vertex is a
     chosen vertex's neighbor, and a touched vertex costs one heap
     update however many neighbors it lost. *)
  let h = Hgen.uniform_random (Rng.create 7) ~n:40 ~m:20 ~k:3 in
  let g = (Cg.build h ~k:3).Cg.graph in
  let was = Tm.enabled () in
  Tm.reset ();
  Tm.set_enabled true;
  let s, (decrements, updates, removals) =
    Fun.protect
      ~finally:(fun () ->
        Tm.set_enabled was;
        Tm.reset ())
      (fun () ->
        let s = Greedy.min_degree g in
        ( s,
          ( Tm.counter_value "greedy.decrements",
            Tm.counter_value "greedy.heap_updates",
            Tm.counter_value "greedy.removals" ) ))
  in
  check "removals" (G.n_vertices g - Is.size s) removals;
  check_bool "updates <= decrements" true (updates <= decrements);
  check_bool "batching saves updates" true (updates < decrements);
  (* An edge is decremented at most once: when its first endpoint is
     deleted as a neighbor while the other is still live. *)
  check_bool "decrements <= m" true (decrements <= G.n_edges g)

(* ------------------------------------------------------------------ *)
(* Caro–Wei *)

let test_caro_wei_valid () =
  let rng = Rng.create 3 in
  List.iter
    (fun g ->
      let s = Cw.run rng g in
      check_bool "independent" true (Is.is_independent g s);
      let sm = Cw.run_maximal rng g in
      check_bool "maximal independent" true (Is.is_maximal g sm))
    (families rng)

let test_caro_wei_meets_turan_on_average () =
  let rng = Rng.create 4 in
  let g = Gen.gnp rng 100 0.1 in
  let bound = Cw.expected_size_bound g in
  let trials = 60 in
  let total = ref 0 in
  for _ = 1 to trials do
    total := !total + Is.size (Cw.run rng g)
  done;
  let mean = float_of_int !total /. float_of_int trials in
  (* sample mean within 20% of the Turán bound (it should be >= bound) *)
  check_bool "mean >= 0.8 * bound" true (mean >= 0.8 *. bound)

let test_caro_wei_best_of_monotone () =
  let g = Gen.gnp (Rng.create 5) 80 0.15 in
  let one = Is.size (Cw.run_maximal (Rng.create 6) g) in
  let best = Is.size (Cw.best_of (Rng.create 6) 16 g) in
  check_bool "best-of >= single (same stream start)" true (best >= one)

let test_expected_size_bound_complete () =
  (* K_n: sum of 1/n = 1. *)
  Alcotest.(check (float 1e-9)) "K8" 1.0
    (Cw.expected_size_bound (Gen.complete 8))

(* ------------------------------------------------------------------ *)
(* Exact *)

let test_exact_known_values () =
  List.iter
    (fun (g, alpha, label) ->
      Alcotest.(check int) label alpha (Exact.independence_number g))
    [ (Gen.complete 7, 1, "K7");
      (Gen.path 5, 3, "P5");
      (Gen.ring 6, 3, "C6");
      (Gen.ring 7, 3, "C7");
      (Gen.star 9, 8, "star");
      (G.empty 6, 6, "empty");
      (Gen.grid 3 3, 5, "3x3 grid");
      (Gen.complete_bipartite 3 5, 5, "K35");
      (Gen.disjoint_cliques 4 3, 4, "4xK3");
      (Gen.balanced_tree 2 3, 10, "binary tree depth 3") ]

let test_exact_result_is_independent () =
  let rng = Rng.create 7 in
  for _ = 1 to 10 do
    let g = Gen.gnp rng 25 0.3 in
    let s = Exact.maximum g in
    check_bool "independent" true (Is.is_independent g s)
  done

let test_exact_dominates_greedy () =
  let rng = Rng.create 8 in
  for _ = 1 to 10 do
    let g = Gen.gnp rng 22 0.25 in
    check_bool "exact >= greedy" true
      (Exact.independence_number g >= Is.size (Greedy.min_degree g))
  done

let test_exact_budget () =
  (* A hard-ish instance with a tiny budget must return None; a generous
     budget must succeed. *)
  let g = Gen.gnp (Rng.create 9) 40 0.3 in
  Alcotest.(check bool) "tiny budget gives up" true
    (Exact.maximum_within ~budget:2 g = None);
  check_bool "large budget succeeds" true
    (Exact.maximum_within ~budget:10_000_000 g <> None)

(* ------------------------------------------------------------------ *)
(* Bounds *)

let test_bounds_sandwich () =
  let rng = Rng.create 10 in
  for _ = 1 to 10 do
    let g = Gen.gnp rng 24 0.3 in
    let alpha = Exact.independence_number g in
    let lower, upper = Bounds.sandwich g in
    check_bool "lower <= alpha" true (lower <= float_of_int alpha +. 1e-9);
    check_bool "alpha <= upper" true (alpha <= upper)
  done

let test_bounds_clique_cover_complete () =
  check "K9 cover" 1 (Bounds.clique_cover_upper (Gen.complete 9))

let test_bounds_clique_cover_empty () =
  check "empty cover" 8 (Bounds.clique_cover_upper (G.empty 8))

let test_bounds_matching_path () =
  (* P4 has a perfect matching of size 2: upper = 4 - 2 = 2 = alpha. *)
  check "P4 matching bound" 2 (Bounds.trivial_upper (Gen.path 4))

let test_bounds_greedy_coloring_upper () =
  let g = Gen.disjoint_cliques 3 4 in
  check_bool "cover >= alpha" true (Bounds.greedy_coloring_upper g >= 3)

(* ------------------------------------------------------------------ *)
(* Approx / solver interface *)

let test_solvers_all_valid () =
  let rng = Rng.create 11 in
  let g = Gen.gnp rng 50 0.15 in
  List.iter
    (fun solver ->
      let s = Approx.solve_verified solver rng g in
      check_bool (solver.Approx.name ^ " independent") true
        (Is.is_independent g s))
    (Approx.exact :: Approx.all_heuristics)

let test_measure_exact_is_one () =
  let rng = Rng.create 12 in
  let g = Gen.gnp rng 20 0.2 in
  let m = Approx.measure Approx.exact rng g in
  check_bool "alpha exact" true m.Approx.alpha_exact;
  Alcotest.(check (float 1e-9)) "lambda 1" 1.0 m.Approx.lambda

let test_measure_greedy_lambda_bounded () =
  let rng = Rng.create 13 in
  for _ = 1 to 8 do
    let g = Gen.gnp rng 26 0.25 in
    let m = Approx.measure Approx.greedy_min_degree rng g in
    check_bool "lambda >= 1" true (m.Approx.lambda >= 1.0 -. 1e-9);
    check_bool "lambda <= Δ+1" true
      (m.Approx.lambda <= float_of_int (G.max_degree g + 1) +. 1e-9)
  done

let test_degrade_still_independent () =
  let rng = Rng.create 90 in
  let g = Gen.gnp rng 60 0.1 in
  List.iter
    (fun keep ->
      let solver = Approx.degrade ~keep Approx.greedy_min_degree in
      for _ = 1 to 5 do
        let s = Approx.solve_verified solver rng g in
        check_bool "independent" true (Is.is_independent g s);
        check_bool "nonempty" true (Is.size s >= 1)
      done)
    [ 0.5; 0.1; 0.01 ]

let test_degrade_shrinks () =
  let rng = Rng.create 91 in
  let g = Gen.gnp rng 100 0.05 in
  let full = Is.size (Ps_maxis.Greedy.min_degree g) in
  let solver = Approx.degrade ~keep:0.2 Approx.greedy_min_degree in
  let total = ref 0 in
  for _ = 1 to 20 do
    total := !total + Is.size (solver.Approx.solve rng g)
  done;
  let mean = float_of_int !total /. 20.0 in
  check_bool "about 20% kept" true
    (mean < 0.4 *. float_of_int full && mean > 0.05 *. float_of_int full)

let test_degrade_rejects_bad_keep () =
  check_bool "keep=0 rejected" true
    (try
       ignore (Approx.degrade ~keep:0.0 Approx.caro_wei);
       false
     with Invalid_argument _ -> true)

let test_measure_falls_back_to_bound () =
  let g = Gen.gnp (Rng.create 14) 60 0.3 in
  let m = Approx.measure ~exact_budget:2 Approx.greedy_min_degree
            (Rng.create 15) g in
  check_bool "not exact" false m.Approx.alpha_exact;
  check_bool "ref is an upper bound" true
    (m.Approx.alpha_ref >= Is.size (Greedy.min_degree g))

(* ------------------------------------------------------------------ *)
(* Vertex cover *)

module Vc = Ps_maxis.Vertex_cover

let test_vc_duality () =
  let rng = Rng.create 80 in
  for _ = 1 to 8 do
    let g = Gen.gnp rng 24 0.25 in
    let is = Exact.maximum g in
    let cover = Vc.of_independent_set g is in
    check_bool "complement covers" true (Vc.is_cover g cover);
    (* Gallai: tau = n - alpha *)
    check "gallai" (G.n_vertices g - Is.size is)
      (Ps_util.Bitset.cardinal cover);
    let back = Vc.to_independent_set g cover in
    check_bool "roundtrip" true (Ps_util.Bitset.equal is back)
  done

let test_vc_of_matching_two_approx () =
  let rng = Rng.create 81 in
  for _ = 1 to 8 do
    let g = Gen.gnp rng 22 0.2 in
    let m = Ps_graph.Matching.greedy g in
    let cover = Vc.of_matching g m in
    check_bool "covers" true (Vc.is_cover g cover);
    let tau = Option.get (Vc.minimum_size_within ~budget:1_000_000 g) in
    check_bool "within 2x" true (Ps_util.Bitset.cardinal cover <= 2 * tau)
  done

let test_vc_verify_raises () =
  let g = Gen.path 3 in
  check_bool "raises" true
    (try
       Vc.verify_exn g (Ps_util.Bitset.create 3);
       false
     with Invalid_argument _ -> true)

let test_vc_known_values () =
  let tau g = Option.get (Vc.minimum_size_within ~budget:1_000_000 g) in
  check "star" 1 (tau (Gen.star 9));
  check "K6" 5 (tau (Gen.complete 6));
  check "C6" 3 (tau (Gen.ring 6));
  check "empty" 0 (tau (G.empty 7))

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let arbitrary_gnp =
  QCheck.make
    ~print:(fun (seed, n, p) -> Printf.sprintf "seed=%d n=%d p=%d%%" seed n p)
    QCheck.Gen.(triple (int_bound 500) (int_range 1 24) (int_bound 80))

let graph_of (seed, n, p) =
  Gen.gnp (Rng.create seed) n (float_of_int p /. 100.0)

let prop_greedy_independent_maximal =
  QCheck.Test.make ~count:100 ~name:"greedy min-degree: independent+maximal"
    arbitrary_gnp (fun params ->
      let g = graph_of params in
      let s = Greedy.min_degree g in
      Is.is_independent g s && Is.is_maximal g s)

let prop_exact_at_least_heuristics =
  QCheck.Test.make ~count:40
    ~name:"exact alpha >= every heuristic's set size" arbitrary_gnp
    (fun params ->
      let g = graph_of params in
      let alpha = Exact.independence_number g in
      let rng = Rng.create (Hashtbl.hash params) in
      List.for_all
        (fun solver ->
          Is.size (Approx.solve_verified solver rng g) <= alpha)
        Approx.all_heuristics)

let prop_exact_within_bounds =
  QCheck.Test.make ~count:40 ~name:"exact alpha within sandwich bounds"
    arbitrary_gnp (fun params ->
      let g = graph_of params in
      let alpha = Exact.independence_number g in
      let lower, upper = Bounds.sandwich g in
      lower <= float_of_int alpha +. 1e-9 && alpha <= upper)

let prop_caro_wei_independent =
  QCheck.Test.make ~count:60 ~name:"Caro–Wei set independent" arbitrary_gnp
    (fun params ->
      let g = graph_of params in
      let rng = Rng.create (Hashtbl.hash params) in
      Is.is_independent g (Cw.run rng g))

let prop_make_maximal_extends =
  QCheck.Test.make ~count:60 ~name:"make_maximal extends and is maximal"
    arbitrary_gnp (fun params ->
      let g = graph_of params in
      let seed = Greedy.in_order g
                   (Rng.permutation (Rng.create (Hashtbl.hash params))
                      (G.n_vertices g)) in
      let extended = Is.make_maximal g seed in
      Ps_util.Bitset.subset seed extended && Is.is_maximal g extended)

(* The direct-CSR maximality loop against the definitions, written with
   the closure accessors: random sets (mostly dependent), random
   independent sets, and their greedy completions. *)
let prop_maximality_loop_matches_definitions =
  QCheck.Test.make ~count:100
    ~name:"is_independent/is_maximal/complete match their definitions"
    arbitrary_gnp (fun params ->
      let g = graph_of params in
      let n = G.n_vertices g in
      let rng = Rng.create (Hashtbl.hash params) in
      let module B = Ps_util.Bitset in
      let touches s v = G.exists_neighbor g v (B.mem s) in
      let independent s =
        List.for_all (fun (u, v) -> not (B.mem s u && B.mem s v)) (G.edges g)
      in
      let maximal s =
        independent s
        && List.for_all (fun v -> B.mem s v || touches s v) (G.vertices g)
      in
      let complete s =
        let s = B.copy s in
        List.iter (fun v -> if not (B.mem s v || touches s v) then B.add s v)
          (G.vertices g);
        s
      in
      let random = B.create n and sparse = B.create n in
      for v = 0 to n - 1 do
        if Rng.int rng 3 = 0 then B.add random v;
        if Rng.int rng 4 = 0 && not (touches sparse v) then B.add sparse v
      done;
      List.for_all
        (fun s ->
          Bool.equal (Is.is_independent g s) (independent s)
          && Bool.equal (Is.is_maximal g s) (maximal s)
          && B.equal (Is.complete g s) (complete s))
        [ random; sparse; complete sparse ])

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_maximality_loop_matches_definitions;
      prop_greedy_independent_maximal;
      prop_exact_at_least_heuristics;
      prop_exact_within_bounds;
      prop_caro_wei_independent;
      prop_make_maximal_extends ]

let suites =
  [ ( "maxis.independent_set",
      [ Alcotest.test_case "basics" `Quick test_is_basics;
        Alcotest.test_case "dependent detected" `Quick
          test_is_dependent_detected;
        Alcotest.test_case "of_indicator" `Quick test_is_of_indicator;
        Alcotest.test_case "make_maximal" `Quick test_is_make_maximal;
        Alcotest.test_case "empty graph" `Quick test_is_empty_graph_maximal;
        Alcotest.test_case "approximation ratio" `Quick
          test_is_approximation_ratio ] );
    ( "maxis.greedy",
      [ Alcotest.test_case "min-degree valid" `Quick
          test_greedy_min_degree_valid;
        Alcotest.test_case "Turán bound" `Quick test_greedy_turan_bound;
        Alcotest.test_case "disjoint cliques optimal" `Quick
          test_greedy_disjoint_cliques_optimal;
        Alcotest.test_case "star optimal" `Quick test_greedy_star_optimal;
        Alcotest.test_case "adversary valid" `Quick
          test_greedy_adversary_valid_but_weaker;
        Alcotest.test_case "in-order" `Quick test_greedy_in_order;
        QCheck_alcotest.to_alcotest qcheck_greedy_matches_oracle;
        Alcotest.test_case "golden pins" `Quick test_greedy_golden_pins;
        Alcotest.test_case "golden pins at scale" `Quick
          test_greedy_scale_pins;
        Alcotest.test_case "traced counters" `Quick test_greedy_counters ] );
    ( "maxis.caro_wei",
      [ Alcotest.test_case "valid" `Quick test_caro_wei_valid;
        Alcotest.test_case "meets Turán on average" `Quick
          test_caro_wei_meets_turan_on_average;
        Alcotest.test_case "best-of monotone" `Quick
          test_caro_wei_best_of_monotone;
        Alcotest.test_case "bound on K_n" `Quick
          test_expected_size_bound_complete ] );
    ( "maxis.exact",
      [ Alcotest.test_case "known values" `Quick test_exact_known_values;
        Alcotest.test_case "independent" `Quick
          test_exact_result_is_independent;
        Alcotest.test_case "dominates greedy" `Quick
          test_exact_dominates_greedy;
        Alcotest.test_case "budget" `Quick test_exact_budget ] );
    ( "maxis.bounds",
      [ Alcotest.test_case "sandwich" `Quick test_bounds_sandwich;
        Alcotest.test_case "clique cover complete" `Quick
          test_bounds_clique_cover_complete;
        Alcotest.test_case "clique cover empty" `Quick
          test_bounds_clique_cover_empty;
        Alcotest.test_case "matching bound" `Quick test_bounds_matching_path;
        Alcotest.test_case "greedy coloring upper" `Quick
          test_bounds_greedy_coloring_upper ] );
    ( "maxis.approx",
      [ Alcotest.test_case "solvers valid" `Quick test_solvers_all_valid;
        Alcotest.test_case "exact lambda 1" `Quick test_measure_exact_is_one;
        Alcotest.test_case "greedy lambda bounded" `Quick
          test_measure_greedy_lambda_bounded;
        Alcotest.test_case "bound fallback" `Quick
          test_measure_falls_back_to_bound;
        Alcotest.test_case "degrade independent" `Quick
          test_degrade_still_independent;
        Alcotest.test_case "degrade shrinks" `Quick test_degrade_shrinks;
        Alcotest.test_case "degrade validates keep" `Quick
          test_degrade_rejects_bad_keep ] );
    ( "maxis.vertex_cover",
      [ Alcotest.test_case "duality" `Quick test_vc_duality;
        Alcotest.test_case "matching 2-approx" `Quick
          test_vc_of_matching_two_approx;
        Alcotest.test_case "verify raises" `Quick test_vc_verify_raises;
        Alcotest.test_case "known values" `Quick test_vc_known_values ] );
    ("maxis.properties", props) ]
