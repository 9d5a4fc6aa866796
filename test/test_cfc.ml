(* Tests for Ps_cfc: happiness, conflict-free colorings, multicolorings,
   ruler and conservative algorithms, exact CF chromatic numbers. *)

module H = Ps_hypergraph.Hypergraph
module Hgen = Ps_hypergraph.Hgen
module Cf = Ps_cfc.Cf_coloring
module Mc = Ps_cfc.Multicolor
module Cg = Ps_cfc.Cf_greedy
module Ce = Ps_cfc.Cf_exact
module Rng = Ps_util.Rng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sample () = H.of_edges 5 [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 3; 4; 0 ] ]

(* ------------------------------------------------------------------ *)
(* Happiness of single colorings *)

let test_happy_unique_color () =
  let h = sample () in
  (* edge 0 = {0,1,2} *)
  check_bool "distinct witness" true (Cf.happy h [| 0; 1; 0; -1; -1 |] 0);
  check_bool "all same unhappy" false (Cf.happy h [| 0; 0; 0; -1; -1 |] 0);
  check_bool "uncolored unhappy" false (Cf.happy h (Cf.blank h) 0)

let test_happy_witness_choice () =
  let h = sample () in
  (* In edge {0,1,2} with colors 5,5,7 the only unique color is 7 at v=2 *)
  Alcotest.(check (option (pair int int))) "witness" (Some (2, 7))
    (Cf.unique_color_witness h [| 5; 5; 7; -1; -1 |] 0);
  (* colors 1,2,3: smallest vertex wins the tie-break *)
  Alcotest.(check (option (pair int int))) "smallest vertex" (Some (0, 1))
    (Cf.unique_color_witness h [| 1; 2; 3; -1; -1 |] 0)

let test_happy_partial_coloring_ok () =
  let h = sample () in
  (* only vertex 2 colored: edges 0 and 1 both happy, edge 2 not *)
  let f = [| -1; -1; 4; -1; -1 |] in
  Alcotest.(check (list int)) "happy set" [ 0; 1 ] (Cf.happy_edges h f);
  check "count" 2 (Cf.count_happy h f)

let test_is_conflict_free () =
  let h = sample () in
  check_bool "blank not CF" false (Cf.is_conflict_free h (Cf.blank h));
  (* distinct colors everywhere: trivially CF *)
  check_bool "rainbow CF" true
    (Cf.is_conflict_free h [| 0; 1; 2; 3; 4 |])

let test_verify_exn_message () =
  let h = sample () in
  check_bool "names the unhappy edge" true
    (try
       Cf.verify_exn h [| 0; 0; 0; 1; 2 |];
       (* edge 0 = {0,1,2} all color 0 -> unhappy *)
       false
     with Invalid_argument msg ->
       msg = "Cf_coloring.verify_exn: edge 0 is unhappy")

let raises_invalid msg f =
  match f () with
  | () -> false
  | exception Invalid_argument m -> String.equal m msg

let test_verify_exn_rejections () =
  let h = sample () in
  check_bool "length mismatch" true
    (raises_invalid "Cf_coloring: coloring length mismatch" (fun () ->
         Cf.verify_exn h [| 0; 1; 2; 3 |]));
  check_bool "color below -1" true
    (raises_invalid "Cf_coloring: bad color" (fun () ->
         Cf.verify_exn h [| 0; 1; -2; 3; 4 |]));
  (* edges 1 = {2,3} and 2 = {0,3,4} both unhappy; edge 0 happy *)
  check_bool "lowest unhappy edge named" true
    (raises_invalid "Cf_coloring.verify_exn: edge 1 is unhappy" (fun () ->
         Cf.verify_exn h [| 0; 1; 0; 0; 0 |]));
  check_bool "whole-coloring checks reject too" true
    (raises_invalid "Cf_coloring: bad color" (fun () ->
         ignore (Cf.count_happy h [| 0; 1; -3; 3; 4 |])))

let test_num_max_colors () =
  check "num" 3 (Cf.num_colors [| 4; 4; 7; -1; 9 |]);
  check "max" 9 (Cf.max_color [| 4; 4; 7; -1; 9 |]);
  check "max of blank" (-1) (Cf.max_color [| -1; -1 |])

let test_single_vertex_edges () =
  let h = H.of_edges 2 [ [ 0 ]; [ 0; 1 ] ] in
  (* {0} happy iff 0 colored *)
  check_bool "singleton unhappy when blank" false (Cf.happy h (Cf.blank h) 0);
  check_bool "singleton happy" true (Cf.happy h [| 3; -1 |] 0)

(* ------------------------------------------------------------------ *)
(* Multicolorings *)

let test_multicolor_basics () =
  let h = sample () in
  let f = Mc.blank h in
  Mc.add_color f 2 5;
  Mc.add_color f 2 9;
  Mc.add_color f 2 5;
  Alcotest.(check (list int)) "set semantics" [ 5; 9 ] (Mc.colors_of f 2);
  check "total colors" 2 (Mc.total_colors f);
  check "max per vertex" 2 (Mc.max_colors_per_vertex f)

let test_multicolor_happy () =
  let h = sample () in
  let f = Mc.blank h in
  (* edge 0 = {0,1,2}: give 0 and 1 the same color, 2 nothing: unhappy *)
  Mc.add_color f 0 1;
  Mc.add_color f 1 1;
  check_bool "duplicated color unhappy" false (Mc.happy h f 0);
  (* now give 0 a second, unique color *)
  Mc.add_color f 0 2;
  check_bool "second color saves it" true (Mc.happy h f 0);
  Alcotest.(check (option (pair int int))) "witness" (Some (0, 2))
    (Mc.unique_witness h f 0)

let test_multicolor_of_single () =
  let f = Mc.of_single [| 3; -1; 0 |] in
  Alcotest.(check (list int)) "lifted" [ 3 ] f.(0);
  Alcotest.(check (list int)) "uncolored" [] f.(1)

let test_multicolor_merge () =
  let a = [| [ 1 ]; [] |] and b = [| [ 1; 2 ]; [ 0 ] |] in
  let m = Mc.merge a b in
  Alcotest.(check (list int)) "union" [ 1; 2 ] m.(0);
  Alcotest.(check (list int)) "other" [ 0 ] m.(1)

let test_multicolor_compact () =
  let h = sample () in
  let f = Mc.blank h in
  Mc.add_color f 0 17;
  Mc.add_color f 2 5;
  Mc.add_color f 2 17;
  let compacted, c = Mc.compact f in
  check "two colors" 2 c;
  Alcotest.(check (list int)) "v0" [ 1 ] compacted.(0);
  Alcotest.(check (list int)) "v2" [ 0; 1 ] compacted.(2);
  (* happiness invariant under the renumbering *)
  List.iter
    (fun e -> check_bool "same happiness" (Mc.happy h f e) (Mc.happy h compacted e))
    (List.init (H.n_edges h) (fun i -> i))

let test_multicolor_single_equivalence () =
  (* A single coloring is CF iff its lift is CF as a multicoloring. *)
  let h = sample () in
  let rainbow = [| 0; 1; 2; 3; 4 |] in
  check_bool "lift CF" true (Mc.is_conflict_free h (Mc.of_single rainbow));
  let bad = [| 0; 0; 0; 0; 0 |] in
  check_bool "lift of bad" false (Mc.is_conflict_free h (Mc.of_single bad))

(* ------------------------------------------------------------------ *)
(* Ruler coloring on interval hypergraphs *)

let test_ruler_sequence () =
  let h = Hgen.all_intervals_of_length ~n:8 ~len:1 in
  let f = Cg.ruler h in
  (* ruler values of 1..8 = 0,1,0,2,0,1,0,3 *)
  Alcotest.(check (array int)) "ruler" [| 0; 1; 0; 2; 0; 1; 0; 3 |] f

let test_ruler_cf_on_intervals () =
  List.iter
    (fun (n, len) ->
      let h = Hgen.all_intervals_of_length ~n ~len in
      check_bool
        (Printf.sprintf "CF on all %d-intervals of [%d]" len n)
        true
        (Cf.is_conflict_free h (Cg.ruler h)))
    [ (8, 3); (16, 5); (31, 7); (20, 1); (20, 20) ]

let test_ruler_cf_on_random_intervals () =
  let rng = Rng.create 1 in
  for _ = 1 to 10 do
    let h = Hgen.random_intervals rng ~n:60 ~m:40 ~min_len:1 ~max_len:20 in
    check_bool "CF" true (Cf.is_conflict_free h (Cg.ruler h))
  done

let test_ruler_color_count () =
  let h = Hgen.all_intervals_of_length ~n:16 ~len:4 in
  let f = Cg.ruler h in
  check_bool "within log bound" true
    (Cf.num_colors f <= Cg.ruler_color_count 16);
  check "log2 16 + 1" 5 (Cg.ruler_color_count 16);
  check "log2 1 + 1" 1 (Cg.ruler_color_count 1);
  check "log2 7 + 1" 3 (Cg.ruler_color_count 7)

let test_ruler_not_cf_on_scattered_edge () =
  (* A non-interval edge can be unhappy: {0, 2} both have ruler color 0. *)
  let h = H.of_edges 3 [ [ 0; 2 ] ] in
  check_bool "unhappy" false (Cf.is_conflict_free h (Cg.ruler h))

(* ------------------------------------------------------------------ *)
(* Conservative greedy CF coloring *)

let test_conservative_cf_on_families () =
  let rng = Rng.create 2 in
  List.iter
    (fun h ->
      let f = Cg.conservative h in
      check_bool "conflict-free" true (Cf.is_conflict_free h f))
    [ sample ();
      Hgen.uniform_random rng ~n:25 ~m:30 ~k:4;
      Hgen.almost_uniform_random rng ~n:30 ~m:25 ~k:3 ~eps:1.0;
      Hgen.random_intervals rng ~n:40 ~m:30 ~min_len:2 ~max_len:8;
      Hgen.sunflower ~n_petals:5 ~core:3 ~petal:2;
      Hgen.disjoint_blocks ~blocks:6 ~size:3;
      Hgen.closed_neighborhoods (Ps_graph.Gen.grid 4 4) ]

let test_conservative_disjoint_blocks_one_color () =
  let h = Hgen.disjoint_blocks ~blocks:5 ~size:4 in
  let f = Cg.conservative h in
  check "one color suffices" 1 (Cf.num_colors f)

let test_conservative_leaves_irrelevant_uncolored () =
  (* Only one edge: a single vertex needs color. *)
  let h = H.of_edges 6 [ [ 0; 1; 2 ] ] in
  let f = Cg.conservative h in
  check_bool "CF" true (Cf.is_conflict_free h f);
  check "only one vertex colored" 1
    (Array.fold_left (fun a c -> if c <> Cf.uncolored then a + 1 else a) 0 f)

let test_conservative_color_bound () =
  let rng = Rng.create 3 in
  let h = Hgen.uniform_random rng ~n:30 ~m:25 ~k:3 in
  let f = Cg.conservative h in
  let primal = Ps_hypergraph.Primal.primal h in
  check_bool "within Δ(primal)+1" true
    (Cf.num_colors f <= Ps_graph.Graph.max_degree primal + 1)

let test_conservative_empty_hypergraph () =
  let h = H.of_edges 4 [] in
  let f = Cg.conservative h in
  check "nothing colored" 0 (Cf.num_colors f);
  check_bool "vacuously CF" true (Cf.is_conflict_free h f)

(* ------------------------------------------------------------------ *)
(* Differential oracle for the one-pass conservative coloring *)

(* The original quadratic formulation: after every recolor step, rescan
   from edge 0 for the lowest-index unhappy edge.  [Cg.conservative] must
   take exactly the same steps in a single forward pass. *)
let reference_conservative h =
  let f = Cf.blank h in
  let color_distinctly v =
    let blocked = Hashtbl.create 8 in
    List.iter
      (fun e ->
        H.iter_edge h e (fun u ->
            if u <> v && f.(u) <> Cf.uncolored then
              Hashtbl.replace blocked f.(u) ()))
      (H.incident_edges h v);
    let rec first c = if Hashtbl.mem blocked c then first (c + 1) else c in
    f.(v) <- first 0
  in
  let rec fix_all () =
    let unhappy =
      List.find_opt
        (fun e -> not (Cf.happy h f e))
        (List.init (H.n_edges h) (fun i -> i))
    in
    match unhappy with
    | None -> ()
    | Some e ->
        let members = H.edge h e in
        let target =
          match Array.find_opt (fun v -> f.(v) = Cf.uncolored) members with
          | Some v -> v
          | None -> members.(0)
        in
        color_distinctly target;
        fix_all ()
  in
  fix_all ();
  f

(* Edges drawn from the lower half of the vertices only (the upper half
   stays isolated), with singleton edges and verbatim repeats of earlier
   edges mixed in. *)
let messy_hypergraph rng ~n ~m =
  let live = max 1 (n / 2) in
  let edges = ref [] in
  for _ = 1 to m do
    let e =
      match (!edges, Rng.int rng 4) with
      | prev :: _, 0 -> prev
      | _, 1 -> [ Rng.int rng live ]
      | _ -> List.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng live)
    in
    edges := e :: !edges
  done;
  H.of_edges n (List.rev !edges)

let family_names =
  [| "uniform"; "almost-uniform"; "random-intervals"; "all-intervals";
     "sunflower"; "closed-neighborhoods"; "messy"; "empty" |]

let family_hg (family, seed, n, m) =
  let rng = Rng.create seed in
  match family with
  | 0 -> Hgen.uniform_random rng ~n ~m ~k:(1 + Rng.int rng (min 5 n))
  | 1 -> Hgen.almost_uniform_random rng ~n ~m ~k:(1 + Rng.int rng (min 4 n)) ~eps:1.0
  | 2 -> Hgen.random_intervals rng ~n ~m ~min_len:1 ~max_len:(max 1 (n / 3))
  | 3 -> Hgen.all_intervals_of_length ~n ~len:(1 + Rng.int rng n)
  | 4 -> Hgen.sunflower ~n_petals:(1 + m mod 8) ~core:(Rng.int rng 4) ~petal:(1 + n mod 4)
  | 5 -> Hgen.closed_neighborhoods (Ps_graph.Gen.gnp rng n 0.15)
  | 6 -> messy_hypergraph rng ~n ~m
  | _ -> H.of_edges 0 []

let arbitrary_family_hg =
  QCheck.make
    ~print:(fun (fam, seed, n, m) ->
      Printf.sprintf "%s seed=%d n=%d m=%d" family_names.(fam) seed n m)
    QCheck.Gen.(
      quad (int_bound (Array.length family_names - 1)) (int_bound 10_000)
        (int_range 1 40) (int_range 0 40))

let prop_conservative_matches_reference =
  QCheck.Test.make ~count:400
    ~name:"one-pass conservative = quadratic reference, array for array"
    arbitrary_family_hg (fun params ->
      let h = family_hg params in
      Cg.conservative h = reference_conservative h)

(* The invariant that lets [conservative] stamp its blocked-color array
   with the target vertex: colored vertices sharing an edge never share
   a color, so no vertex is ever colored twice. *)
let prop_conservative_proper_on_colored =
  QCheck.Test.make ~count:200
    ~name:"conservative: colored vertices of an edge have distinct colors"
    arbitrary_family_hg (fun params ->
      let h = family_hg params in
      let f = Cg.conservative h in
      List.for_all
        (fun e ->
          let colors =
            List.filter (fun c -> c <> Cf.uncolored)
              (Array.to_list (Array.map (fun v -> f.(v)) (H.edge h e)))
          in
          List.length (List.sort_uniq Int.compare colors) = List.length colors)
        (List.init (H.n_edges h) (fun e -> e)))

let test_choose_k_pinned_sizes () =
  (* The reduce-default instance shapes: k derived by choose_k must be
     the one the reference coloring gives. *)
  let reference_k h = max 1 (Cf.max_color (reference_conservative h) + 1) in
  List.iter
    (fun (name, h) ->
      check name (reference_k h)
        (Ps_core.Pipeline.choose_k Ps_core.Pipeline.From_conservative h))
    (List.map
       (fun m ->
         ( Printf.sprintf "4-uniform m=%d" m,
           Hgen.uniform_random (Rng.create m) ~n:(4 * m / 3) ~m ~k:4 ))
       [ 96; 432; 768 ]
    @ [ ("all intervals n=170 len=10", Hgen.all_intervals_of_length ~n:170 ~len:10) ])

(* ------------------------------------------------------------------ *)
(* Exact CF chromatic number *)

let test_cf_exact_known () =
  (* Disjoint blocks: 1 color. *)
  check "blocks" 1 (Ce.cf_number (Hgen.disjoint_blocks ~blocks:3 ~size:2));
  (* Empty hypergraph: 0 colors. *)
  check "edgeless" 0 (Ce.cf_number (H.of_edges 3 []));
  (* Two nested intervals sharing vertices need 2 when they overlap in a
     way that one color cannot serve both: {0,1} and {0,1,2}: color 0 with
     c: edge {0,1} happy needs unique in {0,1}; assign f(0)=0 only: edge1
     happy (0 unique), edge2 happy (0 unique) -> actually 1 color! *)
  check "nested" 1 (Ce.cf_number (H.of_edges 3 [ [ 0; 1 ]; [ 0; 1; 2 ] ]))

let test_cf_exact_needs_two () =
  (* Edges {0,1}, {1,2}, {0,1,2}: with one color c, to make {0,1} happy
     exactly one of 0,1 has c; similarly {1,2}; and {0,1,2} needs exactly
     one of the three. Coloring only vertex 1 makes all three happy! So
     still 1. Force 2 by a Fano-like overlap: edges {0,1},{0,2},{1,2},
     {0,1,2}: one color: happy pairs need one endpoint each; {0,1,2} needs
     exactly one colored overall or a unique... try f = {0}: {1,2} unhappy.
     f={0,1}: {0,1} unhappy. So cf_number = 2. *)
  let h = H.of_edges 3 [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ]; [ 0; 1; 2 ] ] in
  check "triangle+face" 2 (Ce.cf_number h)

let test_cf_exact_is_colorable_witness () =
  let h = sample () in
  (match Ce.is_colorable h 2 with
  | Some f ->
      check_bool "witness valid" true (Cf.is_conflict_free h f);
      check_bool "within palette" true (Cf.max_color f < 2)
  | None ->
      (* if 2 is not enough the optimum must exceed 2 *)
      check_bool "needs more" true (Ce.cf_number h > 2));
  check_bool "k=n always colorable" true
    (Ce.is_colorable h (H.n_vertices h) <> None)

let test_cf_exact_zero_colors () =
  let h = sample () in
  Alcotest.(check bool) "0 colors impossible with edges" true
    (Ce.is_colorable h 0 = None)

let test_cf_exact_matches_heuristics_upper () =
  let rng = Rng.create 4 in
  for _ = 1 to 5 do
    let h = Hgen.uniform_random rng ~n:8 ~m:6 ~k:3 in
    let opt = Ce.cf_number h in
    let greedy_colors = Cf.num_colors (Cg.conservative h) in
    check_bool "optimum <= greedy" true (opt <= greedy_colors)
  done

(* ------------------------------------------------------------------ *)
(* Tightness: CF number of all intervals = floor(log2 n) + 1 *)

let test_all_intervals_cf_number_tight () =
  (* The ruler coloring achieves floor(log2 n)+1 on all-intervals, and
     exhaustive search certifies nothing smaller works: the log n in the
     paper's "k = polylog" premise is genuinely necessary, not an
     artifact of the algorithms. *)
  List.iter
    (fun n ->
      let h = Hgen.all_intervals ~n in
      check
        (Printf.sprintf "m for n=%d" n)
        (n * (n + 1) / 2)
        (H.n_edges h);
      let expected = Cg.ruler_color_count n in
      check (Printf.sprintf "cf_number n=%d" n) expected (Ce.cf_number h);
      (* and the ruler witnesses the upper bound *)
      let ruler = Cg.ruler h in
      check_bool "ruler CF" true (Cf.is_conflict_free h ruler);
      check_bool "ruler optimal" true (Cf.num_colors ruler <= expected))
    [ 1; 2; 3; 4; 5; 7; 8 ]

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let arbitrary_hg =
  QCheck.make
    ~print:(fun (seed, n, m, k) ->
      Printf.sprintf "hg seed=%d n=%d m=%d k=%d" seed n m k)
    QCheck.Gen.(
      quad (int_bound 1000) (int_range 3 20) (int_range 1 15) (int_range 1 4))

let hg_of (seed, n, m, k) =
  Hgen.almost_uniform_random (Rng.create seed) ~n ~m ~k:(min k n) ~eps:1.0

let prop_conservative_always_cf =
  QCheck.Test.make ~count:100 ~name:"conservative greedy is conflict-free"
    arbitrary_hg (fun params ->
      let h = hg_of params in
      Cf.is_conflict_free h (Cg.conservative h))

let prop_ruler_cf_on_intervals =
  QCheck.Test.make ~count:100 ~name:"ruler is CF on random intervals"
    (QCheck.make
       ~print:(fun (seed, n, m) -> Printf.sprintf "%d %d %d" seed n m)
       QCheck.Gen.(
         triple (int_bound 1000) (int_range 2 50) (int_range 1 30)))
    (fun (seed, n, m) ->
      let rng = Rng.create seed in
      let h = Hgen.random_intervals rng ~n ~m ~min_len:1 ~max_len:n in
      Cf.is_conflict_free h (Cg.ruler h))

let prop_happy_monotone_under_new_unique_colors =
  QCheck.Test.make ~count:100
    ~name:"adding a globally fresh color never unhappies an edge"
    arbitrary_hg (fun params ->
      let h = hg_of params in
      if H.n_vertices h = 0 then true
      else begin
        let f = Cg.conservative h in
        let before = Cf.count_happy h f in
        (* recolor an uncolored vertex (if any) with a fresh color *)
        let fresh = Cf.max_color f + 1 in
        let idx =
          Array.to_list (Array.mapi (fun i c -> (i, c)) f)
          |> List.find_opt (fun (_, c) -> c = Cf.uncolored)
        in
        match idx with
        | None -> true
        | Some (v, _) ->
            f.(v) <- fresh;
            Cf.count_happy h f >= before
      end)

(* Random partial colorings (about a third of the vertices uncolored,
   colors up to n) on every family: the single-pass whole-coloring
   checks must agree with a per-edge [happy] fold. *)
let prop_verifiers_match_per_edge_happy =
  QCheck.Test.make ~count:300
    ~name:"whole-coloring verifiers = per-edge happy fold"
    (QCheck.pair arbitrary_family_hg QCheck.small_nat)
    (fun (params, cseed) ->
      let h = family_hg params in
      let n = H.n_vertices h in
      let rng = Rng.create cseed in
      let f =
        Array.init n (fun _ ->
            if Rng.int rng 3 = 0 then Cf.uncolored else Rng.int rng (n + 1))
      in
      let edges = List.init (H.n_edges h) (fun e -> e) in
      let expected = List.filter (Cf.happy h f) edges in
      let first_unhappy = List.find_opt (fun e -> not (Cf.happy h f e)) edges in
      let verify_outcome =
        match Cf.verify_exn h f with
        | () -> None
        | exception Invalid_argument msg -> Some msg
      in
      Cf.happy_edges h f = expected
      && Cf.count_happy h f = List.length expected
      && Bool.equal (Cf.is_conflict_free h f) (Option.is_none first_unhappy)
      && verify_outcome
         = Option.map
             (Printf.sprintf "Cf_coloring.verify_exn: edge %d is unhappy")
             first_unhappy)

(* [happy_fast] is the phase loop's inner scan, so it gets a direct
   check: one scratch reused across every edge (its all-zero restore is
   part of the contract), random partial colorings with colors below
   the scratch's k, uncolored vertices included. *)
let prop_happy_fast_matches_happy =
  QCheck.Test.make ~count:300
    ~name:"happy_fast (one shared scratch) = happy, every edge"
    (QCheck.triple arbitrary_family_hg QCheck.small_nat (QCheck.int_range 1 6))
    (fun (params, cseed, k) ->
      let h = family_hg params in
      let rng = Rng.create cseed in
      let f =
        Array.init (H.n_vertices h) (fun _ ->
            if Rng.int rng 3 = 0 then Cf.uncolored else Rng.int rng k)
      in
      let scratch = Cf.happy_scratch ~k in
      List.for_all
        (fun e -> Bool.equal (Cf.happy_fast scratch h f e) (Cf.happy h f e))
        (List.init (H.n_edges h) (fun e -> e))
      && Array.for_all (fun c -> c = 0) scratch)

let prop_multicolor_lift_preserves_happiness =
  QCheck.Test.make ~count:100
    ~name:"single-coloring happiness = lifted multicolor happiness"
    arbitrary_hg (fun params ->
      let h = hg_of params in
      let f = Cg.conservative h in
      let mc = Mc.of_single f in
      List.for_all
        (fun e -> Cf.happy h f e = Mc.happy h mc e)
        (List.init (H.n_edges h) (fun e -> e)))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_conservative_always_cf;
      prop_ruler_cf_on_intervals;
      prop_happy_monotone_under_new_unique_colors;
      prop_multicolor_lift_preserves_happiness;
      prop_conservative_matches_reference;
      prop_conservative_proper_on_colored;
      prop_verifiers_match_per_edge_happy;
      prop_happy_fast_matches_happy ]

let suites =
  [ ( "cfc.happiness",
      [ Alcotest.test_case "unique color" `Quick test_happy_unique_color;
        Alcotest.test_case "witness choice" `Quick test_happy_witness_choice;
        Alcotest.test_case "partial coloring" `Quick
          test_happy_partial_coloring_ok;
        Alcotest.test_case "is conflict free" `Quick test_is_conflict_free;
        Alcotest.test_case "verify message" `Quick test_verify_exn_message;
        Alcotest.test_case "verify rejections" `Quick
          test_verify_exn_rejections;
        Alcotest.test_case "color counting" `Quick test_num_max_colors;
        Alcotest.test_case "single-vertex edges" `Quick
          test_single_vertex_edges ] );
    ( "cfc.multicolor",
      [ Alcotest.test_case "basics" `Quick test_multicolor_basics;
        Alcotest.test_case "happiness" `Quick test_multicolor_happy;
        Alcotest.test_case "of_single" `Quick test_multicolor_of_single;
        Alcotest.test_case "merge" `Quick test_multicolor_merge;
        Alcotest.test_case "compact" `Quick test_multicolor_compact;
        Alcotest.test_case "single equivalence" `Quick
          test_multicolor_single_equivalence ] );
    ( "cfc.ruler",
      [ Alcotest.test_case "sequence" `Quick test_ruler_sequence;
        Alcotest.test_case "CF on interval families" `Quick
          test_ruler_cf_on_intervals;
        Alcotest.test_case "CF on random intervals" `Quick
          test_ruler_cf_on_random_intervals;
        Alcotest.test_case "color count" `Quick test_ruler_color_count;
        Alcotest.test_case "scattered edge fails" `Quick
          test_ruler_not_cf_on_scattered_edge ] );
    ( "cfc.conservative",
      [ Alcotest.test_case "CF on families" `Quick
          test_conservative_cf_on_families;
        Alcotest.test_case "disjoint blocks" `Quick
          test_conservative_disjoint_blocks_one_color;
        Alcotest.test_case "sparse coloring" `Quick
          test_conservative_leaves_irrelevant_uncolored;
        Alcotest.test_case "color bound" `Quick test_conservative_color_bound;
        Alcotest.test_case "empty hypergraph" `Quick
          test_conservative_empty_hypergraph;
        Alcotest.test_case "choose_k at reduce-default sizes" `Quick
          test_choose_k_pinned_sizes ] );
    ( "cfc.exact",
      [ Alcotest.test_case "known values" `Quick test_cf_exact_known;
        Alcotest.test_case "needs two" `Quick test_cf_exact_needs_two;
        Alcotest.test_case "witness" `Quick test_cf_exact_is_colorable_witness;
        Alcotest.test_case "zero colors" `Quick test_cf_exact_zero_colors;
        Alcotest.test_case "optimum <= greedy" `Quick
          test_cf_exact_matches_heuristics_upper;
        Alcotest.test_case "all-intervals tight" `Quick
          test_all_intervals_cf_number_tight ] );
    ("cfc.properties", props) ]
