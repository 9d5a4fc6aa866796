(* Tests for first-fit solvers and the kernel path that runs them on its
   working state: the declaration {!Approx.caro_wei} and {!Approx.degrade}
   carry, the answer [Kernel.solve] gives without emitting the kernel
   graph (the same set and stats as the emitted-kernel route), its
   independence check, and pins of [degrade] and of reduce-lambda-shaped
   reductions recorded before the first-fit path existed. *)

module G = Ps_graph.Graph
module Gen = Ps_graph.Gen
module B = Ps_util.Bitset
module Is = Ps_maxis.Independent_set
module Kn = Ps_maxis.Kernel
module Approx = Ps_maxis.Approx
module Greedy = Ps_maxis.Greedy
module Rng = Ps_util.Rng
module Tm = Ps_util.Telemetry

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pins *)

(* [degrade] outputs, as (case, seed, size, set hash): first-fit and
   generic bases, a keep that draws no member (the never-empty rule),
   a degrade of a degrade, and one run through the kernel. *)
let degrade_cases =
  [ ("cw@5% gnp", (fun () -> Gen.gnp (Rng.create 101) 400 0.02),
     fun () -> Approx.degrade ~keep:0.05 Approx.caro_wei);
    ("cw@2% gnp", (fun () -> Gen.gnp (Rng.create 102) 600 0.01),
     fun () -> Approx.degrade ~keep:0.02 Approx.caro_wei);
    ("greedy@30% gnp", (fun () -> Gen.gnp (Rng.create 103) 300 0.03),
     fun () -> Approx.degrade ~keep:0.3 Approx.greedy_min_degree);
    ("cw@2% ring (never empty)", (fun () -> Gen.ring 12),
     fun () -> Approx.degrade ~keep:0.02 Approx.caro_wei);
    ("cw@50%@50% rmat",
     (fun () -> Gen.rmat (Rng.create 104) ~scale:9 ~edges:3000),
     fun () -> Approx.degrade ~keep:0.5 (Approx.degrade ~keep:0.5 Approx.caro_wei));
    ("kernel+cw@5% gnp", (fun () -> Gen.gnp (Rng.create 105) 800 0.004),
     fun () -> Kn.presolve (Approx.degrade ~keep:0.05 Approx.caro_wei)) ]

let degrade_pins =
  [ ("cw@5% gnp", 1, 4, 0xbadea38f34d13883L);
    ("cw@5% gnp", 2, 8, 0xebf96f59ad6fad27L);
    ("cw@5% gnp", 3, 7, 0x269e48af67443b91L);
    ("cw@2% gnp", 1, 2, 0x8c460df69906a79dL);
    ("cw@2% gnp", 2, 2, 0x15a8a5af9b008e17L);
    ("cw@2% gnp", 3, 7, 0x707702bfa1138cb6L);
    ("greedy@30% gnp", 1, 23, 0xa76313513f9f9669L);
    ("greedy@30% gnp", 2, 30, 0x86e48d3b4f1c7f86L);
    ("greedy@30% gnp", 3, 27, 0xaaff82e5665f4885L);
    ("cw@2% ring (never empty)", 1, 1, 0x813f0174a2367c13L);
    ("cw@2% ring (never empty)", 2, 1, 0x5ca6bbcbb1e85355L);
    ("cw@2% ring (never empty)", 3, 1, 0x7b47f7a6b214f733L);
    ("cw@50%@50% rmat", 1, 97, 0xf7f3af0adb25c6d4L);
    ("cw@50%@50% rmat", 2, 84, 0x16e3059c5b47f857L);
    ("cw@50%@50% rmat", 3, 93, 0x974abe15fe147acdL);
    ("kernel+cw@5% gnp", 1, 407, 0xcdda727f8c5b2280L);
    ("kernel+cw@5% gnp", 2, 407, 0x28b0ca51b395b56L);
    ("kernel+cw@5% gnp", 3, 408, 0x3b435646bf04ed39L) ]

let test_degrade_pins () =
  List.iter
    (fun (name, seed, size, hash) ->
      let _, mk, solver =
        List.find (fun (n, _, _) -> String.equal n name) degrade_cases
      in
      let g = mk () in
      let s = (solver ()).Approx.solve (Rng.create seed) g in
      let what = Printf.sprintf "%s seed %d" name seed in
      check (what ^ ": size") size (B.cardinal s);
      Alcotest.(check int64) (what ^ ": hash") hash (Test_kernel.set_hash s);
      check_bool (what ^ ": independent") true (Is.is_independent g s))
    degrade_pins

(* Reductions shaped like the benchmark's reduce-lambda ops: 4-uniform
   hypergraphs with n = 4m/3 and m evenly spaced over [384, 1536], k
   fixed at 3, caro-wei degraded to keep 0.05 and 0.02 in turn, under
   the default kernel presolve.  Per (seed, instance): colors used,
   phases, the certificate's worst λ and each phase's set size. *)
let lambda_pins =
  [ (1, 0, 4, 2, 0x1.0204081020408p+0, [ 381; 3 ]);
    (1, 1, 4, 2, 0x1.0141c7db21199p+0, [ 611; 3 ]);
    (1, 2, 4, 2, 0x1.02732385830ffp+0, [ 836; 8 ]);
    (1, 3, 4, 2, 0x1.016fd5da29ab4p+0, [ 1069; 6 ]);
    (1, 4, 4, 2, 0x1.022d1b4d27f68p+0, [ 1294; 11 ]);
    (1, 5, 4, 2, 0x1.01571ed3c506bp+0, [ 1528; 8 ]);
    (2, 0, 4, 2, 0x1.00ab1cbdd3e29p+0, [ 383; 1 ]);
    (2, 1, 4, 2, 0x1.01adbe87f949p+0, [ 610; 4 ]);
    (2, 2, 4, 2, 0x1.01868f68a86dep+0, [ 839; 5 ]);
    (2, 3, 4, 2, 0x1.016fd5da29ab4p+0, [ 1069; 6 ]);
    (2, 4, 4, 2, 0x1.01943b36ac824p+0, [ 1297; 8 ]);
    (2, 5, 4, 2, 0x1.012c08b4d2f62p+0, [ 1529; 7 ]);
    (3, 0, 4, 2, 0x1.01571ed3c506bp+0, [ 382; 2 ]);
    (3, 1, 4, 2, 0x1.0141c7db21199p+0, [ 611; 3 ]);
    (3, 2, 4, 2, 0x1.0224173eb33bp+0, [ 837; 7 ]);
    (3, 3, 4, 2, 0x1.00f4c400f4c4p+0, [ 1071; 4 ]);
    (3, 4, 4, 2, 0x1.012eb4ea1fed1p+0, [ 1299; 6 ]);
    (3, 5, 4, 2, 0x1.012c08b4d2f62p+0, [ 1529; 7 ]) ]

let test_lambda_pins () =
  let got = ref [] in
  for seed = 1 to 3 do
    let rng = Rng.create seed in
    let sizes = 6 and lo = 384 and hi = 1536 in
    let hs =
      Array.init sizes (fun i ->
          let m = lo + ((hi - lo) * i / (sizes - 1)) in
          Ps_hypergraph.Hgen.uniform_random rng ~n:(4 * m / 3) ~m ~k:4)
    in
    Array.iteri
      (fun i h ->
        let keep = if i mod 2 = 0 then 0.05 else 0.02 in
        let r =
          Ps_core.Pipeline.solve ~seed:(Rng.int rng 1_000_000)
            ~k:(Ps_core.Pipeline.Fixed 3)
            ~solver:(Approx.degrade ~keep Approx.caro_wei) h
        in
        let run = r.Ps_core.Pipeline.reduction in
        got :=
          ( seed,
            i,
            run.Ps_core.Reduction.colors_used,
            run.total_phases,
            r.certificate.Ps_core.Certify.lambda_max,
            List.map (fun p -> p.Ps_core.Reduction.is_size) run.phases )
          :: !got)
      hs
  done;
  List.iter2
    (fun (s, i, colors, phases, lambda, sizes) (s', i', colors', phases', lambda', sizes') ->
      let what = Printf.sprintf "seed %d instance %d" s i in
      check (what ^ ": same instance") (s * 10 + i) (s' * 10 + i');
      check (what ^ ": colors_used") colors colors';
      check (what ^ ": total_phases") phases phases';
      Alcotest.(check (float 0.)) (what ^ ": lambda_max") lambda lambda';
      Alcotest.(check (list int)) (what ^ ": phase sizes") sizes sizes')
    lambda_pins (List.rev !got)

(* ------------------------------------------------------------------ *)
(* The declaration and the kernel path *)

let first_fit_count f =
  let was = Tm.enabled () in
  Tm.reset ();
  Tm.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Tm.set_enabled was;
      Tm.reset ())
    (fun () ->
      f ();
      Tm.counter_value "kernel.first_fit")

let test_declarations () =
  let declared (s : Approx.solver) = Option.is_some s.Approx.first_fit in
  check_bool "caro-wei" true (declared Approx.caro_wei);
  check_bool "degraded caro-wei" true
    (declared (Approx.degrade ~keep:0.05 Approx.caro_wei));
  check_bool "degraded greedy" false
    (declared (Approx.degrade ~keep:0.05 Approx.greedy_min_degree));
  check_bool "boosted caro-wei" false (declared (Approx.caro_wei_boosted 8));
  check_bool "greedy" false (declared Approx.greedy_min_degree);
  check_bool "presolve wrapper" false (declared (Kn.presolve Approx.caro_wei));
  let g = Gen.gnp (Rng.create 7) 200 0.03 in
  let solve s () = ignore (Kn.solve s (Rng.create 1) g : Is.t * Kn.stats) in
  check "kernel.first_fit for caro-wei" 1
    (first_fit_count (solve Approx.caro_wei));
  check "kernel.first_fit for greedy" 0
    (first_fit_count (solve Approx.greedy_min_degree))

(* A declaration whose thinning hands back kernel vertices the first
   fit did not choose, two of them adjacent: the path must refuse it,
   as [verify_exn] on the emitted kernel refuses a dependent set. *)
let test_check_rejects_added_vertices () =
  let adds =
    { Approx.name = "adds";
      solve = (fun _ g -> B.of_list (G.n_vertices g) [ 0; 1 ]);
      first_fit =
        Some
          { Approx.order = Rng.permutation;
            thin =
              Some
                (fun _ members ->
                  Array.init (Array.length members + 1) Fun.id) } }
  in
  (* Q_4: no rule fires, so kernel ids are the input's, and 0 ~ 1. *)
  let g = Gen.hypercube 4 in
  check_bool "raises Invalid_argument" true
    (match Kn.solve adds (Rng.create 1) g with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* The route the first-fit path replaces, written against the emitted
   kernel with the parent's list-based thinning: first fit along a
   permutation of the kernel, the Bernoulli keep in ascending order
   (never empty), then the lift. *)
let reference ~keep seed g =
  let r = Kn.reduce g in
  let k = Kn.graph r in
  let rng = Rng.create seed in
  let s = Greedy.in_order k (Rng.permutation rng (G.n_vertices k)) in
  let s =
    match keep with
    | None -> s
    | Some keep ->
        let members = Is.to_list s in
        let kept = List.filter (fun _ -> Rng.bernoulli rng keep) members in
        let kept =
          match (kept, members) with [], v :: _ -> [ v ] | kept, _ -> kept
        in
        Is.of_list k kept
  in
  (Kn.lift r s, Kn.stats r)

(* Families: G(n,p), R-MAT, fold-heavy chorded paths and cycles,
   caterpillars, cliques with chords (simplicial takes), triangle-free
   graphs of minimum degree 3 (no rule fires) and trees (the kernel is
   empty).  The last two are checked to be what they claim. *)
let family_input (family, seed, size) =
  let rng = Rng.create seed in
  match family with
  | 0 ->
      let n = 50 + (size * 20) in
      let avg = 1.5 +. (6.5 *. Rng.float rng 1.0) in
      Gen.huge_gnp rng n (avg /. float_of_int (n - 1))
  | 1 ->
      let scale = 5 + (size mod 7) in
      Gen.rmat rng ~scale ~edges:((2 + (size mod 5)) lsl scale)
  | 2 -> Test_kernel.path_with_chords seed (20 + (size * 10)) (size * 3)
  | 3 -> Test_kernel.ring_with_chords seed (20 + (size * 10)) (size * 2)
  | 4 -> Test_kernel.caterpillar seed (10 + (size * 3)) (1 + (size mod 3)) size
  | 5 ->
      Test_kernel.cliques_with_chords seed ~cliques:(2 + (size / 4))
        ~size:(3 + (size mod 6)) ~chords:size
  | 6 ->
      if seed mod 2 = 0 then Gen.hypercube (3 + (size mod 6))
      else Gen.crown (4 + (size mod 40))
  | _ -> Gen.random_tree rng (1 + (size * 10))

let keeps = [| None; Some 0.05; Some 0.02 |]

let prop_first_fit_matches_emitted_kernel =
  QCheck.Test.make ~count:300
    ~name:"first fit on the working state = lift of in_order on the kernel"
    QCheck.(
      make
        ~print:(fun ((f, s, z), kp) ->
          Printf.sprintf "family=%d seed=%d size=%d keep#%d" f s z kp)
        Gen.(pair (triple (int_bound 7) (int_bound 10_000) (int_bound 49))
               (int_bound 2)))
    (fun (((family, seed, _) as input), kp) ->
      let g = family_input input in
      let keep = keeps.(kp) in
      let solver =
        match keep with
        | None -> Approx.caro_wei
        | Some keep -> Approx.degrade ~keep Approx.caro_wei
      in
      let set, stats = Kn.solve solver (Rng.create seed) g in
      let want, want_stats = reference ~keep seed g in
      let shape_ok =
        match family with
        | 6 -> stats.Kn.kernel_vertices = G.n_vertices g
        | 7 -> stats.Kn.kernel_vertices = 0
        | _ -> true
      in
      shape_ok && B.equal set want
      && Test_kernel.stats_list stats = Test_kernel.stats_list want_stats)

let suites =
  [ ( "maxis.first_fit",
      [ Alcotest.test_case "degrade pins" `Quick test_degrade_pins;
        Alcotest.test_case "reduce-lambda pins" `Quick test_lambda_pins;
        Alcotest.test_case "declarations and counter" `Quick test_declarations;
        Alcotest.test_case "check rejects a thinning that adds" `Quick
          test_check_rejects_added_vertices;
        QCheck_alcotest.to_alcotest prop_first_fit_matches_emitted_kernel ] ) ]
