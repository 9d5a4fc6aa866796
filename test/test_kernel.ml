(* Tests for the kernelization front end and the racing portfolio:
   reduction rules, the undo journal's lift contract (independent AND
   maximal on the original graph for any independent kernel input), the
   vertex-addition repair pass, and Portfolio.race determinism. *)

module G = Ps_graph.Graph
module Gen = Ps_graph.Gen
module B = Ps_util.Bitset
module Is = Ps_maxis.Independent_set
module Kn = Ps_maxis.Kernel
module Approx = Ps_maxis.Approx
module Exact = Ps_maxis.Exact
module Portfolio = Ps_maxis.Portfolio
module Rng = Ps_util.Rng
module Tm = Ps_util.Telemetry

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Solve via the presolve combinator: kernelize, greedy on the kernel,
   lift.  The workhorse for exact-size checks on solved families. *)
let kernel_greedy_size ?seed g =
  let rng = Rng.create (Option.value seed ~default:0) in
  let s = (Kn.presolve Approx.greedy_min_degree).Approx.solve rng g in
  Is.verify_exn g s;
  check_bool "maximal" true (Is.is_maximal g s);
  Is.size s

(* ------------------------------------------------------------------ *)
(* Reduction rules on solved families *)

let test_kernel_solves_paths () =
  (* Degree-0/1/2 rules alone finish a path: α(P_n) = ⌈n/2⌉ and the
     kernel is empty, so the journal replay IS the solver. *)
  for n = 1 to 14 do
    let g = Gen.path n in
    let r = Kn.reduce g in
    check "path kernel empty" 0 (Kn.stats r).Kn.kernel_vertices;
    check "alpha(P_n)" ((n + 1) / 2) (kernel_greedy_size g)
  done

let test_kernel_solves_cycles () =
  (* Folding shortens C_n to C_{n-1} until the triangle goes simplicial:
     α(C_n) = ⌊n/2⌋, kernel empty. *)
  for n = 3 to 14 do
    let g = Gen.ring n in
    let r = Kn.reduce g in
    check "cycle kernel empty" 0 (Kn.stats r).Kn.kernel_vertices;
    if n > 3 then
      check_bool "cycle needs folds" true ((Kn.stats r).Kn.folds > 0);
    check "alpha(C_n)" (n / 2) (kernel_greedy_size g)
  done

let test_kernel_rule_counters () =
  (* Star: one pendant take retires everything. *)
  let r = Kn.reduce (Gen.star 9) in
  check "star kernel empty" 0 (Kn.stats r).Kn.kernel_vertices;
  check_bool "star via pendant rule" true ((Kn.stats r).Kn.pendants >= 1);
  check "alpha(star)" 8 (kernel_greedy_size (Gen.star 9));
  (* Complete graph: simplicial removal takes one vertex, kills the rest. *)
  let r = Kn.reduce (Gen.complete 8) in
  check "K8 kernel empty" 0 (Kn.stats r).Kn.kernel_vertices;
  check "K8 one simplicial take" 1 (Kn.stats r).Kn.simplicial;
  check "alpha(K8)" 1 (kernel_greedy_size (Gen.complete 8));
  (* Isolated vertices. *)
  let r = Kn.reduce (G.empty 5) in
  check "isolated count" 5 (Kn.stats r).Kn.isolated;
  check "alpha(empty)" 5 (kernel_greedy_size (G.empty 5))

let test_kernel_disjoint_cliques_exact () =
  let g = Gen.disjoint_cliques 5 4 in
  let r = Kn.reduce g in
  check "cliques kernel empty" 0 (Kn.stats r).Kn.kernel_vertices;
  check "one take per clique" 5 (kernel_greedy_size g)

let test_kernel_stats_shape () =
  let g = Gen.gnp (Rng.create 3) 80 0.08 in
  let r = Kn.reduce g in
  let st = Kn.stats r in
  check "original n" (G.n_vertices g) st.Kn.original_vertices;
  check "original m" (G.n_edges g) st.Kn.original_edges;
  check "kernel n" (G.n_vertices (Kn.graph r)) st.Kn.kernel_vertices;
  check "kernel m" (G.n_edges (Kn.graph r)) st.Kn.kernel_edges;
  check_bool "shrink ratio in [0,1]" true
    (Kn.shrink_ratio st >= 0.0 && Kn.shrink_ratio st <= 1.0);
  (* to_original is injective into the original id range. *)
  let seen = B.create st.Kn.original_vertices in
  Array.iter
    (fun v ->
      check_bool "fresh id" false (B.mem seen v);
      B.add seen v)
    (Kn.to_original r);
  check "map size" st.Kn.kernel_vertices (B.cardinal seen)

(* ------------------------------------------------------------------ *)
(* Golden identity pins *)

(* [cliques] disjoint K_size plus [chords] random extra edges. *)
let cliques_with_chords seed ~cliques ~size ~chords =
  let g = Gen.disjoint_cliques cliques size in
  let rng = Rng.create seed in
  let n = G.n_vertices g in
  let extra =
    List.init chords (fun _ ->
        let u = Rng.int rng n and v = Rng.int rng n in
        if u = v then (u, (v + 1) mod n) else (u, v))
  in
  G.of_edges n (G.edges g @ extra)

(* G_3 of a random 3-uniform hypergraph: the reduction's own input. *)
let conflict_graph seed ~n ~m =
  let h = Ps_hypergraph.Hgen.uniform_random (Rng.create seed) ~n ~m ~k:3 in
  (Ps_core.Conflict_graph.build h ~k:3).Ps_core.Conflict_graph.graph

let stats_list (st : Kn.stats) =
  [ st.Kn.original_vertices; st.original_edges; st.kernel_vertices;
    st.kernel_edges; st.isolated; st.pendants; st.folds; st.simplicial;
    st.dominated ]

let set_hash s =
  Ps_util.Fnv.finish
    (B.fold (fun v h -> Ps_util.Fnv.int h v) s Ps_util.Fnv.init)

(* Per input: the kernel's content hash, the full stats record (as
   [stats_list]), and the size and hash of the lift of the in-order
   greedy kernel answer — which replays the whole journal.  Recorded
   from the kernel that ran the simplicial/domination scan at every
   vertex and rebuilt its CSR from edge pairs, so they pin the
   witness gate and the direct emit to that kernel bit for bit. *)
let golden =
  [ ("gnp sparse", (fun () -> Gen.gnp (Rng.create 11) 3000 0.001),
     0x1fcf573b33eef0f8L, [ 3000; 4557; 202; 455; 217; 891; 392; 5; 0 ],
     1577, 0xfdb5aa1cc93c311aL);
    ("gnp sparse 2", (fun () -> Gen.gnp (Rng.create 12) 2000 0.0015),
     0x32d608637c21d094L, [ 2000; 3091; 145; 349; 134; 566; 292; 1; 2 ],
     1045, 0x221c8744fb586c7bL);
    ("gnp dense", (fun () -> Gen.gnp (Rng.create 13) 300 0.05),
     0xbd9ee9778bf8dc87L, [ 300; 2304; 300; 2304; 0; 0; 0; 0; 0 ],
     50, 0x8c139725938aae68L);
    ("gnp mid", (fun () -> Gen.gnp (Rng.create 20) 600 0.01),
     0x9ea4afcf11651bd4L, [ 600; 1792; 526; 1680; 2; 7; 29; 0; 0 ],
     201, 0x150e7357047526L);
    ("gnp mid 2", (fun () -> Gen.gnp (Rng.create 21) 400 0.02),
     0x24b28de3e8a5be80L, [ 400; 1589; 391; 1566; 1; 2; 2; 0; 0 ],
     113, 0xba78d69648d4137bL);
    ("rmat s10", (fun () -> Gen.rmat (Rng.create 14) ~scale:10 ~edges:4000),
     0x68752350ae1d483fL, [ 1024; 3293; 0; 0; 516; 254; 0; 0; 0 ],
     770, 0xee2d3f500a14e4f9L);
    ("rmat s12", (fun () -> Gen.rmat (Rng.create 15) ~scale:12 ~edges:12000),
     0x68752350ae1d483fL, [ 4096; 10831; 0; 0; 2526; 785; 0; 0; 0 ],
     3311, 0x970ccd31e24d6ca1L);
    ("cliques+chords",
     (fun () -> cliques_with_chords 16 ~cliques:60 ~size:5 ~chords:40),
     0x68752350ae1d483fL, [ 300; 640; 0; 0; 0; 0; 0; 60; 0 ],
     60, 0x815335f316e7f5d5L);
    ("cliques+chords dense",
     (fun () -> cliques_with_chords 17 ~cliques:30 ~size:7 ~chords:90),
     0x68752350ae1d483fL, [ 210; 716; 0; 0; 0; 0; 0; 30; 0 ],
     30, 0x5abb69bea4f0dcaaL);
    ("cliques+chords heavy",
     (fun () -> cliques_with_chords 22 ~cliques:20 ~size:6 ~chords:150),
     0x68752350ae1d483fL, [ 120; 436; 0; 0; 0; 0; 0; 20; 0 ],
     20, 0xcba9b721b3343ce8L);
    ("cliques+chords mixed",
     (fun () -> cliques_with_chords 23 ~cliques:50 ~size:4 ~chords:60),
     0x68752350ae1d483fL, [ 200; 359; 0; 0; 0; 0; 0; 50; 0 ],
     50, 0xb3cd75345953600cL);
    ("conflict 1", (fun () -> conflict_graph 18 ~n:30 ~m:12),
     0x3a33e029bf92e0a6L, [ 108; 720; 87; 588; 0; 0; 0; 1; 12 ],
     12, 0x4357388df5c9cb30L);
    ("conflict 2", (fun () -> conflict_graph 19 ~n:40 ~m:20),
     0xda605b4d309e5a37L, [ 180; 1602; 153; 1377; 0; 0; 0; 1; 18 ],
     20, 0xbd4fdcea9be64d66L);
    ("conflict 3", (fun () -> conflict_graph 24 ~n:20 ~m:16),
     0xb2adbb765fe59ad0L, [ 144; 1470; 144; 1470; 0; 0; 0; 0; 0 ],
     16, 0x1e9044ba1aca091L) ]

let check_pin (name, mk, hash, stats, lift_size, lift_hash) =
  let r = Kn.reduce (mk ()) in
  let k = Kn.graph r in
  Alcotest.(check int64) (name ^ ": kernel hash") hash (G.content_hash k);
  Alcotest.(check (list int)) (name ^ ": stats") stats
    (stats_list (Kn.stats r));
  let s = Ps_maxis.Greedy.in_order k (Array.init (G.n_vertices k) Fun.id) in
  let l = Kn.lift r s in
  check (name ^ ": lift size") lift_size (B.cardinal l);
  Alcotest.(check int64) (name ^ ": lift hash") lift_hash (set_hash l)

let test_golden_pins () =
  List.iter check_pin golden;
  (* The corpus reaches both scan rules (stats fields 7 and 8). *)
  let fires i =
    List.exists (fun (_, _, _, st, _, _) -> List.nth st i > 0) golden
  in
  check_bool "a pin with simplicial takes" true (fires 7);
  check_bool "a pin with dominated deletions" true (fires 8)

(* ------------------------------------------------------------------ *)
(* Witness gate *)

(* The cube Q_3 is cubic and triangle-free: every vertex reaches the
   scan at degree 3 and the gate proves each scan futile. *)
let q3_plus n extra = G.of_edges n (G.edges (Gen.hypercube 3) @ extra)

(* [read ()] after one traced [reduce g]. *)
let traced g read =
  let was = Tm.enabled () in
  Tm.reset ();
  Tm.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Tm.set_enabled was;
      Tm.reset ())
    (fun () ->
      ignore (Kn.reduce g);
      read ())

(* (kernel.scans, kernel.scan_skips) of one traced [reduce]. *)
let scan_counters g =
  traced g (fun () ->
      (Tm.counter_value "kernel.scans", Tm.counter_value "kernel.scan_skips"))

let test_gate_skips_triangle_free () =
  let g = Gen.hypercube 3 in
  let r = Kn.reduce g in
  check_bool "identity kernel" true (G.equal g (Kn.graph r));
  Alcotest.(check (pair int int)) "scans, skips" (0, 8) (scan_counters g)

let test_gate_non_min_degree_witness () =
  (* v = 8 with N(v) = {a = 9, b = 10, c = 11}, edges a-b and b-c but
     not a-c, hung off Q_3 so every degree is at least 3.  Only b
     passes (N[v] ⊆ N[b]), yet the gate walks the row of a, v's
     least-degree neighbor (degree 3 against 4 and 4), where b is the
     only stamped entry other than v.  Deleting b starts a cascade of
     folds that empties the graph. *)
  let g =
    q3_plus 12
      [ (8, 9); (8, 10); (8, 11); (9, 10); (10, 11); (9, 0); (10, 1);
        (11, 2); (11, 4) ]
  in
  let st = Kn.stats (Kn.reduce g) in
  Alcotest.(check (list int)) "stats"
    [ 12; 21; 0; 0; 0; 1; 4; 0; 2 ] (stats_list st)

let test_gate_simplicial_clique () =
  (* K_5 on 8..12 hanging off Q_3 by the edges 8-0 and 9-1: vertex 12
     reaches the scan at degree 4 and is taken as simplicial, which
     leaves Q_3 alone. *)
  let k5 =
    List.concat_map
      (fun i -> List.init (12 - i) (fun j -> (i, i + j + 1)))
      [ 8; 9; 10; 11 ]
  in
  let g = q3_plus 13 ((8, 0) :: (9, 1) :: k5) in
  let r = Kn.reduce g in
  Alcotest.(check (list int)) "stats"
    [ 13; 24; 8; 12; 0; 0; 0; 1; 0 ] (stats_list (Kn.stats r));
  check_bool "kernel is Q_3" true (G.equal (Gen.hypercube 3) (Kn.graph r));
  Alcotest.(check (pair int int)) "scans, skips" (1, 8) (scan_counters g)

(* ------------------------------------------------------------------ *)
(* Quadratic tier budget *)

(* kernel.quadratic_exhausted of one traced [reduce]. *)
let exhausted g =
  traced g (fun () -> Tm.counter_value "kernel.quadratic_exhausted")

(* Q_d plus [count] disjoint K_size on the ids after the cube's. *)
let cube_with_cliques d count size =
  let q = Gen.hypercube d in
  let n0 = G.n_vertices q in
  let k = Gen.disjoint_cliques count size in
  let shift = List.map (fun (u, v) -> (n0 + u, n0 + v)) (G.edges k) in
  G.of_edges (n0 + G.n_vertices k) (G.edges q @ shift)

let test_budget_spent_keeps_cliques () =
  (* Q_13 is triangle-free and 13-regular: each gate check walks v's
     row and its neighbor's, 26 entries, and removes nothing (213 k
     entries over all 8 192 vertices), so the budget is spent after
     about 2 500 checks, before the degree-14 bucket where the K_15
     centers wait.  The kernel keeps the cliques; the lift is still an
     independent, maximal set. *)
  let g = cube_with_cliques 13 20 15 in
  let r = Kn.reduce g in
  Alcotest.(check (list int)) "stats"
    [ 8492; 55348; 8492; 55348; 0; 0; 0; 0; 0 ] (stats_list (Kn.stats r));
  check "exhausted" 1 (exhausted g);
  let k = Kn.graph r in
  let l =
    Kn.lift r (Ps_maxis.Greedy.in_order k (Array.init (G.n_vertices k) Fun.id))
  in
  check_bool "independent" true (Is.is_independent g l);
  check_bool "maximal" true (Is.is_maximal g l);
  (* Controls: Q_8's checks stay under the allowance, and K_5 centers
     are popped at degree 4, before Q_13 spends it. *)
  List.iter
    (fun (name, g) ->
      check (name ^ ": simplicial") 20 (Kn.stats (Kn.reduce g)).Kn.simplicial;
      check (name ^ ": exhausted") 0 (exhausted g))
    [ ("Q_8 + 20 K_15", cube_with_cliques 8 20 15);
      ("Q_13 + 20 K_5", cube_with_cliques 13 20 5) ]

(* Kernels recorded before the tier had a budget, like [golden], with
   the last field kernel.quadratic_exhausted.  The first input is
   reduce-lambda's largest shape, on the seed in 1..30 where the tier
   removes most (15 dominated deletions) — all within its allowance;
   on the second the tier spends the budget and the kernel loses
   nothing. *)
let budget_pins =
  [ ("G_3 4-uniform m=1536",
     (fun () ->
       let h =
         Ps_hypergraph.Hgen.uniform_random (Rng.create 18) ~n:2048 ~m:1536
           ~k:4
       in
       (Ps_core.Conflict_graph.build h ~k:3).Ps_core.Conflict_graph.graph),
     0x2df25ae16746b4edL,
     [ 18432; 322200; 18417; 322023; 0; 0; 0; 0; 15 ],
     1528, 0xe8fc983156d0b241L, 0);
    ("gnp n=1e5 p=8e-5", (fun () -> Gen.huge_gnp (Rng.create 1) 100_000 8e-5),
     0xe3c32913580c10afL,
     [ 100000; 400200; 97312; 395587; 42; 283; 1040; 0; 0 ],
     27649, 0xa764cdc28dcdc7acL, 1) ]

let test_budget_same_kernel () =
  List.iter
    (fun (name, mk, hash, stats, lift_size, lift_hash, spent) ->
      check_pin (name, mk, hash, stats, lift_size, lift_hash);
      check (name ^ ": exhausted") spent (exhausted (mk ())))
    budget_pins

(* ------------------------------------------------------------------ *)
(* Direct CSR emit *)

(* A path with [chords] random short chords. *)
let path_with_chords seed n chords =
  let rng = Rng.create seed in
  let extra =
    List.init chords (fun _ ->
        let i = Rng.int rng (n - 3) in
        (i, min (n - 1) (i + 2 + Rng.int rng 20)))
  in
  G.of_edges n (G.edges (Gen.path n) @ extra)

(* [count] cliques K_size in a ring; consecutive cliques are linked by
   a [hops]-vertex path and by one direct edge. *)
let ring_of_cliques count size hops =
  let per = size + hops in
  let edges = ref [] in
  for c = 0 to count - 1 do
    let b = c * per and nb = (c + 1) mod count * per in
    for i = 0 to size - 1 do
      for j = i + 1 to size - 1 do
        edges := (b + i, b + j) :: !edges
      done
    done;
    let prev = ref b in
    for h = 0 to hops - 1 do
      edges := (!prev, b + size + h) :: !edges;
      prev := b + size + h
    done;
    edges := (!prev, nb + 1) :: (b + 2, nb + 3) :: !edges
  done;
  G.of_edges (count * per) !edges

let test_emit_fold_rows () =
  (* Folds append the merged vertex to its neighbors' rows and give it
     an unordered union row, so these kernels carry rows that leave the
     renumbering unsorted; the emitted CSR must still be canonical. *)
  List.iter
    (fun g ->
      let r = Kn.reduce g in
      let k = Kn.graph r in
      check_bool "folds fired" true ((Kn.stats r).Kn.folds > 0);
      check_bool "nonempty kernel" true (G.n_vertices k > 0);
      check_bool "exact store" true (G.csr_view k).G.v_exact;
      check_bool "certified CSR" true (Ps_check.Check_graph.csr_ok k);
      check_bool "canonical rows" true
        (G.equal k (G.of_edges (G.n_vertices k) (G.edges k))))
    [ path_with_chords 2 1000 300; path_with_chords 3 1000 500;
      ring_of_cliques 30 4 2; Gen.gnp (Rng.create 11) 3000 0.001 ]

(* ------------------------------------------------------------------ *)
(* Copy-on-write working graph *)

let rows_owned g = traced g (fun () -> Tm.counter_value "kernel.rows_owned")

(* The lift of the in-order greedy kernel answer: replays the whole
   journal. *)
let greedy_lift r =
  let k = Kn.graph r in
  Kn.lift r (Ps_maxis.Greedy.in_order k (Array.init (G.n_vertices k) Fun.id))

(* [g] re-adopted as an arena the way the incremental G_k engine
   holds it: offsets and store longer than their logical prefixes, the
   spare tails filled with junk.  Returns the graph and a check that the
   tails are still intact. *)
let arena_of g =
  let offsets, adj = G.to_csr g in
  let n = G.n_vertices g and total = Array.length adj in
  let off' = Array.make (n + 1 + 5) 999 in
  Array.blit offsets 0 off' 0 (n + 1);
  let adj' =
    Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout (total + 7)
  in
  Bigarray.Array1.fill adj' (-5l);
  Array.iteri (fun i x -> adj'.{i} <- Int32.of_int x) adj;
  let tails_intact () =
    let ok = ref true in
    for i = n + 1 to Array.length off' - 1 do
      if off'.(i) <> 999 then ok := false
    done;
    for i = total to total + 6 do
      if adj'.{i} <> -5l then ok := false
    done;
    !ok
  in
  (G.of_csr_prefix ~validate:true n ~offsets:off' ~adj:adj', tails_intact)

let test_reduce_leaves_input_untouched () =
  (* Folds and compactions rewrite rows; the copies they make must be
     the kernel's own, never the caller's store, on an exact CSR and on
     an arena with spare capacity. *)
  List.iter
    (fun g ->
      let arena, tails_intact = arena_of g in
      let ref_kernel = G.content_hash (Kn.graph (Kn.reduce g)) in
      List.iter
        (fun (name, h) ->
          let before = G.content_hash h in
          let r = Kn.reduce h in
          check_bool (name ^ ": rules fired") true
            ((Kn.stats r).Kn.kernel_vertices < G.n_vertices h);
          let l = greedy_lift r in
          check_bool (name ^ ": lift maximal") true (Is.is_maximal h l);
          Alcotest.(check int64) (name ^ ": input hash") before
            (G.content_hash h);
          Alcotest.(check int64) (name ^ ": same kernel") ref_kernel
            (G.content_hash (Kn.graph r)))
        [ ("exact", g); ("arena", arena) ];
      check_bool "arena tails intact" true (tails_intact ()))
    [ path_with_chords 2 1000 300; ring_of_cliques 30 4 2;
      Gen.gnp (Rng.create 11) 3000 0.001 ]

(* A spine path of [n] vertices, each carrying [legs] pendant leaves,
   plus [chords] short chords between spine vertices. *)
let caterpillar seed n legs chords =
  let rng = Rng.create seed in
  let leg v j = n + (v * legs) + j in
  let edges =
    List.init (n - 1) (fun v -> (v, v + 1))
    @ List.concat
        (List.init n (fun v -> List.init legs (fun j -> (v, leg v j))))
    @ List.init chords (fun _ ->
          let i = Rng.int rng (n - 3) in
          (i, i + 2 + Rng.int rng (min 10 (n - 3 - i))))
  in
  G.of_edges (n * (1 + legs)) edges

(* A cycle of [n] vertices with [chords] chords between random pairs. *)
let ring_with_chords seed n chords =
  let rng = Rng.create seed in
  let extra =
    List.init chords (fun _ ->
        let u = Rng.int rng n in
        (u, (u + 2 + Rng.int rng (n - 3)) mod n))
  in
  G.of_edges n (G.edges (Gen.ring n) @ extra)

let test_cow_fold_heavy () =
  (* Long folding cascades: merged rows are copied, then appended to
     and compacted again as their neighbors retire.  Plain paths and
     caterpillars go by pendants alone and copy next to nothing; their
     chorded versions leave kernels to certify. *)
  let inputs =
    [ ("long path", Gen.path 5000); ("long cycle", Gen.ring 4001);
      ("path+chords", path_with_chords 5 4000 900);
      ("cycle+chords", ring_with_chords 6 3000 400);
      ("caterpillar", caterpillar 7 600 1 0);
      ("caterpillar+chords", caterpillar 8 800 2 300) ]
  in
  check_bool "inputs that fold" true
    (List.length
       (List.filter (fun (_, g) -> (Kn.stats (Kn.reduce g)).Kn.folds > 0)
          inputs)
    >= 3);
  List.iter
    (fun (name, g) ->
      let r = Kn.reduce g in
      let st = Kn.stats r in
      (* A fold always copies: the merged row is new. *)
      if st.Kn.folds > 0 then
        check_bool (name ^ ": rows copied") true (rows_owned g > 0);
      check_bool (name ^ ": certified CSR") true
        (Ps_check.Check_graph.csr_ok (Kn.graph r));
      let l = greedy_lift r in
      check_bool (name ^ ": independent") true (Is.is_independent g l);
      check_bool (name ^ ": maximal") true (Is.is_maximal g l))
    inputs

let test_rows_owned_counter () =
  (* No rule fires on this conflict graph (golden "conflict 3"): the
     working graph reads every row in place and copies none. *)
  let g = conflict_graph 24 ~n:20 ~m:16 in
  check "identity kernel" (G.n_vertices g)
    (Kn.stats (Kn.reduce g)).Kn.kernel_vertices;
  check "no row copied" 0 (rows_owned g);
  check_bool "fold-heavy input copies rows" true
    (rows_owned (path_with_chords 2 1000 300) > 0)

let test_fold_links_counter () =
  (* v = 16 of degree 2 joins vertex 0 of one Q_3 (ids 0-7) to vertex 0
     of another (ids 8-15).  Both cubes are cubic and triangle-free, so
     the one rule that fires is the fold of v: its merged row is the
     three cube neighbors of each endpoint, six links, and it leaves a
     triangle-free kernel with nothing else to reduce. *)
  let q = G.edges (Gen.hypercube 3) in
  let g =
    G.of_edges 17
      ((16, 0) :: (16, 8) :: (q @ List.map (fun (a, b) -> (a + 8, b + 8)) q))
  in
  let r = Kn.reduce g in
  Alcotest.(check (list int)) "stats"
    [ 17; 26; 15; 24; 0; 0; 1; 0; 0 ] (stats_list (Kn.stats r));
  Alcotest.(check (pair int int)) "fold_links, rows_owned" (6, 1)
    (traced g (fun () ->
         (Tm.counter_value "kernel.fold_links",
          Tm.counter_value "kernel.rows_owned")));
  check_bool "lift maximal" true (Is.is_maximal g (greedy_lift r));
  (* No fold, no link. *)
  check "no fold" 0
    (traced (Gen.star 9) (fun () -> Tm.counter_value "kernel.fold_links"))

(* ------------------------------------------------------------------ *)
(* Lift contract *)

let test_lift_repairs_weak_kernel_answers () =
  (* ANY independent kernel set — even the empty one — must lift to an
     independent maximal set of the original graph. *)
  let rng = Rng.create 11 in
  List.iter
    (fun g ->
      let r = Kn.reduce g in
      let empty = B.create (G.n_vertices (Kn.graph r)) in
      let s = Kn.lift r empty in
      check_bool "independent" true (Is.is_independent g s);
      check_bool "maximal" true (Is.is_maximal g s))
    [ Gen.ring 11; Gen.grid 4 5; Gen.gnp rng 60 0.1; Gen.gnp rng 60 0.3;
      Gen.star 9; Gen.balanced_tree 2 3 ]

let test_lift_rejects_wrong_capacity () =
  let g = Gen.gnp (Rng.create 4) 40 0.2 in
  let r = Kn.reduce g in
  check_bool "capacity mismatch rejected" true
    (try
       ignore (Kn.lift r (B.create (G.n_vertices (Kn.graph r) + 1)));
       false
     with Invalid_argument _ -> true)

let test_vertex_addition_contract () =
  let g = Gen.grid 5 5 in
  let s = Is.of_list g [ 0 ] in
  let v = Kn.vertex_addition g s in
  check_bool "input unchanged" true (Is.size s = 1 && B.mem s 0);
  check_bool "never shrinks" true (B.subset s v);
  check_bool "independent" true (Is.is_independent g v);
  check_bool "maximal" true (Is.is_maximal g v);
  (* A maximal input comes back unchanged. *)
  let m = Is.make_maximal g (Is.empty g) in
  check_bool "fixed point on maximal" true (B.equal m (Kn.vertex_addition g m))

(* ------------------------------------------------------------------ *)
(* Presolve combinator *)

let test_presolve_naming_and_idempotence () =
  let s = Approx.greedy_min_degree in
  let w = Kn.apply `Kernel s in
  Alcotest.(check string)
    "prefix" "kernel+greedy-min-degree" w.Approx.name;
  check_bool "idempotent" true
    (String.equal (Kn.apply `Kernel w).Approx.name w.Approx.name);
  check_bool "none is identity" true
    (String.equal (Kn.apply `None s).Approx.name s.Approx.name);
  check_bool "portfolio already presolved" true
    (Kn.is_presolved Portfolio.solver);
  check_bool "portfolio not double-wrapped" true
    (String.equal (Kn.apply `Kernel Portfolio.solver).Approx.name "portfolio")

(* ------------------------------------------------------------------ *)
(* Clique removal + portfolio *)

let test_clique_removal_valid () =
  let rng = Rng.create 6 in
  List.iter
    (fun g ->
      let s = Ps_maxis.Clique_removal.run (Rng.create 0) g in
      check_bool "independent" true (Is.is_independent g s);
      check_bool "maximal" true (Is.is_maximal g s))
    [ Gen.ring 11; Gen.complete 8; Gen.grid 4 5; Gen.star 9;
      Gen.gnp rng 60 0.1; Gen.gnp rng 60 0.4; G.empty 7;
      Gen.disjoint_cliques 5 4 ]

let test_clique_removal_exact_on_cliques () =
  (* Dense pockets are carved out whole: exact on disjoint cliques. *)
  check "5 cliques" 5
    (Is.size (Ps_maxis.Clique_removal.run (Rng.create 0)
                (Gen.disjoint_cliques 5 4)))

let test_portfolio_certified_and_deterministic () =
  let g = Gen.gnp (Rng.create 8) 80 0.08 in
  let o1 = Portfolio.race (Rng.create 42) g in
  check_bool "independent" true (Is.is_independent g o1.Portfolio.set);
  check_bool "maximal" true (Is.is_maximal g o1.Portfolio.set);
  check "three entries" 3 (List.length o1.Portfolio.sizes);
  check_bool "winner sizes max" true
    (List.for_all
       (fun (_, sz) -> sz <= Is.size o1.Portfolio.set)
       o1.Portfolio.sizes);
  check_bool "kernel shrank" true
    (o1.Portfolio.kernel_stats.Kn.kernel_vertices
    < o1.Portfolio.kernel_stats.Kn.original_vertices);
  (* Same seed, any domain schedule: identical outcome. *)
  let o2 = Portfolio.race ~domains:1 (Rng.create 42) g in
  let o3 = Portfolio.race ~domains:2 (Rng.create 42) g in
  List.iter
    (fun (o : Portfolio.outcome) ->
      Alcotest.(check string) "same winner" o1.Portfolio.winner o.Portfolio.winner;
      check_bool "same set" true (B.equal o1.Portfolio.set o.Portfolio.set);
      Alcotest.(check (list (pair string int)))
        "same sizes" o1.Portfolio.sizes o.Portfolio.sizes)
    [ o2; o3 ]

let test_portfolio_cancellation () =
  let g = Gen.gnp (Rng.create 9) 60 0.1 in
  check_bool "canceled race raises" true
    (try
       ignore (Portfolio.race ~cancel:(fun () -> true) (Rng.create 0) g);
       false
     with Portfolio.Canceled -> true)

(* ------------------------------------------------------------------ *)
(* Properties *)

let arbitrary_gnp =
  QCheck.make
    ~print:(fun (seed, n, p) -> Printf.sprintf "seed=%d n=%d p=%d%%" seed n p)
    QCheck.Gen.(triple (int_bound 500) (int_range 1 60) (int_bound 40))

let graph_of (seed, n, p) =
  Gen.gnp (Rng.create seed) n (float_of_int p /. 100.0)

let prop_kernel_lift_valid_maximal =
  QCheck.Test.make ~count:120
    ~name:"kernel+lift: independent+maximal on the original graph"
    arbitrary_gnp (fun params ->
      let g = graph_of params in
      let rng = Rng.create (Hashtbl.hash params) in
      let s = (Kn.presolve Approx.greedy_min_degree).Approx.solve rng g in
      Is.is_independent g s && Is.is_maximal g s)

let prop_kernel_arena_layout_invariant =
  QCheck.Test.make ~count:60
    ~name:"kernel is arena-invariant; lift valid on relabeled layouts"
    arbitrary_gnp (fun params ->
      let g = graph_of params in
      let seed = Hashtbl.hash params in
      let lifted gg =
        (Kn.presolve Approx.greedy_min_degree).Approx.solve (Rng.create seed)
          gg
      in
      (* Same instance adopted as an arena with spare capacity:
         identical reduction, identical answer. *)
      let arena_ok = B.equal (lifted g) (lifted (fst (arena_of g))) in
      (* A random relabeling is a different instance (new ids) but the
         lift contract must hold there too. *)
      let n = G.n_vertices g in
      let perm = Rng.permutation (Rng.create (seed + 1)) n in
      let gs =
        G.of_edges n (List.map (fun (u, v) -> (perm.(u), perm.(v))) (G.edges g))
      in
      let s_relabeled = lifted gs in
      arena_ok
      && G.n_edges gs = G.n_edges g
      && Is.is_independent gs s_relabeled
      && Is.is_maximal gs s_relabeled)

let prop_path_cycle_roundtrip =
  QCheck.Test.make ~count:60 ~name:"folding solves paths and cycles exactly"
    QCheck.(make ~print:string_of_int Gen.(int_range 3 60))
    (fun n ->
      kernel_greedy_size (Gen.path n) = (n + 1) / 2
      && kernel_greedy_size (Gen.ring n) = n / 2)

let prop_kernel_alpha_preserving =
  (* On instances small enough for branch and bound: kernelized greedy
     never beats alpha, and the kernel's own alpha plus the journal's
     takes reaches alpha exactly. *)
  QCheck.Test.make ~count:40 ~name:"kernel preserves alpha"
    QCheck.(
      make
        ~print:(fun (s, n, p) -> Printf.sprintf "seed=%d n=%d p=%d%%" s n p)
        Gen.(triple (int_bound 500) (int_range 1 18) (int_bound 60)))
    (fun params ->
      let g = graph_of params in
      let alpha = Exact.independence_number g in
      let r = Kn.reduce g in
      let kernel_best = Exact.maximum (Kn.graph r) in
      let lifted = Kn.lift r kernel_best in
      Is.is_maximal g lifted && Is.size lifted = alpha)

let prop_vertex_addition_monotone_maximal =
  QCheck.Test.make ~count:120
    ~name:"vertex_addition: superset, independent, maximal" arbitrary_gnp
    (fun params ->
      let g = graph_of params in
      let rng = Rng.create (Hashtbl.hash params) in
      (* A random (possibly far from maximal) independent set. *)
      let s = B.create (G.n_vertices g) in
      Array.iter
        (fun v ->
          if Rng.bool rng && not (G.exists_neighbor g v (B.mem s)) then
            B.add s v)
        (Rng.permutation rng (G.n_vertices g));
      let v = Kn.vertex_addition g s in
      B.subset s v && Is.is_independent g v && Is.is_maximal g v)

let prop_portfolio_valid =
  QCheck.Test.make ~count:40 ~name:"portfolio: certified winner, max of lanes"
    arbitrary_gnp (fun params ->
      let g = graph_of params in
      let o = Portfolio.race (Rng.create (Hashtbl.hash params)) g in
      Is.is_independent g o.Portfolio.set
      && Is.is_maximal g o.Portfolio.set
      && List.for_all
           (fun (_, sz) -> sz <= Is.size o.Portfolio.set)
           o.Portfolio.sizes)

(* Differential oracle: the copy-on-write kernel the unboxed working
   state replaced, kept verbatim in [Ps_oracle.Kernel].  Inputs lean on
   the rules that rewrite rows — sparse G(n,p) at average degree
   1.5-8 folds heavily, chorded paths and cycles fold in long cascades,
   R-MAT peels pendants off hubs, and G_3 of a 4-uniform hypergraph
   runs the simplicial/domination tier — at three rule caps.  Over 3000
   draws, each family fires a rule on most inputs; G_3 does on about a
   quarter, and only those test anything beyond the identity kernel. *)
let oracle_input (family, seed, size, cap_i) =
  let rng = Rng.create seed in
  let g =
    match family with
    | 0 ->
        let n = 50 + (size * 20) in
        let avg = 1.5 +. (6.5 *. Rng.float rng 1.0) in
        Gen.huge_gnp rng n (avg /. float_of_int (n - 1))
    | 1 ->
        let scale = 5 + (size mod 7) in
        Gen.rmat rng ~scale ~edges:((2 + (size mod 5)) lsl scale)
    | 2 -> path_with_chords seed (20 + (size * 10)) (size * 3)
    | 3 -> ring_with_chords seed (20 + (size * 10)) (size * 2)
    | _ ->
        (* n from 4m/3 to 4m: the sparser hypergraphs give G_3 the
           low-degree vertices where the tier's rules fire. *)
        let m = 12 + size in
        let n = (4 + (size mod 9)) * m / 3 in
        let h = Ps_hypergraph.Hgen.uniform_random rng ~n ~m ~k:4 in
        (Ps_core.Conflict_graph.build h ~k:3).Ps_core.Conflict_graph.graph
  in
  (g, List.nth [ 2; 5; 16 ] cap_i)

let oracle_stats (st : Ps_oracle.Kernel.stats) =
  Ps_oracle.Kernel.
    [ st.original_vertices; st.original_edges; st.kernel_vertices;
      st.kernel_edges; st.isolated; st.pendants; st.folds; st.simplicial;
      st.dominated ]

let prop_kernel_matches_oracle =
  QCheck.Test.make ~count:150 ~name:"kernel = pre-rewrite oracle"
    QCheck.(
      make
        ~print:(fun (f, s, z, c) ->
          Printf.sprintf "family=%d seed=%d size=%d cap#%d" f s z c)
        Gen.(quad (int_bound 4) (int_bound 10_000) (int_bound 99)
               (int_bound 2)))
    (fun params ->
      let g, rule_cap = oracle_input params in
      let r = Kn.reduce ~rule_cap g in
      let o = Ps_oracle.Kernel.reduce ~rule_cap g in
      let k = Kn.graph r in
      let s = Ps_maxis.Greedy.in_order k (Array.init (G.n_vertices k) Fun.id) in
      G.content_hash k = G.content_hash o.Ps_oracle.Kernel.kernel
      && stats_list (Kn.stats r) = oracle_stats o.Ps_oracle.Kernel.stats
      && B.equal (Kn.lift r s) (Ps_oracle.Kernel.lift o s))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_kernel_lift_valid_maximal; prop_kernel_arena_layout_invariant;
      prop_path_cycle_roundtrip; prop_kernel_alpha_preserving;
      prop_vertex_addition_monotone_maximal; prop_portfolio_valid;
      prop_kernel_matches_oracle ]

let suites =
  [ ( "maxis.kernel",
      [ Alcotest.test_case "paths solved by rules" `Quick
          test_kernel_solves_paths;
        Alcotest.test_case "cycles solved by folding" `Quick
          test_kernel_solves_cycles;
        Alcotest.test_case "rule counters" `Quick test_kernel_rule_counters;
        Alcotest.test_case "disjoint cliques exact" `Quick
          test_kernel_disjoint_cliques_exact;
        Alcotest.test_case "stats shape" `Quick test_kernel_stats_shape;
        Alcotest.test_case "golden pins" `Quick test_golden_pins;
        Alcotest.test_case "gate skips triangle-free" `Quick
          test_gate_skips_triangle_free;
        Alcotest.test_case "gate witness off the min-degree neighbor" `Quick
          test_gate_non_min_degree_witness;
        Alcotest.test_case "gate admits a hanging clique" `Quick
          test_gate_simplicial_clique;
        Alcotest.test_case "spent budget keeps the cliques" `Quick
          test_budget_spent_keeps_cliques;
        Alcotest.test_case "budget keeps the kernel" `Quick
          test_budget_same_kernel;
        Alcotest.test_case "emit sorts fold rows" `Quick test_emit_fold_rows;
        Alcotest.test_case "reduce leaves its input untouched" `Quick
          test_reduce_leaves_input_untouched;
        Alcotest.test_case "fold-heavy copy-on-write" `Quick
          test_cow_fold_heavy;
        Alcotest.test_case "rows_owned counter" `Quick
          test_rows_owned_counter;
        Alcotest.test_case "fold_links counter" `Quick
          test_fold_links_counter;
        Alcotest.test_case "lift repairs weak answers" `Quick
          test_lift_repairs_weak_kernel_answers;
        Alcotest.test_case "lift rejects wrong capacity" `Quick
          test_lift_rejects_wrong_capacity;
        Alcotest.test_case "vertex_addition contract" `Quick
          test_vertex_addition_contract;
        Alcotest.test_case "presolve naming" `Quick
          test_presolve_naming_and_idempotence ] );
    ( "maxis.portfolio",
      [ Alcotest.test_case "clique removal valid" `Quick
          test_clique_removal_valid;
        Alcotest.test_case "clique removal exact on cliques" `Quick
          test_clique_removal_exact_on_cliques;
        Alcotest.test_case "certified + deterministic" `Quick
          test_portfolio_certified_and_deterministic;
        Alcotest.test_case "cancellation" `Quick test_portfolio_cancellation ]
    );
    ("maxis.kernel.properties", props) ]
