(* Tests for Ps_check, the deep invariant certifiers: unit cases pin
   each rule's trigger (one deliberately corrupted object per rule, with
   the position checked, not just "some diagnostic"), and qcheck
   round-trips establish the two directions that make a certifier
   trustworthy — real pipeline output always passes, and a mutation of
   real output always fails with the right rule. *)

module D = Ps_check.Diagnostic
module Cg = Ps_check.Check_graph
module Cs = Ps_check.Check_set
module Cc = Ps_check.Check_cfc
module Cp = Ps_check.Check_phase
module G = Ps_graph.Graph
module Gen = Ps_graph.Gen
module H = Ps_hypergraph.Hypergraph
module Hgen = Ps_hypergraph.Hgen
module Mc = Ps_cfc.Multicolor
module Is = Ps_maxis.Independent_set
module Bitset = Ps_util.Bitset
module Rng = Ps_util.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let assert_clean what ds =
  if ds <> [] then
    Alcotest.failf "%s: expected no diagnostics, got %s" what
      (String.concat "; " (List.map D.to_string ds))

let assert_rule what rule ds =
  if not (List.exists (fun d -> String.equal d.D.rule rule) ds) then
    Alcotest.failf "%s: expected a [%s] diagnostic, got %s" what rule
      (match ds with
      | [] -> "none"
      | ds -> String.concat "; " (List.map D.to_string ds))

(* ------------------------------------------------------------------ *)
(* Diagnostic *)

let test_diag_render () =
  let d = D.v "some-rule" (D.Graph_edge (2, 5)) "broken %d" 7 in
  check_string "render" "[some-rule] edge (2,5): broken 7" (D.to_string d);
  check_string "kind" "graph_edge" (D.where_kind d.D.where);
  check_int "indices" 2 (List.nth (D.where_indices d.D.where) 0);
  check_int "indices" 5 (List.nth (D.where_indices d.D.where) 1)

let test_diag_acc_bounded () =
  let acc = D.acc ~limit:3 () in
  for i = 1 to 100 do
    D.push acc (D.v "r" (D.Vertex i) "d%d" i)
  done;
  check_int "count includes suppressed" 100 (D.count acc);
  let ds = D.close acc in
  check_int "kept + summary" 4 (List.length ds);
  assert_rule "overflow summary" "diagnostic-limit" ds

(* ------------------------------------------------------------------ *)
(* Check_graph *)

let test_csr_valid_constructions () =
  assert_clean "empty" (Cg.csr (G.empty 0));
  assert_clean "ring" (Cg.csr (Gen.ring 7));
  assert_clean "complete" (Cg.csr (Gen.complete 5));
  assert_clean "gnp" (Cg.csr (Gen.gnp (Rng.create 11) 40 0.2));
  check_bool "csr_ok" true (Cg.csr_ok (Gen.grid 4 5))

let corrupt ~n ~offsets ~adj =
  G.of_csr ~validate:false n ~offsets ~adj:(Test_graph.i32 adj)

let test_csr_corruptions () =
  (* self-loop *)
  assert_rule "self-loop" "csr"
    (Cg.csr (corrupt ~n:1 ~offsets:[| 0; 2 |] ~adj:[| 0; 0 |]));
  (* a well-formed adoption is fine: 0->1 and 1->0 are both present *)
  assert_clean "single edge"
    (Cg.csr (corrupt ~n:2 ~offsets:[| 0; 1; 2 |] ~adj:[| 1; 0 |]))

let test_csr_corruptions_real () =
  (* non-monotone offsets *)
  assert_rule "non-monotone offsets" "csr"
    (Cg.csr (corrupt ~n:2 ~offsets:[| 0; 2; 2 |] ~adj:[| 1; 0 |]));
  (* neighbor out of range *)
  assert_rule "out of range" "csr"
    (Cg.csr (corrupt ~n:2 ~offsets:[| 0; 1; 2 |] ~adj:[| 5; 0 |]));
  (* unsorted row: 2,1 in vertex 0's row *)
  assert_rule "unsorted row" "csr"
    (Cg.csr
       (corrupt ~n:3
          ~offsets:[| 0; 2; 3; 4 |]
          ~adj:[| 2; 1; 0; 0 |]));
  (* asymmetric: 0->1 present, 1->0 absent (1 points at 2 instead) *)
  assert_rule "missing reverse arc" "csr"
    (Cg.csr
       (corrupt ~n:3
          ~offsets:[| 0; 1; 2; 3 |]
          ~adj:[| 1; 2; 1 |]))

(* ------------------------------------------------------------------ *)
(* Check_set *)

let path3 = Gen.path 3 (* edges 0-1, 1-2 *)

let bits n vs = Bitset.of_list n vs

let test_independent () =
  assert_clean "ends of a path" (Cs.independent path3 (bits 3 [ 0; 2 ]));
  let ds = Cs.independent path3 (bits 3 [ 0; 1 ]) in
  assert_rule "internal edge" "independent-set" ds;
  (match ds with
  | { D.where = D.Graph_edge (0, 1); _ } :: _ -> ()
  | _ -> Alcotest.fail "expected the (0,1) edge to be named");
  (* capacity mismatch is a Global diagnostic, not an exception *)
  assert_rule "capacity" "independent-set"
    (Cs.independent path3 (bits 7 [ 0 ]))

let test_maximal_independent () =
  assert_clean "maximal" (Cs.maximal_independent path3 (bits 3 [ 0; 2 ]));
  let ds = Cs.maximal_independent path3 (bits 3 [ 0 ]) in
  assert_rule "vertex 2 uncovered" "maximal-independent-set" ds;
  match ds with
  | [ { D.where = D.Vertex 2; _ } ] -> ()
  | _ -> Alcotest.fail "expected exactly vertex 2 to be named"

let test_dominating () =
  assert_clean "center dominates" (Cs.dominating path3 (bits 3 [ 1 ]));
  let ds = Cs.dominating path3 (bits 3 [ 0 ]) in
  assert_rule "vertex 2 undominated" "dominating-set" ds

let test_untrusted_lists () =
  assert_clean "ok list" (Cs.independent_list path3 [ 0; 2 ]);
  let ds = Cs.independent_list path3 [ 0; 99 ] in
  assert_rule "out-of-range id" "independent-set" ds;
  (* range errors short-circuit: no phantom edge diagnostics *)
  check_int "only the range error" 1 (List.length ds);
  assert_rule "dominating out-of-range" "dominating-set"
    (Cs.dominating_list path3 [ -1 ])

(* ------------------------------------------------------------------ *)
(* Check_cfc *)

let hg_pair = H.of_edges 3 [ [ 0; 1 ]; [ 1; 2 ] ]

let test_multicoloring_representation () =
  assert_clean "sound" (Cc.representation hg_pair [| [ 0 ]; []; [ 1 ] |]);
  assert_rule "wrong length" "multicoloring-rep"
    (Cc.representation hg_pair [| [ 0 ]; [] |]);
  assert_rule "negative color" "multicoloring-rep"
    (Cc.representation hg_pair [| [ -1 ]; []; [] |]);
  assert_rule "unsorted" "multicoloring-rep"
    (Cc.representation hg_pair [| [ 2; 1 ]; []; [] |]);
  assert_rule "duplicate" "multicoloring-rep"
    (Cc.representation hg_pair [| [ 1; 1 ]; []; [] |])

let test_multicoloring_semantics () =
  assert_clean "conflict-free"
    (Cc.multicoloring hg_pair [| [ 0 ]; []; [ 0 ] |]);
  check_bool "conflict_free" true
    (Cc.conflict_free hg_pair [| [ 0 ]; []; [ 0 ] |]);
  (* edge {0,1}: both members hold only color 0 — no unique pair *)
  let ds = Cc.multicoloring hg_pair [| [ 0 ]; [ 0 ]; [ 1 ] |] in
  assert_rule "collision" "conflict-free" ds;
  (match ds with
  | { D.where = D.Edge 0; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected edge 0 to be named");
  (* blank coloring: every edge unhappy *)
  let ds = Cc.multicoloring hg_pair [| []; []; [] |] in
  check_int "both edges reported" 2 (List.length ds)

(* ------------------------------------------------------------------ *)
(* Check_phase *)

(* A consistent two-phase run: 10 edges, |I^0|=5 with λ=2, then the
   5 survivors all retired by a 5-triple phase with λ=1. *)
let good_phases =
  [ { Cp.index = 0; edges_before = 10; is_size = 5; newly_happy = 5;
      lambda_effective = 2.0 };
    { Cp.index = 1; edges_before = 5; is_size = 5; newly_happy = 5;
      lambda_effective = 1.0 } ]

let test_phase_audit_valid () =
  assert_clean "good run"
    (Cp.audit ~m:10 ~k:2 ~colors_used:4 ~total_phases:2 good_phases)

let with_phase0 f =
  match good_phases with p0 :: rest -> f p0 :: rest | [] -> assert false

let test_phase_audit_mutations () =
  assert_rule "lemma 2.1 violated" "phase-happiness"
    (Cp.happiness (with_phase0 (fun p -> { p with Cp.newly_happy = 4 })));
  assert_rule "lambda fudged" "phase-lambda"
    (Cp.lambda (with_phase0 (fun p -> { p with Cp.lambda_effective = 1.5 })));
  assert_rule "bookkeeping broken" "phase-decay"
    (Cp.decay (with_phase0 (fun p -> { p with Cp.newly_happy = 6 })));
  assert_rule "index gap" "phase-decay"
    (Cp.decay
       (with_phase0 (fun p -> { p with Cp.index = 3 })));
  assert_rule "edges left over" "phase-termination"
    (Cp.termination
       [ { Cp.index = 0; edges_before = 10; is_size = 4; newly_happy = 4;
           lambda_effective = 2.5 } ]);
  (* ρ = λmax·ln m + 1 = 1·ln 10 + 1 ≈ 3.3 < 5 claimed phases *)
  assert_rule "too many phases" "rho-bound"
    (Cp.rho_bound ~m:10 ~total_phases:5
       [ { Cp.index = 0; edges_before = 10; is_size = 10; newly_happy = 10;
           lambda_effective = 1.0 } ]);
  assert_rule "palette overdrawn" "color-budget"
    (Cp.color_budget ~k:2 ~total_phases:2 ~colors_used:5);
  assert_rule "record count mismatch" "phase-bookkeeping"
    (Cp.audit ~m:10 ~k:2 ~colors_used:4 ~total_phases:3 good_phases);
  assert_rule "first phase must see all of E" "phase-bookkeeping"
    (Cp.audit ~m:11 ~k:2 ~colors_used:4 ~total_phases:2 good_phases)

(* ------------------------------------------------------------------ *)
(* End-to-end: Certify.diagnostics on real runs *)

let solve params =
  let seed, n, m, k = params in
  let h =
    Hgen.almost_uniform_random (Rng.create seed) ~n ~m ~k:(min k n) ~eps:1.0
  in
  ( h,
    Ps_core.Pipeline.solve_unchecked ~seed ~solver:Ps_maxis.Approx.greedy_min_degree h )

let test_audit_accepts_pipeline_output () =
  let _, r = solve (7, 20, 15, 3) in
  assert_clean "pipeline output certifies"
    (Ps_core.Certify.diagnostics r.Ps_core.Pipeline.reduction)

let test_audit_rejects_blanked_coloring () =
  let h, r = solve (7, 20, 15, 3) in
  let run = r.Ps_core.Pipeline.reduction in
  let blank = Array.map (fun _ -> []) run.Ps_core.Reduction.multicoloring in
  let ds =
    Ps_check.Audit.reduction ~h ~k:run.Ps_core.Reduction.k
      ~multicoloring:blank
      ~colors_used:run.Ps_core.Reduction.colors_used
      ~total_phases:run.Ps_core.Reduction.total_phases
      ~phases:(Ps_core.Certify.phases_for_check run)
  in
  assert_rule "blanked coloring rejected" "conflict-free" ds;
  check_bool "not ok" false (Ps_check.Audit.ok ds)

(* ------------------------------------------------------------------ *)
(* qcheck round-trips *)

let arbitrary_hg =
  QCheck.make
    ~print:(fun (seed, n, m, k) ->
      Printf.sprintf "hg seed=%d n=%d m=%d k=%d" seed n m k)
    QCheck.Gen.(
      quad (int_bound 1000) (int_range 3 24) (int_range 1 18) (int_range 1 4))

let prop_pipeline_always_certifies =
  QCheck.Test.make ~count:75 ~name:"audit accepts every pipeline run"
    arbitrary_hg (fun params ->
      let _, r = solve params in
      Ps_check.Audit.ok
        (Ps_core.Certify.diagnostics r.Ps_core.Pipeline.reduction))

let prop_blanked_vertex_is_caught =
  QCheck.Test.make ~count:75
    ~name:"blanking every color is always rejected as conflict-free"
    arbitrary_hg (fun params ->
      let h, r = solve params in
      if H.n_edges h = 0 then true
      else begin
        let run = r.Ps_core.Pipeline.reduction in
        let blank =
          Array.map (fun _ -> []) run.Ps_core.Reduction.multicoloring
        in
        let ds = Cc.multicoloring h blank in
        List.exists (fun d -> String.equal d.D.rule "conflict-free") ds
      end)

let arbitrary_graph =
  QCheck.make
    ~print:(fun (seed, n, p10) -> Printf.sprintf "g seed=%d n=%d p=%d%%" seed n p10)
    QCheck.Gen.(triple (int_bound 1000) (int_range 1 40) (int_range 0 10))

let prop_greedy_mis_certifies =
  QCheck.Test.make ~count:100
    ~name:"greedy MIS always passes the maximal-independent-set certifier"
    arbitrary_graph (fun (seed, n, p10) ->
      let g = Gen.gnp (Rng.create seed) n (float_of_int p10 /. 10.) in
      let is = Ps_maxis.Greedy.min_degree g in
      Cg.csr_ok g
      && Cs.maximal_independent g is = [])

let prop_mutated_is_is_caught =
  QCheck.Test.make ~count:100
    ~name:"adding a covered vertex to an MIS is always caught"
    arbitrary_graph (fun (seed, n, p10) ->
      let g = Gen.gnp (Rng.create seed) n (float_of_int p10 /. 10.) in
      let is = Ps_maxis.Greedy.min_degree g in
      (* find a vertex outside the set; adding it breaks independence
         (it has a selected neighbor — that is what maximality means) *)
      match
        List.find_opt (fun v -> not (Bitset.mem is v)) (G.vertices g)
      with
      | None -> true (* the whole graph is independent: nothing to mutate *)
      | Some v ->
          let bad = Bitset.copy is in
          Bitset.add bad v;
          List.exists
            (fun d -> String.equal d.D.rule "independent-set")
            (Cs.independent g bad))

(* ------------------------------------------------------------------ *)

let qcheck_suites =
  List.map QCheck_alcotest.to_alcotest
    [ prop_pipeline_always_certifies; prop_blanked_vertex_is_caught;
      prop_greedy_mis_certifies; prop_mutated_is_is_caught ]

let suites =
  [ ( "check.diagnostic",
      [ Alcotest.test_case "render" `Quick test_diag_render;
        Alcotest.test_case "bounded accumulator" `Quick
          test_diag_acc_bounded ] );
    ( "check.graph",
      [ Alcotest.test_case "valid constructions" `Quick
          test_csr_valid_constructions;
        Alcotest.test_case "loop and symmetry" `Quick test_csr_corruptions;
        Alcotest.test_case "corruptions" `Quick test_csr_corruptions_real ] );
    ( "check.set",
      [ Alcotest.test_case "independent" `Quick test_independent;
        Alcotest.test_case "maximal independent" `Quick
          test_maximal_independent;
        Alcotest.test_case "dominating" `Quick test_dominating;
        Alcotest.test_case "untrusted lists" `Quick test_untrusted_lists ] );
    ( "check.cfc",
      [ Alcotest.test_case "representation" `Quick
          test_multicoloring_representation;
        Alcotest.test_case "semantics" `Quick test_multicoloring_semantics ] );
    ( "check.phase",
      [ Alcotest.test_case "valid audit" `Quick test_phase_audit_valid;
        Alcotest.test_case "mutations" `Quick test_phase_audit_mutations ] );
    ( "check.audit",
      [ Alcotest.test_case "accepts pipeline output" `Quick
          test_audit_accepts_pipeline_output;
        Alcotest.test_case "rejects blanked coloring" `Quick
          test_audit_rejects_blanked_coloring ] );
    ("check.qcheck", qcheck_suites) ]
