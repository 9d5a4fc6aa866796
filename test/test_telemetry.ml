(* Tests for Ps_util.Telemetry: the disabled path records nothing, the
   enabled path's phase spans agree field-by-field with the
   phase_records the reduction returns (pinned against the
   sunflower_12 regression in test_core.ml).

   The recorder is global mutable state shared with every other suite
   running in this binary, so each test brackets itself with
   reset/set_enabled and restores the disabled state on exit. *)

module Tm = Ps_util.Telemetry
module Red = Ps_core.Reduction
module Approx = Ps_maxis.Approx

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_recorder ~enabled f =
  let was = Tm.enabled () in
  Tm.reset ();
  Tm.set_enabled enabled;
  Fun.protect
    ~finally:(fun () ->
      Tm.set_enabled was;
      Tm.reset ())
    f

let int_field sp name =
  match Tm.field sp name with
  | Some (Tm.Int i) -> i
  | _ -> Alcotest.failf "span %s: missing int field %s" sp.Tm.span_name name

let float_field sp name =
  match Tm.field sp name with
  | Some (Tm.Float f) -> f
  | _ -> Alcotest.failf "span %s: missing float field %s" sp.Tm.span_name name

(* ------------------------------------------------------------------ *)
(* Disabled path *)

let test_disabled_records_nothing () =
  with_recorder ~enabled:false @@ fun () ->
  let r = Tm.with_span "outer" (fun () -> Tm.incr "c"; Tm.set_int "f" 1; 42) in
  check "with_span transparent" 42 r;
  Tm.count "c" 10;
  Tm.gauge "g" 3.0;
  Tm.gauge_max "g" 9.0;
  check "no spans" 0 (List.length (Tm.root_spans ()));
  check "no counter" 0 (Tm.counter_value "c");
  check_bool "no gauge" true (Tm.gauge_value "g" = None);
  Alcotest.(check string) "empty trace" "" (Tm.to_json_lines ())

(* ------------------------------------------------------------------ *)
(* Recording basics *)

let test_span_nesting_and_fields () =
  with_recorder ~enabled:true @@ fun () ->
  Tm.with_span "outer" (fun () ->
      Tm.set_int "a" 1;
      Tm.set_int "a" 2;  (* later write shadows *)
      Tm.with_span "inner" (fun () -> Tm.set_str "who" "x"));
  match Tm.root_spans () with
  | [ outer ] ->
      Alcotest.(check string) "name" "outer" outer.Tm.span_name;
      check "shadowed field" 2 (int_field outer "a");
      check "one child" 1 (List.length outer.Tm.children);
      check_bool "duration nonnegative" true (Tm.duration_ns outer >= 0L);
      check "find_spans inner" 1 (List.length (Tm.find_spans "inner"))
  | l -> Alcotest.failf "expected one root span, got %d" (List.length l)

let test_span_closed_on_raise () =
  with_recorder ~enabled:true @@ fun () ->
  (try Tm.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  check "span recorded" 1 (List.length (Tm.find_spans "boom"));
  (* the stack unwound: the next span is a root, not a child of boom *)
  Tm.with_span "after" (fun () -> ());
  check "both roots" 2 (List.length (Tm.root_spans ()))

let test_counters_and_gauges () =
  with_recorder ~enabled:true @@ fun () ->
  Tm.incr "c";
  Tm.count "c" 4;
  check "counter" 5 (Tm.counter_value "c");
  Tm.gauge "g" 2.0;
  Tm.gauge_max "g" 7.0;
  Tm.gauge_max "g" 3.0;
  check_bool "gauge max" true (Tm.gauge_value "g" = Some 7.0)

let test_json_lines_parse_shape () =
  with_recorder ~enabled:true @@ fun () ->
  Tm.with_span "s" (fun () -> Tm.set_float "lambda" infinity);
  Tm.incr "c";
  let lines =
    Tm.to_json_lines () |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check "two lines" 2 (List.length lines);
  List.iter
    (fun l ->
      check_bool "object per line" true
        (String.length l >= 2
        && l.[0] = '{'
        && l.[String.length l - 1] = '}');
      (* the non-finite float must not leak as a bare JSON token *)
      check_bool "no bare inf" true
        (not (String.length l > 4 && String.sub l 0 4 = "inf")))
    lines

(* ------------------------------------------------------------------ *)
(* Enabled path agrees with the reduction's own phase records *)

let test_reduction_phase_spans_match_records () =
  with_recorder ~enabled:true @@ fun () ->
  let h = Ps_hypergraph.Hio.read_file "../data/sunflower_12.hg" in
  let r = Red.run ~seed:0 ~solver:Approx.greedy_min_degree ~k:2 h in
  (* one span per phase, in order *)
  let phase_spans = Tm.find_spans "phase" in
  check "one span per phase" r.Red.total_phases (List.length phase_spans);
  List.iteri
    (fun i (sp, (p : Red.phase_record)) ->
      check (Printf.sprintf "phase %d index" i) p.Red.phase
        (int_field sp "phase");
      check "edges_before" p.Red.edges_before (int_field sp "edges_before");
      check "conflict_vertices" p.Red.conflict_vertices
        (int_field sp "conflict_vertices");
      check "conflict_edges" p.Red.conflict_edges
        (int_field sp "conflict_edges");
      check "is_size" p.Red.is_size (int_field sp "is_size");
      check "newly_happy" p.Red.newly_happy (int_field sp "newly_happy");
      Alcotest.(check (float 1e-9))
        "lambda_effective" p.Red.lambda_effective
        (float_field sp "lambda_effective"))
    (List.combine phase_spans r.Red.phases);
  (* enclosing run span and global counters agree too *)
  (match Tm.find_spans "reduction.run" with
  | [ run ] ->
      check "total_phases field" r.Red.total_phases
        (int_field run "total_phases");
      check "colors_used field" r.Red.colors_used
        (int_field run "colors_used")
  | l -> Alcotest.failf "expected one reduction.run span, got %d"
           (List.length l));
  check "phases counter" r.Red.total_phases
    (Tm.counter_value "reduction.phases");
  check "edges_retired counter" 12 (Tm.counter_value "reduction.edges_retired");
  (* the sunflower regression numbers themselves, via telemetry *)
  match phase_spans with
  | [ sp ] ->
      check "edges_before = 12" 12 (int_field sp "edges_before");
      check "conflict_vertices = 144" 144 (int_field sp "conflict_vertices");
      check "conflict_edges = 4356" 4356 (int_field sp "conflict_edges");
      check "is_size = 12" 12 (int_field sp "is_size")
  | _ -> Alcotest.fail "sunflower greedy run should be a single phase"

(* [Gio.read_file] is one [gio.read] span carrying the input's size
   and the domain count it used; a 120-byte file stays on one domain
   under auto, and an explicit request is what the field reports. *)
let test_gio_read_span () =
  let path = Filename.temp_file "pslocal" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let text = "6 5\n0 1\n1 2\n2 3\n3 4\n4 5\n" in
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      with_recorder ~enabled:true (fun () ->
          List.iter
            (fun (domains, want) ->
              Tm.reset ();
              ignore (Ps_graph.Gio.read_file ~domains path);
              match Tm.find_spans "gio.read" with
              | [ sp ] ->
                  check "gio.bytes" (String.length text)
                    (int_field sp "gio.bytes");
                  check "gio.domains_effective" want
                    (int_field sp "gio.domains_effective")
              | l -> Alcotest.failf "expected one gio.read span, got %d"
                       (List.length l))
            [ (0, 1); (2, 2) ]))

let suites =
  [ ( "util.telemetry",
      [ Alcotest.test_case "disabled records nothing" `Quick
          test_disabled_records_nothing;
        Alcotest.test_case "span nesting and fields" `Quick
          test_span_nesting_and_fields;
        Alcotest.test_case "span closed on raise" `Quick
          test_span_closed_on_raise;
        Alcotest.test_case "counters and gauges" `Quick
          test_counters_and_gauges;
        Alcotest.test_case "json lines shape" `Quick
          test_json_lines_parse_shape;
        Alcotest.test_case "phase spans match phase records" `Quick
          test_reduction_phase_spans_match_records;
        Alcotest.test_case "gio.read span" `Quick test_gio_read_span ] ) ]
