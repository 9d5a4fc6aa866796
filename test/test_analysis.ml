(* Golden tests for the interprocedural effect analyzer.

   The fixtures live in analysis_corpus/ — a tiny dune library compiled
   only so its .cmt typedtrees exist.  Each *_unguarded module stages
   exactly one violation (race, blocking, escape) and each *_guarded
   module the corresponding repaired or annotated shape, so the
   expectations below are exact: one finding per seeded module, with
   the staged call chain, and silence on every repaired one.

   The suppression scanner gets direct unit tests here too, since its
   multi-line-comment behaviour is what the in-tree annotations rely
   on. *)

module Cg = Ps_analysis.Callgraph
module Ef = Ps_analysis.Effects
module Rp = Ps_analysis.Report
module Sup = Ps_analysis.Suppress

let corpus_cmt_dir = "analysis_corpus"

let graph = lazy (Cg.build ~cmt_dirs:[ corpus_cmt_dir ])

let findings = lazy (Ef.run (Lazy.force graph) ~enabled:(fun _ -> true))

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let in_file name (f : Rp.finding) = Filename.basename f.Rp.f_pos.file = name

let file_findings name = List.filter (in_file name) (Lazy.force findings)

let chain_mentions (f : Rp.finding) needle =
  List.exists (fun (s : Rp.step) -> contains ~needle s.Rp.s_name) f.Rp.chain

let check_rules name expected =
  Alcotest.(check (list string))
    (name ^ " rules") expected
    (List.map (fun (f : Rp.finding) -> f.Rp.rule) (file_findings name))

(* ------------------------------------------------------------------ *)
(* Effect rules over the corpus *)

let test_corpus_compiled () =
  (* If the cmt dir moved, every golden test below would pass
     vacuously; fail loudly instead. *)
  Alcotest.(check bool)
    "corpus cmt dir exists" true
    (Sys.file_exists corpus_cmt_dir && Sys.is_directory corpus_cmt_dir);
  Alcotest.(check bool)
    "corpus produced findings" true
    (Lazy.force findings <> [])

let test_race_seeded () =
  check_rules "race_unguarded.ml" [ "race" ];
  match file_findings "race_unguarded.ml" with
  | [ f ] ->
      Alcotest.(check bool)
        "names the shared ref" true
        (contains ~needle:"total" f.Rp.message);
      Alcotest.(check bool)
        "chain roots at the spawn" true
        (chain_mentions f "Domain.spawn");
      Alcotest.(check bool)
        "chain reaches the writer" true (chain_mentions f "bump")
  | _ -> Alcotest.fail "expected exactly one race finding"

let test_race_repaired_silent () = check_rules "race_guarded.ml" []

let test_blocking_seeded () =
  check_rules "block_unguarded.ml" [ "blocking" ];
  match file_findings "block_unguarded.ml" with
  | [ f ] ->
      Alcotest.(check bool)
        "names the primitive" true
        (contains ~needle:"input_line" f.Rp.message);
      Alcotest.(check bool)
        "chain roots at the annotated pump" true (chain_mentions f "pump");
      Alcotest.(check bool)
        "chain reaches the helper" true (chain_mentions f "parse")
  | _ -> Alcotest.fail "expected exactly one blocking finding"

let test_blocking_repaired_silent () = check_rules "block_guarded.ml" []

let test_escape_seeded () =
  check_rules "escape_unguarded.ml" [ "escape" ];
  match file_findings "escape_unguarded.ml" with
  | [ f ] ->
      Alcotest.(check bool)
        "names the exception" true
        (contains ~needle:"Failure" f.Rp.message);
      Alcotest.(check bool)
        "chain roots at the thread entry" true
        (chain_mentions f "Thread.create");
      Alcotest.(check bool)
        "chain reaches the raiser" true (chain_mentions f "parse")
  | _ -> Alcotest.fail "expected exactly one escape finding"

let test_escape_repaired_silent () = check_rules "escape_guarded.ml" []

(* The CI self-checks run pslint with --disable RULE and expect the
   seeded probe to go quiet; this is the library half of that switch. *)
let test_disable_switch () =
  let g = Lazy.force graph in
  let without rule = Ef.run g ~enabled:(fun r -> r <> rule) in
  let rules fs = List.sort_uniq String.compare (List.map (fun (f : Rp.finding) -> f.Rp.rule) fs) in
  Alcotest.(check (list string))
    "race disabled" [ "blocking"; "escape" ]
    (rules (without Ef.Race));
  Alcotest.(check (list string))
    "blocking disabled" [ "escape"; "race" ]
    (rules (without Ef.Blocking));
  Alcotest.(check (list string))
    "escape disabled" [ "blocking"; "race" ]
    (rules (without Ef.Escape));
  Alcotest.(check (list string))
    "all disabled" []
    (rules (Ef.run g ~enabled:(fun _ -> false)))

(* ------------------------------------------------------------------ *)
(* Suppression scanner *)

let test_suppress_single_line () =
  let t = Sup.scan "let a = 1 (* pslint: allow race *)\nlet b = 2\n" in
  Alcotest.(check bool)
    "on the comment line" true
    (Sup.suppressed t ~rule:"race" ~line:1);
  Alcotest.(check bool)
    "on the following line" true
    (Sup.suppressed t ~rule:"race" ~line:2);
  Alcotest.(check bool)
    "not two lines later" false
    (Sup.suppressed t ~rule:"race" ~line:3);
  Alcotest.(check bool)
    "not another rule" false
    (Sup.suppressed t ~rule:"blocking" ~line:1)

let test_suppress_multi_line_comment () =
  (* The marker on the last line of a spanning comment must cover the
     whole span plus the next line — the shape in-tree annotations such
     as telemetry.ml's first one use. *)
  let t =
    Sup.scan
      "let a = 1\n\
       (* parked between batches is the idle state:\n\
      \   pslint: allow blocking *)\n\
       let b = 2\n\
       let c = 3\n"
  in
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "line %d covered" line)
        true
        (Sup.suppressed t ~rule:"blocking" ~line))
    [ 2; 3; 4 ];
  Alcotest.(check bool)
    "line after the covered span" false
    (Sup.suppressed t ~rule:"blocking" ~line:5)

let test_suppress_stops_at_prose () =
  (* Rule names stop at the first non-[a-z0-9-] char, so trailing prose
     after a dash is not swallowed as rule names. *)
  let t =
    Sup.scan "(* pslint: allow blocking \xe2\x80\x94 the audited case *)\nx\n"
  in
  Alcotest.(check bool)
    "rule before the dash" true
    (Sup.suppressed t ~rule:"blocking" ~line:1);
  Alcotest.(check bool)
    "prose after the dash is not a rule" false
    (Sup.suppressed t ~rule:"the" ~line:1)

let test_suppress_allow_file () =
  let t = Sup.scan "(* pslint: allow-file global-state *)\nlet x = ref 0\n" in
  Alcotest.(check bool)
    "any line" true
    (Sup.suppressed t ~rule:"global-state" ~line:42);
  Alcotest.(check bool)
    "other rules untouched" false
    (Sup.suppressed t ~rule:"race" ~line:42)

let test_suppress_ignores_strings () =
  (* The scanner lexes real comments: a marker inside a string literal
     must not register. *)
  let t = Sup.scan "let s = \"(* pslint: allow race *)\"\nlet z = 0\n" in
  Alcotest.(check bool)
    "marker inside a string literal" false
    (Sup.suppressed t ~rule:"race" ~line:1)

(* [build] scans a build tree that a relink beside it may be changing:
   an entry that dangles or vanishes between the directory listing and
   the stat is skipped, and the .cmt files next to it are still read. *)
let test_build_skips_dangling_entries () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ps_callgraph_test_%d" (Unix.getpid ()))
  in
  let clean () =
    match Sys.readdir dir with
    | entries ->
        Array.iter (fun e -> Unix.unlink (Filename.concat dir e)) entries;
        Unix.rmdir dir
    | exception Sys_error _ -> ()
  in
  clean ();
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:clean @@ fun () ->
  let at name = Filename.concat dir name in
  Unix.symlink (at "missing") (at "gone.cmt");
  Unix.symlink (at "missing_dir") (at "gone_dir");
  Unix.symlink
    (Filename.concat (Sys.getcwd ())
       (Filename.concat corpus_cmt_dir
          ".ps_analysis_corpus.objs/byte/ps_analysis_corpus__Race_unguarded.cmt"))
    (at "live.cmt");
  let g = Cg.build ~cmt_dirs:[ dir ] in
  Alcotest.(check bool)
    "the live .cmt beside the dangling links is read" true
    (Hashtbl.length g.Cg.nodes > 0)

let suites =
  [ ( "analysis.callgraph",
      [ Alcotest.test_case "build skips dangling entries" `Quick
          test_build_skips_dangling_entries ] );
    ( "analysis.effects",
      [ Alcotest.test_case "corpus compiled" `Quick test_corpus_compiled;
        Alcotest.test_case "race seeded" `Quick test_race_seeded;
        Alcotest.test_case "race repaired silent" `Quick
          test_race_repaired_silent;
        Alcotest.test_case "blocking seeded" `Quick test_blocking_seeded;
        Alcotest.test_case "blocking repaired silent" `Quick
          test_blocking_repaired_silent;
        Alcotest.test_case "escape seeded" `Quick test_escape_seeded;
        Alcotest.test_case "escape repaired silent" `Quick
          test_escape_repaired_silent;
        Alcotest.test_case "disable switch" `Quick test_disable_switch ] );
    ( "analysis.suppress",
      [ Alcotest.test_case "single line" `Quick test_suppress_single_line;
        Alcotest.test_case "multi-line comment" `Quick
          test_suppress_multi_line_comment;
        Alcotest.test_case "stops at prose" `Quick test_suppress_stops_at_prose;
        Alcotest.test_case "allow-file" `Quick test_suppress_allow_file;
        Alcotest.test_case "ignores strings" `Quick
          test_suppress_ignores_strings ] ) ]
