(* pslocal — command-line front end.

   Subcommands:
     gen-graph       generate a graph (edge-list format on stdout or file)
     gen-hypergraph  generate a hypergraph
     reduce          run the Theorem 1.1 reduction on a hypergraph
     verify          check a multicoloring file against a hypergraph
     mis             run the MIS algorithm zoo on a graph
     decompose       ball-carving network decomposition of a graph
     serve           long-running solve service (JSON line protocol)
     cache           inspect / clear a persistent solved-instance cache *)

open Cmdliner

module H = Ps_hypergraph.Hypergraph
module G = Ps_graph.Graph
module Mc = Ps_cfc.Multicolor

(* ------------------------------------------------------------------ *)
(* Shared arguments *)

let seed_arg =
  let doc = "Random seed (all randomness in pslocal is seeded)." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let output_arg =
  let doc = "Output file (stdout when omitted)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Record a telemetry trace (spans, counters, gauges) and dump it as \
     JSON lines to $(docv) after the run ($(b,-) for stdout).  Implies \
     what setting $(b,PSLOCAL_TRACE) does: the instrumented code paths \
     start recording."
  in
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc)

(* Run [f] with telemetry per the [--trace] flag, dumping afterwards.
   The flag enables recording; PSLOCAL_TRACE alone also records, but
   only --trace dumps the result anywhere. *)
let with_trace trace f =
  (match trace with Some _ -> Ps_util.Telemetry.set_enabled true | None -> ());
  let result = f () in
  (match trace with
  | None -> ()
  | Some "-" -> print_string (Ps_util.Telemetry.to_json_lines ())
  | Some path ->
      Ps_util.Telemetry.write_file path;
      Logs.app (fun m -> m "telemetry trace written to %s" path));
  result

let json_arg =
  let doc =
    "Emit the result as one JSON line in the solve server's response \
     schema (see $(b,pslocal serve)) instead of human-readable tables."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

(* --cache[=DIR] / --no-cache, shared by the solve commands and serve.
   [--cache] alone enables the in-memory tiers; [--cache=DIR] adds the
   persistent tier (which is what makes one-shot invocations warm). *)
let cache_arg =
  let doc =
    "Enable the solved-instance cache.  With $(docv), entries also \
     persist under that directory (created on first store), so repeated \
     invocations over the same instance are served from disk.  One-shot \
     commands default to no cache unless $(b,PSLOCAL_CACHE_DIR) is set; \
     $(b,serve) caches in memory by default."
  in
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "cache" ] ~docv:"DIR" ~doc)

let no_cache_arg =
  let doc =
    "Disable the solved-instance cache (overrides $(b,--cache) and \
     $(b,PSLOCAL_CACHE_DIR))."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let cache_env_dir () =
  match Sys.getenv_opt "PSLOCAL_CACHE_DIR" with
  | Some d when d <> "" -> Some d
  | _ -> None

let make_cache dir =
  Ps_cache.Cache.create
    ~config:{ Ps_cache.Cache.default_config with dir }
    ()

(* One-shot commands: cache off unless --cache[=DIR] is given or
   PSLOCAL_CACHE_DIR is set; --no-cache always wins. *)
let oneshot_cache ~cache ~no_cache =
  if no_cache then None
  else
    match cache with
    | Some "" -> Some (make_cache None)
    | Some d -> Some (make_cache (Some d))
    | None -> (
        match cache_env_dir () with
        | Some d -> Some (make_cache (Some d))
        | None -> None)

(* One-shot commands share the server's encoders, so `pslocal X --json`
   and the served method X produce byte-identical result objects. *)
let print_json_result result =
  print_endline
    (Ps_server.Protocol.response_to_line
       (Ps_server.Protocol.ok_response ~id:Ps_server.Json.Null result))

let write_out output text =
  match output with
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc text)

(* A malformed input file is the user's error, not the program's:
   [read_input] tags the reader's failure with the file name, and
   [input_errors] turns it into cmdliner's "pslocal: <file>: <message>"
   and a nonzero exit instead of an uncaught-exception report.  Commands
   that read files run their body under [input_errors] and their term
   under [Term.term_result]. *)
exception Bad_input of string

let read_input read path =
  try read path with
  | Failure msg | Sys_error msg -> raise (Bad_input (path ^ ": " ^ msg))

let read_graph = read_input Ps_graph.Gio.read_file
let read_hypergraph = read_input Ps_hypergraph.Hio.read_file

let input_errors f =
  match f () with () -> Ok () | exception Bad_input msg -> Error (`Msg msg)

(* Multicoloring file format: one line per vertex, "v: c1 c2 ...". *)
let multicoloring_to_text (mc : Mc.t) =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun v colors ->
      Buffer.add_string buf
        (Printf.sprintf "%d: %s\n" v
           (String.concat " " (List.map string_of_int colors))))
    mc;
  Buffer.contents buf

let multicoloring_of_file n path =
  let ic = open_in path in
  let mc = Array.make n [] in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      In_channel.input_all ic
      |> String.split_on_char '\n'
      |> List.iter (fun line ->
             let line = String.trim line in
             if line <> "" then
               match String.split_on_char ':' line with
               | [ v; colors ] ->
                   let v = int_of_string (String.trim v) in
                   if v < 0 || v >= n then
                     failwith "multicoloring: vertex out of range";
                   mc.(v) <-
                     String.split_on_char ' ' colors
                     |> List.filter (( <> ) "")
                     |> List.map int_of_string
                     |> List.sort_uniq compare
               | _ -> failwith "multicoloring: expected \"v: c1 c2 ...\""));
  mc

(* ------------------------------------------------------------------ *)
(* gen-graph *)

let gen_graph family n p rows cols degree scale edges seed output =
  let rng = Ps_util.Rng.create seed in
  match family with
  | "rmat" | "huge-gnp" ->
      (* Streaming families: edges flow straight from the generator
         through Gio.write_edges_file's buffered sink — the graph is
         never materialized, so instance size is bounded by disk, not
         the heap.  That rules out stdout's write_out path (which takes
         one big string), hence the mandatory -o. *)
      let path =
        match output with
        | Some path -> path
        | None ->
            failwith
              (Printf.sprintf "%s streams to a file; pass -o FILE" family)
      in
      let nv, m, iter =
        match family with
        | "rmat" ->
            ( 1 lsl scale,
              edges,
              fun f -> Ps_graph.Gen.iter_rmat rng ~scale ~edges f )
        | _ ->
            (* The header promises an exact edge count, so run the
               deterministic G(n,p) stream twice from the same seed:
               first to count, then to emit.  Memory stays O(1). *)
            let count = ref 0 in
            Ps_graph.Gen.iter_gnp (Ps_util.Rng.create seed) n p (fun _ _ ->
                incr count);
            (n, !count, fun f -> Ps_graph.Gen.iter_gnp rng n p f)
      in
      Ps_graph.Gio.write_edges_file path ~n:nv ~m (fun add ->
          iter (fun u v -> add u v));
      Logs.app (fun k -> k "streamed %d vertices, %d edge lines to %s" nv m path)
  | _ ->
      let g =
        match family with
        | "ring" -> Ps_graph.Gen.ring n
        | "path" -> Ps_graph.Gen.path n
        | "complete" -> Ps_graph.Gen.complete n
        | "star" -> Ps_graph.Gen.star n
        | "grid" -> Ps_graph.Gen.grid rows cols
        | "gnp" -> Ps_graph.Gen.gnp rng n p
        | "tree" -> Ps_graph.Gen.random_tree rng n
        | "regular" -> Ps_graph.Gen.random_regular_ish rng n degree
        | "interval" ->
            Ps_graph.Gen.unit_interval rng n (float_of_int n /. 4.0)
        | other -> failwith (Printf.sprintf "unknown graph family %S" other)
      in
      write_out output (Ps_graph.Gio.to_edge_list g);
      Logs.app (fun m -> m "generated %a" G.pp g)

let gen_graph_cmd =
  let family =
    let doc =
      "Family: ring, path, complete, star, grid, gnp, tree, regular, \
       interval; streaming (require -o): rmat, huge-gnp."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FAMILY" ~doc)
  in
  let n =
    Arg.(value & opt int 32 & info [ "n" ] ~doc:"Vertex count (gnp, huge-gnp).")
  in
  let p =
    Arg.(
      value & opt float 0.1
      & info [ "p" ] ~doc:"Edge probability (gnp, huge-gnp).")
  in
  let rows = Arg.(value & opt int 8 & info [ "rows" ] ~doc:"Grid rows.") in
  let cols = Arg.(value & opt int 8 & info [ "cols" ] ~doc:"Grid columns.") in
  let degree =
    Arg.(value & opt int 3 & info [ "d" ] ~doc:"Degree (regular).")
  in
  let scale =
    Arg.(
      value & opt int 16
      & info [ "scale" ] ~doc:"R-MAT scale: $(b,2^scale) vertices (rmat).")
  in
  let edges =
    Arg.(
      value & opt int 1_000_000
      & info [ "edges" ]
          ~doc:
            "Edge lines to emit (rmat); duplicates collapse when the file \
             is read back.")
  in
  Cmd.v
    (Cmd.info "gen-graph" ~doc:"Generate a graph in edge-list format.")
    Term.(
      const gen_graph $ family $ n $ p $ rows $ cols $ degree $ scale $ edges
      $ seed_arg $ output_arg)

(* ------------------------------------------------------------------ *)
(* gen-hypergraph *)

let gen_hypergraph family n m k eps min_len max_len seed output =
  let rng = Ps_util.Rng.create seed in
  let h =
    match family with
    | "uniform" -> Ps_hypergraph.Hgen.uniform_random rng ~n ~m ~k
    | "almost-uniform" ->
        Ps_hypergraph.Hgen.almost_uniform_random rng ~n ~m ~k ~eps
    | "intervals" ->
        Ps_hypergraph.Hgen.random_intervals rng ~n ~m ~min_len ~max_len
    | "blocks" -> Ps_hypergraph.Hgen.disjoint_blocks ~blocks:m ~size:k
    | "sunflower" ->
        Ps_hypergraph.Hgen.sunflower ~n_petals:m ~core:k ~petal:k
    | other -> failwith (Printf.sprintf "unknown hypergraph family %S" other)
  in
  write_out output (Ps_hypergraph.Hio.to_text h);
  Logs.app (fun msg -> msg "generated %a" H.pp h)

let gen_hypergraph_cmd =
  let family =
    let doc =
      "Family: uniform, almost-uniform, intervals, blocks, sunflower."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FAMILY" ~doc)
  in
  let n = Arg.(value & opt int 48 & info [ "n" ] ~doc:"Vertex count.") in
  let m = Arg.(value & opt int 40 & info [ "m" ] ~doc:"Edge count.") in
  let k = Arg.(value & opt int 4 & info [ "k" ] ~doc:"Edge size.") in
  let eps =
    Arg.(value & opt float 0.5 & info [ "eps" ] ~doc:"Almost-uniform slack.")
  in
  let min_len =
    Arg.(value & opt int 2 & info [ "min-len" ] ~doc:"Min interval length.")
  in
  let max_len =
    Arg.(value & opt int 8 & info [ "max-len" ] ~doc:"Max interval length.")
  in
  Cmd.v
    (Cmd.info "gen-hypergraph" ~doc:"Generate a hypergraph.")
    Term.(
      const gen_hypergraph $ family $ n $ m $ k $ eps $ min_len $ max_len
      $ seed_arg $ output_arg)

(* ------------------------------------------------------------------ *)
(* reduce *)

(* Solve options go through the server's decoder, so the CLI and the
   wire accept the same names and give the same messages; a rejected
   option is a user error like a malformed input file. *)
let solve_spec ?solver ?presolve ?k ~seed () =
  match Ps_server.Protocol.solve_spec ?solver ?presolve ?k ~seed () with
  | Ok spec -> spec
  | Error e -> raise (Bad_input e.Ps_server.Protocol.message)

let check_spec spec h =
  match Ps_server.Protocol.check_spec spec h with
  | Ok () -> ()
  | Error e -> raise (Bad_input e.Ps_server.Protocol.message)

let solver_names_doc =
  String.concat ", " (List.map fst Ps_server.Protocol.solvers)

let presolve_arg =
  let doc =
    "Kernelization presolve: $(b,kernel) shrinks the instance with exact \
     reductions (degree-0/1, folding, simplicial, domination) before the \
     solver runs and lifts the answer back; $(b,none) runs the raw solver."
  in
  Arg.(value & opt string "kernel" & info [ "presolve" ] ~docv:"PRESOLVE" ~doc)

let reduce input solver presolve k seed verbose trace json output cache
    no_cache =
  input_errors @@ fun () ->
  if verbose then
    Logs.Src.set_level Ps_core.Reduction.log_src (Some Logs.Debug);
  let spec = solve_spec ~solver ~presolve ?k ~seed () in
  let h = read_hypergraph input in
  check_spec spec h;
  let result =
    with_trace trace (fun () ->
        Ps_server.Service.solve ?cache:(oneshot_cache ~cache ~no_cache) spec h)
  in
  (* A failed certificate is an error, not a result. *)
  if not result.certificate.all_ok then
    failwith
      (Format.asprintf "reduce: certificate failed: %a" Ps_core.Certify.pp
         result.certificate);
  if json then begin
    print_json_result
      (Ps_server.Protocol.reduce_result ~detail:false result);
    match output with
    | None -> ()
    | Some _ ->
        write_out output
          (multicoloring_to_text
             result.Ps_core.Pipeline.reduction.Ps_core.Reduction.multicoloring)
  end
  else begin
  let r = result.Ps_core.Pipeline.reduction in
  let t =
    Ps_util.Table.create
      [ "phase"; "|E_i|"; "|V(Gk)|"; "|I_i|"; "happy"; "lambda" ]
  in
  List.iter
    (fun (p : Ps_core.Reduction.phase_record) ->
      Ps_util.Table.add_row t
        [ string_of_int p.phase;
          string_of_int p.edges_before;
          string_of_int p.conflict_vertices;
          string_of_int p.is_size;
          string_of_int p.newly_happy;
          Ps_util.Table.cell_ratio p.lambda_effective ])
    r.Ps_core.Reduction.phases;
  Ps_util.Table.print ~title:(Printf.sprintf "reduction of %s" input) t;
  Format.printf "certificate: %a@." Ps_core.Certify.pp
    result.Ps_core.Pipeline.certificate;
  let _, compacted_colors =
    Ps_cfc.Multicolor.compact r.Ps_core.Reduction.multicoloring
  in
  Format.printf "colors (compacted): %d@." compacted_colors;
  match output with
  | None -> ()
  | Some _ ->
      write_out output
        (multicoloring_to_text r.Ps_core.Reduction.multicoloring);
      Logs.app (fun m -> m "multicoloring written")
  end

let reduce_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"HYPERGRAPH" ~doc:"Hypergraph file.")
  in
  let solver =
    let doc = "MaxIS solver: " ^ solver_names_doc ^ "." in
    Arg.(value & opt string "greedy" & info [ "solver" ] ~doc)
  in
  let k =
    Arg.(
      value
      & opt (some int) None
      & info [ "k" ] ~doc:"Palette size per phase (default: derived).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Per-phase debug log.")
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:
         "Conflict-free multicoloring via the Theorem 1.1 reduction \
          (iterated MaxIS approximation).")
    Term.(
      term_result
        (const reduce $ input $ solver $ presolve_arg $ k $ seed_arg
       $ verbose $ trace_arg $ json_arg $ output_arg $ cache_arg
       $ no_cache_arg))

(* ------------------------------------------------------------------ *)
(* verify *)

let verify hypergraph coloring =
  input_errors @@ fun () ->
  let h = read_hypergraph hypergraph in
  let mc = read_input (multicoloring_of_file (H.n_vertices h)) coloring in
  let happy = Mc.count_happy h mc in
  Format.printf "%d / %d edges happy; %d colors in use@." happy (H.n_edges h)
    (Mc.total_colors mc);
  if happy = H.n_edges h then begin
    Format.printf "conflict-free: yes@.";
    exit 0
  end
  else begin
    Format.printf "conflict-free: NO@.";
    exit 1
  end

let verify_cmd =
  let hypergraph =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"HYPERGRAPH" ~doc:"Hypergraph file.")
  in
  let coloring =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"COLORING" ~doc:"Multicoloring file (\"v: c1 c2 ...\").")
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify a conflict-free multicoloring.")
    Term.(term_result (const verify $ hypergraph $ coloring))

(* ------------------------------------------------------------------ *)
(* mis *)

(* [--solver NAME] switches from the algorithm zoo to one MaxIS solver
   with the kernelization front end, certified on the input graph. *)
let print_maxis ~input ~json (o : Ps_server.Protocol.maxis_outcome) =
  if json then print_json_result (Ps_server.Protocol.maxis_result o)
  else begin
    let t =
      Ps_util.Table.create
        ~aligns:[ Ps_util.Table.Left; Ps_util.Table.Right ]
        [ "solver"; "size" ]
    in
    List.iter
      (fun (n, sz) -> Ps_util.Table.add_row t [ n; string_of_int sz ])
      o.entries;
    Ps_util.Table.print ~title:(Printf.sprintf "MaxIS on %s" input) t;
    Option.iter
      (fun (st : Ps_maxis.Kernel.stats) ->
        Format.printf "kernel: %d -> %d vertices, %d -> %d edges@."
          st.original_vertices st.kernel_vertices st.original_edges
          st.kernel_edges)
      o.kernel;
    Format.printf "winner: %s (size %d)@." o.solver
      (Ps_maxis.Independent_set.size o.set);
    Format.printf "certified (independent + maximal): %b@." o.certified
  end;
  if not o.certified then exit 1

let mis_label = function
  | Ps_server.Protocol.Mis_greedy -> "greedy min-degree"
  | Mis_luby -> "luby (LOCAL)"
  | Mis_slocal -> "greedy (SLOCAL)"
  | Mis_derandomized -> "derandomized (LOCAL, det.)"
  | Mis_all -> "all"

let mis input solver presolve seed trace json cache no_cache =
  input_errors @@ fun () ->
  let spec =
    Option.map (fun solver -> solve_spec ~solver ~presolve ~seed ()) solver
  in
  with_trace trace @@ fun () ->
  let g = read_graph input in
  match spec with
  | Some spec -> print_maxis ~input ~json (Ps_server.Service.maxis spec g)
  | None when json ->
      (* Only --json is cached: a hit holds the rendered result object,
         not the rows the table is drawn from. *)
      print_json_result
        (Ps_server.Service.run
           ?cache:(oneshot_cache ~cache ~no_cache)
           (Mis { graph = g; algo = Mis_all; seed }))
  | None ->
      let t =
        Ps_util.Table.create
          ~aligns:Ps_util.Table.[ Left; Right; Left ]
          [ "algorithm"; "size"; "cost" ]
      in
      List.iter
        (fun (r : Ps_server.Protocol.mis_row) ->
          let cost =
            match (r.rounds, r.locality) with
            | Some n, _ -> Printf.sprintf "%d rounds" n
            | None, Some l -> Printf.sprintf "locality %d" l
            | None, None -> "centralized"
          in
          Ps_util.Table.add_row t
            [ mis_label r.algo; string_of_int r.size; cost ])
        (Ps_server.Service.mis_rows ~seed Mis_all g);
      Ps_util.Table.print ~title:(Printf.sprintf "MIS on %s" input) t

let mis_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"GRAPH" ~doc:"Graph file (edge list).")
  in
  let solver =
    let doc =
      "Run one MaxIS solver (with kernelization and certification) instead \
       of the algorithm zoo: " ^ solver_names_doc ^ "."
    in
    Arg.(value & opt (some string) None & info [ "solver" ] ~docv:"SOLVER" ~doc)
  in
  Cmd.v
    (Cmd.info "mis" ~doc:"Run the MIS algorithm zoo on a graph.")
    Term.(
      term_result
        (const mis $ input $ solver $ presolve_arg $ seed_arg $ trace_arg
       $ json_arg $ cache_arg $ no_cache_arg))

(* ------------------------------------------------------------------ *)
(* decompose *)

let decompose input trace json cache no_cache =
  input_errors @@ fun () ->
  let code =
    with_trace trace (fun () ->
        let g = read_graph input in
        if json then begin
          let result =
            Ps_server.Service.run
              ?cache:(oneshot_cache ~cache ~no_cache)
              (Decompose { graph = g })
          in
          print_json_result result;
          (* The exit code mirrors the payload so a cache hit agrees
             with the fresh render it replayed. *)
          match Ps_server.Json.member "verified" result with
          | Some (Ps_server.Json.Bool true) -> 0
          | _ -> 1
        end
        else begin
          let d, check = Ps_server.Service.decomposition g in
          Format.printf
            "%a@.clusters=%d colors=%d max_radius=%d@.verified: %a@." G.pp g
            d.Ps_slocal.Decomposition.n_clusters
            d.Ps_slocal.Decomposition.n_colors
            d.Ps_slocal.Decomposition.max_radius
            Ps_slocal.Decomposition.pp_check check;
          if Ps_slocal.Decomposition.check_all check then 0 else 1
        end)
  in
  exit code

let decompose_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"GRAPH" ~doc:"Graph file (edge list).")
  in
  Cmd.v
    (Cmd.info "decompose"
       ~doc:"Ball-carving (log n, log n) network decomposition.")
    Term.(
      term_result
        (const decompose $ input $ trace_arg $ json_arg $ cache_arg
       $ no_cache_arg))

(* ------------------------------------------------------------------ *)
(* matching *)

let matching input seed =
  input_errors @@ fun () ->
  let g = read_graph input in
  let t =
    Ps_util.Table.create
      ~aligns:[ Ps_util.Table.Left; Ps_util.Table.Right; Ps_util.Table.Left ]
      [ "algorithm"; "edges"; "cost" ]
  in
  let greedy = Ps_graph.Matching.greedy g in
  Ps_util.Table.add_row t
    [ "greedy"; string_of_int (Ps_graph.Matching.size greedy); "centralized" ];
  let outputs, stats = Ps_local.Matching_local.run ~seed g in
  let local = Ps_local.Matching_local.to_partner_array outputs in
  Ps_util.Table.add_row t
    [ "proposal (LOCAL)";
      string_of_int (Ps_graph.Matching.size local);
      Printf.sprintf "%d rounds" stats.Ps_local.Network.rounds ];
  let slocal, sstats = Ps_slocal.Greedy_matching.run ~seed g in
  Ps_util.Table.add_row t
    [ "greedy (SLOCAL)";
      string_of_int (Ps_graph.Matching.size slocal);
      Printf.sprintf "locality %d" sstats.Ps_slocal.Slocal.locality ];
  Ps_util.Table.print ~title:(Printf.sprintf "maximal matching on %s" input) t;
  let cover = Ps_maxis.Vertex_cover.of_matching g greedy in
  Format.printf "2-approx vertex cover from greedy matching: %d vertices@."
    (Ps_util.Bitset.cardinal cover)

let matching_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"GRAPH" ~doc:"Graph file (edge list).")
  in
  Cmd.v
    (Cmd.info "matching" ~doc:"Maximal matchings in all three models.")
    Term.(term_result (const matching $ input $ seed_arg))

(* ------------------------------------------------------------------ *)
(* cf-color: direct conflict-free coloring *)

let cf_color input algorithm output =
  input_errors @@ fun () ->
  let h = read_hypergraph input in
  let f =
    match algorithm with
    | "ruler" -> Ps_cfc.Cf_greedy.ruler h
    | "conservative" -> Ps_cfc.Cf_greedy.conservative h
    | other -> failwith (Printf.sprintf "unknown CF algorithm %S" other)
  in
  Ps_cfc.Cf_coloring.verify_exn h f;
  Format.printf "conflict-free with %d colors (max color %d)@."
    (Ps_cfc.Cf_coloring.num_colors f)
    (Ps_cfc.Cf_coloring.max_color f);
  match output with
  | None -> ()
  | Some _ ->
      write_out output
        (multicoloring_to_text (Ps_cfc.Multicolor.of_single f));
      Logs.app (fun m -> m "coloring written")

let cf_color_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"HYPERGRAPH" ~doc:"Hypergraph file.")
  in
  let algorithm =
    Arg.(
      value & opt string "conservative"
      & info [ "algo" ] ~doc:"ruler (intervals only) or conservative.")
  in
  Cmd.v
    (Cmd.info "cf-color"
       ~doc:"Direct conflict-free coloring (no reduction).")
    Term.(term_result (const cf_color $ input $ algorithm $ output_arg))

(* ------------------------------------------------------------------ *)
(* set-cover *)

let set_cover input =
  input_errors @@ fun () ->
  let h = read_hypergraph input in
  let greedy = Ps_hypergraph.Set_cover.greedy h in
  Ps_hypergraph.Set_cover.verify_exn h greedy;
  Format.printf "greedy cover: %d sets (of %d)@." (List.length greedy)
    (H.n_edges h);
  (match Ps_hypergraph.Set_cover.cover_number_within ~budget:2_000_000 h with
  | Some opt -> Format.printf "optimum: %d sets@." opt
  | None -> Format.printf "optimum: (instance too large for exact search)@.");
  Format.printf "chosen: %s@."
    (String.concat " " (List.map string_of_int greedy))

let set_cover_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"HYPERGRAPH" ~doc:"Hypergraph file.")
  in
  Cmd.v
    (Cmd.info "set-cover" ~doc:"Greedy and exact set cover.")
    Term.(term_result (const set_cover $ input))

(* ------------------------------------------------------------------ *)
(* bfs *)

let bfs input root =
  input_errors @@ fun () ->
  let g = read_graph input in
  let result, stats = Ps_local.Congest.bfs_tree ~root g in
  Format.printf
    "BFS from %d: %d rounds, max message %d bits (CONGEST: %s)@." root
    stats.Ps_local.Congest.network.Ps_local.Network.rounds
    stats.Ps_local.Congest.max_message_bits
    (if Ps_local.Congest.bandwidth_ok ~n:(G.n_vertices g) stats then "yes"
     else "no");
  Array.iteri
    (fun v d ->
      Format.printf "  %d: dist=%d parent=%d@." v d
        result.Ps_local.Congest.parent.(v))
    result.Ps_local.Congest.distance

let bfs_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"GRAPH" ~doc:"Graph file (edge list).")
  in
  let root =
    Arg.(value & opt int 0 & info [ "root" ] ~doc:"Root vertex.")
  in
  Cmd.v
    (Cmd.info "bfs" ~doc:"CONGEST BFS tree with bandwidth accounting.")
    Term.(term_result (const bfs $ input $ root))

(* ------------------------------------------------------------------ *)
(* audit *)

(* Vertex-set certificate file: whitespace-separated ids, '#' comments. *)
let ids_of_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      In_channel.input_all ic
      |> String.split_on_char '\n'
      |> List.filter (fun line -> not (String.starts_with ~prefix:"#" line))
      |> String.concat " "
      |> String.split_on_char ' '
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun tok -> tok <> "")
      |> List.map (fun tok ->
             match int_of_string_opt tok with
             | Some v -> v
             | None ->
                 failwith (Printf.sprintf "%S is not a vertex id" tok)))

let audit hypergraph graph coloring is_file ds_file solver k seed json =
  input_errors @@ fun () ->
  let module D = Ps_check.Diagnostic in
  let spec = solve_spec ~solver ?k ~seed () in
  let finish ~checks diags =
    if json then
      print_json_result (Ps_server.Protocol.check_result ~checks diags)
    else begin
      List.iter (fun d -> Format.printf "%a@." D.pp d) diags;
      match diags with
      | [] -> Format.printf "audit OK (%s)@." (String.concat ", " checks)
      | ds ->
          Format.printf "audit FAILED: %d diagnostic(s) (%s)@."
            (List.length ds)
            (String.concat ", " checks)
    end;
    exit (match diags with [] -> 0 | _ :: _ -> 1)
  in
  let check target =
    let checks, diags = Ps_server.Service.check_diagnostics target in
    finish ~checks diags
  in
  let ids = Option.map (read_input ids_of_file) in
  match (hypergraph, graph) with
  | None, None | Some _, Some _ ->
      failwith "audit: pass exactly one of HYPERGRAPH or --graph"
  | Some path, None -> begin
      let h = read_hypergraph path in
      check_spec spec h;
      match coloring with
      | Some cpath ->
          (* Certify a claimed coloring — the referee mode. *)
          let mc = read_input (multicoloring_of_file (H.n_vertices h)) cpath in
          check (Check_multicoloring { hypergraph = h; multicoloring = mc })
      | None ->
          (* Run the Theorem 1.1 pipeline, then deep-audit its own run:
             conflict-freeness, per-phase decay, ρ and k·ρ budgets. *)
          let result = Ps_server.Service.solve spec h in
          let diags = Ps_core.Certify.diagnostics result.reduction in
          if not json then
            Format.printf "reduction: %d phases, %d colors, λmax=%.2f@."
              result.reduction.Ps_core.Reduction.total_phases
              result.reduction.Ps_core.Reduction.colors_used
              (Ps_check.Check_phase.lambda_max
                 (Ps_core.Certify.phases_for_check result.reduction));
          finish ~checks:[ "multicoloring"; "phase-audit" ] diags
    end
  | None, Some path ->
      let g = read_graph path in
      check
        (Check_graph_sets
           { graph = g;
             independent_set = ids is_file;
             dominating_set = ids ds_file })

let audit_cmd =
  let hypergraph =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"HYPERGRAPH"
          ~doc:
            "Hypergraph file (Hio).  Without $(b,--coloring), runs the \
             reduction and deep-audits its own output; with it, certifies \
             the given multicoloring.")
  in
  let graph =
    Arg.(
      value
      & opt (some file) None
      & info [ "graph" ] ~docv:"FILE"
          ~doc:
            "Audit a graph (Gio edge list) instead: CSR well-formedness, \
             plus any vertex-set certificates given below.")
  in
  let coloring =
    Arg.(
      value
      & opt (some file) None
      & info [ "coloring" ] ~docv:"FILE"
          ~doc:"Multicoloring file (\"v: c1 c2 ...\") to certify against \
                HYPERGRAPH.")
  in
  let is_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "is" ] ~docv:"FILE"
          ~doc:"Independent-set certificate (whitespace-separated ids).")
  in
  let ds_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "ds" ] ~docv:"FILE"
          ~doc:"Dominating-set certificate (whitespace-separated ids).")
  in
  let solver =
    Arg.(
      value & opt string "greedy"
      & info [ "solver" ]
          ~doc:
            ("MaxIS solver for the self-audit run: " ^ solver_names_doc ^ "."))
  in
  let k =
    Arg.(
      value
      & opt (some int) None
      & info [ "k" ] ~doc:"Palette size per phase (default: derived).")
  in
  let doc =
    "Deep invariant audit with positioned diagnostics.  Exit 0 when every \
     certifier passes, 1 with one diagnostic per violation otherwise \
     (machine-readable with $(b,--json), same schema as the served \
     $(b,check) method)."
  in
  Cmd.v (Cmd.info "audit" ~doc)
    Term.(
      term_result
        (const audit $ hypergraph $ graph $ coloring $ is_file $ ds_file
       $ solver $ k $ seed_arg $ json_arg))

(* ------------------------------------------------------------------ *)
(* serve *)

let serve socket domains queue timeout_ms shards binary metrics_socket
    quota_rps quota_burst shard_child trace cache no_cache =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error (`Msg m)) fmt in
  (* Flag validation first: misconfiguration is a clean one-line error,
     never a raised exception (pinned by the CLI contract tests). *)
  let* () =
    match domains with
    | Some d when d < 1 -> fail "serve: --domains must be positive (got %d)" d
    | _ -> Ok ()
  in
  let* () =
    match queue with
    | Some q when q < 1 -> fail "serve: --queue must be positive (got %d)" q
    | _ -> Ok ()
  in
  let queue =
    Option.value queue
      ~default:Ps_server.Engine.default_config.Ps_server.Engine.queue_capacity
  in
  let* () =
    if shards < 1 then fail "serve: --shards must be positive (got %d)" shards
    else Ok ()
  in
  let* () =
    match quota_rps with
    | Some r when r <= 0.0 ->
        fail "serve: --quota-rps must be positive (got %g)" r
    | _ -> Ok ()
  in
  let* () =
    match quota_burst with
    | Some b when b < 1.0 ->
        fail "serve: --quota-burst must be at least 1 (got %g)" b
    | Some _ when Option.is_none quota_rps ->
        fail "serve: --quota-burst needs --quota-rps"
    | _ -> Ok ()
  in
  let needs_socket what =
    match socket with
    | Some path -> Ok path
    | None -> fail "serve: %s requires --socket PATH" what
  in
  let framing =
    if binary then Ps_shard.Frame.Binary else Ps_shard.Frame.Json_lines
  in
  let quota =
    Option.map
      (fun rate ->
        { Ps_shard.Shard.rate;
          burst = Option.value quota_burst ~default:(Float.max 1.0 rate) })
      quota_rps
  in
  (* Unlike the one-shots, the server caches by default: the in-memory
     tiers pay off across the requests of one long-running process.
     Built only in the processes that run an engine (the router-only
     front process never solves). *)
  let engine_config () =
    let cache =
      if no_cache then None
      else
        let dir =
          match cache with
          | Some "" -> None
          | Some d -> Some d
          | None -> cache_env_dir ()
        in
        Some (make_cache dir)
    in
    { Ps_server.Engine.domains =
        (match domains with
        | Some d -> d
        | None -> Ps_server.Engine.default_config.Ps_server.Engine.domains);
      queue_capacity = queue;
      default_timeout_ms = timeout_ms;
      cache }
  in
  let shard_config index =
    { Ps_shard.Shard.engine = engine_config ();
      framing;
      max_message_bytes = Ps_server.Protocol.default_max_bytes;
      quota;
      index }
  in
  (* Children are fork+exec re-invocations of this binary (never a bare
     fork: the parent runs threads).  Flags that shape the engine and
     the protocol are forwarded; --trace is not (N children dumping to
     a shared stdout would interleave). *)
  let spawn_shard index shard_socket =
    let tail =
      [ "serve"; "--socket"; shard_socket;
        "--shard-child"; string_of_int index;
        "--queue"; string_of_int queue ]
      @ (match domains with
        | Some d -> [ "--domains"; string_of_int d ]
        | None -> [])
      @ (match timeout_ms with
        | Some t -> [ "--timeout-ms"; string_of_int t ]
        | None -> [])
      @ (if binary then [ "--binary" ] else [])
      @ (match quota_rps with
        | Some r -> [ "--quota-rps"; Printf.sprintf "%g" r ]
        | None -> [])
      @ (match quota_burst with
        | Some b -> [ "--quota-burst"; Printf.sprintf "%g" b ]
        | None -> [])
      @
      if no_cache then [ "--no-cache" ]
      else
        match cache with
        | Some "" -> [ "--cache" ]
        | Some d -> [ "--cache=" ^ d ]
        | None -> []
    in
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: tail))
      Unix.stdin Unix.stdout Unix.stderr
  in
  let wrap f =
    match with_trace trace f with
    | () -> Ok ()
    | exception Failure msg -> Error (`Msg msg)
  in
  match shard_child with
  | Some index ->
      (* Hidden child mode: one shard process behind its own socket. *)
      let* path = needs_socket "--shard-child" in
      wrap (fun () ->
          Ps_shard.Shard.serve ~config:(shard_config index) ~path ())
  | None when shards > 1 || Option.is_some metrics_socket ->
      let* front =
        needs_socket (if shards > 1 then "--shards" else "--metrics-socket")
      in
      wrap (fun () ->
          Ps_shard.Tier.run ~spawn:spawn_shard ~front
            { Ps_shard.Tier.shards;
              framing;
              metrics_socket;
              ready_timeout_s = 10.0 })
  | None ->
      (* One in-process shard: no supervisor, no router, no fork; over
         stdin/stdout when no socket is given. *)
      let* () =
        if binary && Option.is_none socket then
          fail "serve: --binary requires --socket PATH"
        else Ok ()
      in
      wrap (fun () ->
          Ps_shard.Shard.serve ~config:(shard_config 0) ?path:socket ())

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) instead of serving \
             stdin/stdout.  A stale socket file left by a previous run is \
             replaced.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker pool size (defaults to min(4, available cores)).  Each \
             worker is an OCaml domain solving one request at a time.")
  in
  let queue =
    Arg.(
      value
      & opt (some int) None
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bounded request-queue capacity (default 4096).  When it is \
             full the server stops reading requests until workers free a \
             slot, so overload shows up as latency and blocked client \
             writes, not as rejected requests.")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request deadline, measured from enqueue (queue \
             wait counts).  Requests may override it with a $(b,timeout_ms) \
             field.  No deadline if omitted.")
  in
  let shards =
    Arg.(
      value
      & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Serve through $(docv) solver processes behind one front \
             socket: a supervisor spawns and restarts them, connections \
             are sharded round-robin with failover.  Requires \
             $(b,--socket).")
  in
  let binary =
    Arg.(
      value
      & flag
      & info [ "binary" ]
          ~doc:
            "Speak length-prefixed binary frames instead of JSON lines \
             (same requests and responses, no text parsing on the hot \
             path).  Requires $(b,--socket); JSON remains the default \
             compatibility protocol.")
  in
  let metrics_socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-socket" ] ~docv:"PATH"
          ~doc:
            "Expose Prometheus text metrics over HTTP at $(docv) (scrape \
             with $(b,curl --unix-socket)): per-shard and aggregate \
             engine counters, latency quantiles, batching/quota/router \
             counters, shard liveness and restarts.")
  in
  let quota_rps =
    Arg.(
      value
      & opt (some float) None
      & info [ "quota-rps" ] ~docv:"R"
          ~doc:
            "Per-tenant token-bucket admission: each tenant \
             ($(b,params.tenant); absent shares the anonymous bucket) \
             refills at $(docv) requests/second.  Over-quota requests \
             are answered $(b,overloaded) before touching the queue.")
  in
  let quota_burst =
    Arg.(
      value
      & opt (some float) None
      & info [ "quota-burst" ] ~docv:"B"
          ~doc:
            "Token-bucket capacity per tenant (defaults to the \
             $(b,--quota-rps) rate, at least 1).")
  in
  let shard_child =
    Arg.(
      value
      & opt (some int) None
      & info [ "shard-child" ] ~docv:"INDEX"
          ~doc:
            "Internal: run as shard child $(docv) of a $(b,--shards) \
             supervisor (spawned automatically; not for direct use).")
  in
  let doc =
    "Long-running solve service speaking newline-delimited JSON (requests \
     in, responses out, correlated by $(b,id)) or length-prefixed binary \
     frames ($(b,--binary)).  Methods: reduce, mis, decompose, certify, \
     check, ping, stats.  Solved instances are cached (content-addressed, \
     certificate-audited; see $(b,--cache)).  $(b,--shards N) scales to a \
     supervised multi-process tier behind one socket, with per-tenant \
     quotas ($(b,--quota-rps)) and a Prometheus endpoint \
     ($(b,--metrics-socket)).  Drains in-flight jobs on SIGTERM, SIGINT \
     or EOF before exiting."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      term_result
        (const serve $ socket $ domains $ queue $ timeout_ms $ shards
       $ binary $ metrics_socket $ quota_rps $ quota_burst $ shard_child
       $ trace_arg $ cache_arg $ no_cache_arg))

(* ------------------------------------------------------------------ *)
(* cache *)

let cache_admin action dir json =
  let dir =
    match (dir, cache_env_dir ()) with
    | Some d, _ -> d
    | None, Some d -> d
    | None, None ->
        failwith "cache: no directory (give --dir or set PSLOCAL_CACHE_DIR)"
  in
  match action with
  | `Stats ->
      let entries, bytes = Ps_cache.Cache.dir_stats dir in
      if json then
        print_endline
          (Ps_server.Json.to_string
             (Ps_server.Json.Obj
                [ ("dir", Ps_server.Json.Str dir);
                  ("entries", Ps_server.Json.Int entries);
                  ("bytes", Ps_server.Json.Int bytes);
                  ( "engine_version",
                    Ps_server.Json.Str Ps_cache.Cache.engine_version ) ]))
      else
        Format.printf "%s: %d entries, %d bytes (engine version %s)@." dir
          entries bytes Ps_cache.Cache.engine_version
  | `List ->
      let entries = Ps_cache.Cache.dir_list dir in
      if json then
        print_endline
          (Ps_server.Json.to_string
             (Ps_server.Json.List
                (List.map
                   (fun (key, bytes) ->
                     Ps_server.Json.Obj
                       [ ("key", Ps_server.Json.Str key);
                         ("bytes", Ps_server.Json.Int bytes) ])
                   entries)))
      else begin
        let t =
          Ps_util.Table.create
            ~aligns:[ Ps_util.Table.Left; Ps_util.Table.Right ]
            [ "key"; "bytes" ]
        in
        List.iter
          (fun (key, bytes) ->
            Ps_util.Table.add_row t [ key; string_of_int bytes ])
          entries;
        Ps_util.Table.print ~title:(Printf.sprintf "cache %s" dir) t
      end
  | `Clear ->
      let removed = Ps_cache.Cache.dir_clear dir in
      if json then
        print_endline
          (Ps_server.Json.to_string
             (Ps_server.Json.Obj
                [ ("dir", Ps_server.Json.Str dir);
                  ("removed", Ps_server.Json.Int removed) ]))
      else Format.printf "%s: removed %d entries@." dir removed

let cache_cmd =
  let action =
    let doc =
      "$(b,stats) (entry count and byte size), $(b,list) (one row per \
       entry with its key), or $(b,clear) (delete every entry file)."
    in
    Arg.(
      value
      & pos 0 (enum [ ("stats", `Stats); ("list", `List); ("clear", `Clear) ])
          `Stats
      & info [] ~docv:"ACTION" ~doc)
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Cache directory to inspect (defaults to \
             $(b,PSLOCAL_CACHE_DIR)).  This is the persistent tier \
             written by $(b,--cache=DIR); a running server's in-memory \
             tiers are inspected via its $(b,stats) method instead.")
  in
  let doc =
    "Inspect or clear a persistent solved-instance cache directory."
  in
  Cmd.v (Cmd.info "cache" ~doc)
    Term.(const cache_admin $ action $ dir $ json_arg)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc =
    "P-SLOCAL-completeness of maximum independent set approximation — \
     executable reproduction."
  in
  Cmd.group
    (Cmd.info "pslocal" ~version:"1.0.0" ~doc)
    [ gen_graph_cmd; gen_hypergraph_cmd; reduce_cmd; verify_cmd; mis_cmd;
      decompose_cmd; matching_cmd; cf_color_cmd; set_cover_cmd; bfs_cmd;
      audit_cmd; serve_cmd; cache_cmd ]

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.App);
  exit (Cmd.eval main_cmd)
