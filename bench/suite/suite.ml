(* The repository's benchmark: five workloads, each checked op by op,
   with end-to-end metrics from untraced rounds and per-layer metrics
   from one traced pass.  See README.md.

     sh bench/suite/run.sh --workload reduce-default --seed 1 --seconds 15 --trace 0
     sh bench/suite/run.sh --seed 1        # all five, one child process each

   Layers are timed from outside, around calls into their public
   functions; the library's own telemetry (PSLOCAL_TRACE) stays off. *)

module Hgen = Ps_hypergraph.Hgen
module Hio = Ps_hypergraph.Hio
module G = Ps_graph.Graph
module Gen = Ps_graph.Gen
module Gio = Ps_graph.Gio
module Approx = Ps_maxis.Approx
module Kernel = Ps_maxis.Kernel
module Is = Ps_maxis.Independent_set
module Pipeline = Ps_core.Pipeline
module Reduction = Ps_core.Reduction
module Certify = Ps_core.Certify
module Json = Ps_server.Json
module Protocol = Ps_server.Protocol
module Rng = Ps_util.Rng
module M = Measure

let workloads =
  [ "reduce-default"; "reduce-lambda"; "mis-gnp"; "mis-rmat"; "serve-zipf" ]

(* The metric catalogue; BENCHMARK.json lists the same names and units
   (the smoke test checks it). *)
let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "ops/s"); ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("latency.p50_ms", "ms"); ("latency.p90_ms", "ms"); ("latency.p99_ms", "ms");
    ("latency.samples", "count");
    ("hio.parse_ms", "ms"); ("pipeline.choose_k_ms", "ms");
    ("conflict_graph.build_ms", "ms"); ("kernel.presolve_ms", "ms");
    ("maxis.solve_ms", "ms"); ("reduction.loop_ms", "ms");
    ("certify.certify_ms", "ms"); ("gio.read_ms", "ms");
    ("independent_set.check_ms", "ms"); ("reduction.phases", "count");
    ("reduction.lambda_effective", "ratio"); ("reduction.colors_used", "colors");
    ("maxis.is_size_frac", "fraction"); ("conflict_graph.vertices", "count");
    ("conflict_graph.edges", "count"); ("kernel.shrink_ratio", "fraction");
    ("protocol.decode_ms.p50", "ms"); ("engine.submit_ms.p50", "ms");
    ("engine.queue_wait_ms.p50", "ms"); ("engine.queue_wait_ms.p99", "ms");
    ("service.handle_ms.p50", "ms"); ("service.handle_ms.p99", "ms");
    ("protocol.encode_ms.p50", "ms"); ("cache.hit_ratio", "fraction");
    ("engine.shed", "count"); ("server.transport_ms.p50", "ms");
    ("loadgen.lag_ms.p99", "ms"); ("loadgen.lag_ms.max", "ms");
    ("loadgen.rps_at_slo", "req/s"); ("trace.coverage", "fraction");
    ("trace.overhead_frac", "fraction") ]

let min_coverage = 0.95

(* Instance sizes, rounds and the serve ladder.  [full] is the benchmark;
   [smoke] only exercises the plumbing (`dune build @bench/suite/smoke`). *)
type profile = {
  default_m : int * int;  (** reduce-default: 4-uniform, n = 4m/3, m in this range *)
  default_sizes : int;  (** reduce-default: uniform instances per cycle *)
  interval_n : int list;  (** reduce-default: all intervals of length 10 *)
  lambda_m : int * int;  (** reduce-lambda: 4-uniform, n = 4m/3, m in this range *)
  lambda_sizes : int;  (** reduce-lambda: instances per cycle *)
  gnp_n : int;
  gnp_edges : int;
  rmat_scale : int;
  rmat_edges : int;
  setups : int;
  min_rounds : int;
  ladder : (int * float) list;
  nominal_rps : int;
  closed_share : float;
}

let full =
  { default_m = (96, 768);
    default_sizes = 12;
    interval_n = [ 64; 120; 170 ];
    lambda_m = (384, 1536);
    (* Whether the kernel rebuilds its CSR (a rule fired somewhere) or
       returns the input is a per-instance coin flip that gets likelier
       with m, and a rebuild costs several times the fast path; 48
       instances keep the expensive share steady from seed to seed. *)
    lambda_sizes = 48;
    gnp_n = 500_000;
    gnp_edges = 2_000_000;
    rmat_scale = 18;
    rmat_edges = 2_000_000;
    setups = 3;
    min_rounds = 3;
    ladder = [ (100, 0.07); (200, 0.35); (400, 0.07) ];
    nominal_rps = 200;
    closed_share = 0.51 }

let smoke =
  { default_m = (24, 48);
    default_sizes = 2;
    interval_n = [ 32 ];
    lambda_m = (96, 128);
    lambda_sizes = 2;
    gnp_n = 20_000;
    gnp_edges = 60_000;
    rmat_scale = 12;
    rmat_edges = 30_000;
    setups = 1;
    min_rounds = 1;
    ladder = [ (50, 1.0) ];
    nominal_rps = 50;
    closed_share = 0.5 }

(* ------------------------------------------------------------------ *)
(* reduce-default and reduce-lambda *)

type instance = {
  text : string;
  k : Pipeline.k_choice;
  solver : Approx.solver;
  seed : int;
}

let solver name = Option.get (Protocol.solver_of_name name)

(* [sizes] 4-uniform hypergraphs with m evenly spaced over [lo, hi] and
   n = 4m/3.  Only the contents depend on the seed, and the spread of
   sizes leaves no wide gap in the op-latency distribution for a
   percentile to fall into. *)
let uniform_grid rng ~sizes (lo, hi) =
  List.init sizes (fun i ->
      let m = lo + ((hi - lo) * i / max 1 (sizes - 1)) in
      Hgen.uniform_random rng ~n:(4 * m / 3) ~m ~k:4)

(* What `pslocal reduce h.hg` runs: greedy, derived k, kernel presolve,
   incremental engine, seed 0. *)
let default_instances p seed =
  let rng = Rng.create seed in
  let inst h =
    { text = Hio.to_text h; k = Pipeline.From_conservative; solver = solver "greedy";
      seed = 0 }
  in
  List.map inst (uniform_grid rng ~sizes:p.default_sizes p.default_m)
  @ List.map (fun n -> inst (Hgen.all_intervals_of_length ~n ~len:10)) p.interval_n

(* The paper's λ-degraded oracle at a fixed k: choose_k is idle. *)
let lambda_instances p seed =
  let rng = Rng.create seed in
  List.mapi
    (fun i h ->
      let keep = if i mod 2 = 0 then 0.05 else 0.02 in
      { text = Hio.to_text h;
        k = Pipeline.Fixed 3;
        solver = Approx.degrade ~keep (solver "caro-wei");
        seed = Rng.int rng 1_000_000 })
    (uniform_grid rng ~sizes:p.lambda_sizes p.lambda_m)

(* Pipeline.solve raises when the certificate fails. *)
let reduce_op inst =
  let h = Hio.of_text inst.text in
  ignore (Pipeline.solve ~seed:inst.seed ~k:inst.k ~solver:inst.solver h : Pipeline.result)

(* The solver a traced op hands the layer under test:
   [outer (Kernel.presolve (inner s))], named like [Kernel.presolve s]
   so Kernel.apply leaves it as is and the run computes what the
   untraced op computes.  presolve = outer − inner, solve = inner.
   [on_outer]/[on_inner] see each call's graph before its span starts;
   the probes only read its vertex count, an O(1) field. *)
let traced_solver sp ~op ~parent ~on_outer ~on_inner (s : Approx.solver) =
  let outer_id = ref (-1) in
  let inner =
    { s with
      Approx.solve =
        (fun rng g ->
          on_inner g;
          Spans.time sp ~op ~parent:!outer_id "maxis.solve" (fun _ ->
              s.Approx.solve rng g)) }
  in
  let pre = Kernel.presolve inner in
  { pre with
    Approx.solve =
      (fun rng g ->
        on_outer g;
        Spans.time sp ~op ~parent "kernel.presolve" (fun id ->
            outer_id := id;
            pre.Approx.solve rng g)) }

type probe = {
  mutable colors : float list;
  mutable phases : float list;
  mutable lambda : float list;
  mutable gk_vertices : float list;
  mutable gk_edges : float list;
  mutable shrink : float list;
  mutable is_frac : float list;
}

let probe () =
  { colors = []; phases = []; lambda = []; gk_vertices = []; gk_edges = [];
    shrink = []; is_frac = [] }

let mean_of l = M.mean (Array.of_list l)

(* The same work as reduce_op, split at the layers: Hio.of_text,
   Pipeline.choose_k, Reduction.run, Certify.certify.  Inside the run,
   build = run entry to the first presolve call, presolve = outer −
   inner, solve = inner, loop = the rest. *)
let traced_reduce_op sp pr ~op inst =
  Spans.time sp ~op ~parent:(-1) Spans.root @@ fun root ->
  let h = Spans.time sp ~op ~parent:root "hio.parse" (fun _ -> Hio.of_text inst.text) in
  let k = Spans.time sp ~op ~parent:root "pipeline.choose_k" (fun _ -> Pipeline.choose_k inst.k h) in
  let run_id = Spans.fresh_id sp in
  let first_outer = ref None and g_n = ref 0 and kernel_n = ref (-1) in
  let on_outer g =
    if Option.is_none !first_outer then begin
      first_outer := Some (M.now ());
      g_n := G.n_vertices g
    end
  in
  let on_inner g = if !kernel_n < 0 then kernel_n := G.n_vertices g in
  let s = traced_solver sp ~op ~parent:run_id ~on_outer ~on_inner inst.solver in
  let t0 = M.now () in
  let run = Reduction.run ~seed:inst.seed ~solver:s ~k h in
  let t1 = M.now () in
  Spans.add sp ~id:run_id ~op ~parent:root "reduction.run" t0 t1;
  Spans.add sp ~op ~parent:run_id "conflict_graph.build" t0
    (Option.value !first_outer ~default:t1);
  let cert = Spans.time sp ~op ~parent:root "certify.certify" (fun _ -> Certify.certify run) in
  if not cert.Certify.all_ok then failwith "certificate failed";
  (* Probes, after the op's last span. *)
  let p0 = List.hd run.Reduction.phases in
  pr.colors <- float_of_int run.Reduction.colors_used :: pr.colors;
  pr.phases <- float_of_int run.Reduction.total_phases :: pr.phases;
  pr.lambda <- cert.Certify.lambda_max :: pr.lambda;
  pr.gk_vertices <- float_of_int p0.Reduction.conflict_vertices :: pr.gk_vertices;
  pr.gk_edges <- float_of_int p0.Reduction.conflict_edges :: pr.gk_edges;
  if !g_n > 0 then
    pr.shrink <- (float_of_int !kernel_n /. float_of_int !g_n) :: pr.shrink

let reduce_layers sp pr =
  let ms name = Spans.mean_self_ms sp name in
  [ ("hio.parse_ms", ms "hio.parse");
    ("pipeline.choose_k_ms", ms "pipeline.choose_k");
    ("conflict_graph.build_ms", ms "conflict_graph.build");
    ("kernel.presolve_ms", ms "kernel.presolve");
    ("maxis.solve_ms", ms "maxis.solve");
    ("reduction.loop_ms", ms "reduction.run");
    ("certify.certify_ms", ms "certify.certify");
    ("reduction.phases", mean_of pr.phases);
    ("reduction.lambda_effective", mean_of pr.lambda);
    ("reduction.colors_used", mean_of pr.colors);
    ("conflict_graph.vertices", mean_of pr.gk_vertices);
    ("conflict_graph.edges", mean_of pr.gk_edges);
    ("kernel.shrink_ratio", mean_of pr.shrink) ]

(* ------------------------------------------------------------------ *)
(* mis-gnp and mis-rmat: `pslocal mis --solver caro-wei` on an edge list *)

let mis_solver = Kernel.apply `Kernel (solver "caro-wei")

(* Checked on the graph as read, not on the kernel. *)
let mis_ok g is = Is.is_independent g is && Is.is_maximal g is

let write_mis_input p ~kind ~seed ~dir =
  let rng = Rng.create seed in
  let g =
    match kind with
    | `Gnp ->
        let n = float_of_int p.gnp_n in
        Gen.huge_gnp rng p.gnp_n (2. *. float_of_int p.gnp_edges /. (n *. (n -. 1.)))
    | `Rmat -> Gen.rmat rng ~scale:p.rmat_scale ~edges:p.rmat_edges
  in
  let path = Filename.concat dir (Printf.sprintf "mis-input.%d.txt" seed) in
  Gio.write_file path g;
  path

let mis_op ~seed path =
  let g = Gio.read_file path in
  let is = mis_solver.Approx.solve (Rng.create seed) g in
  if not (mis_ok g is) then failwith ("set not independent and maximal on " ^ path)

let traced_mis_op sp pr ~seed ~op path =
  Spans.time sp ~op ~parent:(-1) Spans.root @@ fun root ->
  let g = Spans.time sp ~op ~parent:root "gio.read" (fun _ -> Gio.read_file path) in
  let kernel_n = ref 0 in
  let s =
    traced_solver sp ~op ~parent:root ~on_outer:ignore
      ~on_inner:(fun kg -> kernel_n := G.n_vertices kg)
      (solver "caro-wei")
  in
  let is = s.Approx.solve (Rng.create seed) g in
  let ok = Spans.time sp ~op ~parent:root "independent_set.check" (fun _ -> mis_ok g is) in
  if not ok then failwith ("set not independent and maximal on " ^ path);
  let n = float_of_int (G.n_vertices g) in
  pr.shrink <- (float_of_int !kernel_n /. n) :: pr.shrink;
  pr.is_frac <- (float_of_int (Is.size is) /. n) :: pr.is_frac

let mis_layers sp pr =
  let ms name = Spans.mean_self_ms sp name in
  [ ("gio.read_ms", ms "gio.read");
    ("kernel.presolve_ms", ms "kernel.presolve");
    ("maxis.solve_ms", ms "maxis.solve");
    ("independent_set.check_ms", ms "independent_set.check");
    ("kernel.shrink_ratio", mean_of pr.shrink);
    ("maxis.is_size_frac", mean_of pr.is_frac) ]

(* ------------------------------------------------------------------ *)
(* The closed-loop workloads *)

(* A closed-loop workload cycles through [cycle] checked ops over inputs
   made by [prepare]. *)
type 'a closed = {
  prepare : unit -> 'a;
  dispose : 'a -> unit;
  cycle : 'a -> int;
  op : 'a -> int -> unit;  (** op [i] of a cycle; raises on a bad output *)
  traced_op : 'a -> Spans.t -> probe -> op:int -> int -> unit;
  layers : Spans.t -> probe -> (string * float) list;
}

(* Set-up is the inputs plus one untimed warm-up cycle.  Then rounds of
   one cycle each run for [seconds], timed op by op.  A traced run then
   runs one more cycle, traced; the timed rounds are its overhead
   baseline. *)
let run_closed p w ~seconds ~spans =
  let ops = M.tally () and lat = ref [] in
  let cycle ~timed ctx =
    for i = 0 to w.cycle ctx - 1 do
      let t0 = M.now () in
      match M.attempt ops (fun () -> w.op ctx i) with
      | Some () -> if timed then lat := M.ms t0 (M.now ()) :: !lat
      | None -> ()
    done
  in
  let ctx, setup_s =
    M.setup ~reps:p.setups
      (fun () ->
        let ctx = w.prepare () in
        cycle ~timed:false ctx;
        ctx)
      ~dispose:w.dispose
  in
  Fun.protect ~finally:(fun () -> w.dispose ctx) @@ fun () ->
  let rates =
    M.rounds ~min_rounds:p.min_rounds ~seconds (fun () ->
        cycle ~timed:true ctx;
        w.cycle ctx)
  in
  let lat = Array.of_list !lat in
  let measured =
    [ ("setup_s", setup_s);
      ("ops_per_s", M.median rates);
      ("peak_rss_mb", M.peak_rss_mb (Unix.getpid ()));
      ("latency.p50_ms", M.percentile lat 0.5);
      ("latency.p90_ms", M.percentile lat 0.9);
      ("latency.p99_ms", M.percentile lat 0.99);
      ("latency.samples", float_of_int (Array.length lat)) ]
  in
  match spans with
  | None -> { M.ops; metrics = measured }
  | Some sp ->
      let pr = probe () in
      for i = 0 to w.cycle ctx - 1 do
        ignore (M.attempt ops (fun () -> w.traced_op ctx sp pr ~op:i i) : unit option)
      done;
      let traced = M.mean (Spans.durations_ms sp Spans.root) in
      { M.ops;
        metrics =
          measured @ w.layers sp pr
          @ [ ("trace.coverage", Spans.coverage sp);
              ("trace.overhead_frac", (traced /. M.mean lat) -. 1.) ] }

let reduce_workload instances =
  { prepare = (fun () -> Array.of_list (instances ()));
    dispose = ignore;
    cycle = Array.length;
    op = (fun insts i -> reduce_op insts.(i));
    traced_op = (fun insts sp pr ~op i -> traced_reduce_op sp pr ~op insts.(i));
    layers = reduce_layers }

let mis_workload p ~kind ~seed ~dir =
  { prepare = (fun () -> write_mis_input p ~kind ~seed ~dir);
    dispose = Sys.remove;
    cycle = (fun _ -> 1);
    op = (fun path _ -> mis_op ~seed path);
    traced_op = (fun path sp pr ~op _ -> traced_mis_op sp pr ~seed ~op path);
    layers = mis_layers }

(* ------------------------------------------------------------------ *)
(* One workload, one result *)

let run_workload p ~name ~seed ~seconds ~spans ~dir =
  match name with
  | "reduce-default" ->
      run_closed p (reduce_workload (fun () -> default_instances p seed)) ~seconds ~spans
  | "reduce-lambda" ->
      run_closed p (reduce_workload (fun () -> lambda_instances p seed)) ~seconds ~spans
  | "mis-gnp" -> run_closed p (mis_workload p ~kind:`Gnp ~seed ~dir) ~seconds ~spans
  | "mis-rmat" -> run_closed p (mis_workload p ~kind:`Rmat ~seed ~dir) ~seconds ~spans
  | "serve-zipf" ->
      Serve_load.run
        { Serve_load.ladder = p.ladder;
          nominal_rps = p.nominal_rps;
          closed_share = p.closed_share;
          setups = p.setups;
          dir }
        ~seed ~seconds ~spans
  | _ -> invalid_arg ("suite: unknown workload " ^ name)

(* Reads the checkout's own .git only; "unknown" outside a git checkout
   or when HEAD's ref is packed. *)
let git_commit () =
  let read path =
    try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head ->
      Option.value ~default:"unknown"
        (read (Filename.concat ".git" (String.sub head 5 (String.length head - 5))))
  | Some commit -> commit
  | None -> "unknown"

let host_json ~name ~seed =
  Printf.sprintf
    "{\"workload\":%S,\"seed\":%d,\"nproc\":%d,\"ocaml\":%S,\"flambda\":%b,\"commit\":%S}"
    name seed (Ps_util.Parallel.available ()) Sys.ocaml_version Config.flambda
    (git_commit ())

let num v = Printf.sprintf "%.17g" v

(* The catalogue's metrics with their values: the per-layer set on a
   traced run, the end-to-end set otherwise.  A layer the workload never
   enters reads 0; a missing end-to-end value is a bug. *)
let select ~traced (o : M.outcome) =
  List.map
    (fun (name, unit_) ->
      let v =
        match List.assoc_opt name o.metrics with
        | Some v -> v
        | None when traced -> 0.
        | None -> failwith ("suite: no value for " ^ name)
      in
      if not (Float.is_finite v) then
        failwith (Printf.sprintf "suite: %s is not finite" name);
      (name, v, unit_))
    (if traced then per_layer else end_to_end)

let correct ~traced (o : M.outcome) =
  o.ops.failed = 0
  && ((not traced) || List.assoc "trace.coverage" o.metrics >= min_coverage)

let result_json ~correct (o : M.outcome) metrics =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    correct o.ops.attempted o.ops.failed
    (String.concat ","
       (List.map
          (fun (name, v, unit_) ->
            Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (num v) unit_)
          metrics))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let main_one ~name ~seed ~seconds ~traced ~dir =
  let spans = if traced then Some (Spans.create ()) else None in
  Printf.printf "host %s\n%!" (host_json ~name ~seed);
  let o = run_workload full ~name ~seed ~seconds ~spans ~dir in
  Option.iter
    (fun sp ->
      Spans.write_jsonl sp ~workload:name
        (Filename.concat dir (Printf.sprintf "bench-trace.%s.jsonl" name)))
    spans;
  let metrics = select ~traced o in
  List.iter (fun (name, v, unit_) -> Printf.printf "%-28s %s %s\n" name (num v) unit_) metrics;
  print_endline (result_json ~correct:(correct ~traced o) o metrics)

(* Every workload in its own child process, so each one's peak RSS is
   its own and no heap carries over; the last line combines the five. *)
let main_all ~seed ~seconds ~traced ~dir =
  let results =
    List.map
      (fun name ->
        let args =
          [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
             "--seconds"; num seconds; "--trace"; (if traced then "1" else "0");
             "--out"; dir |]
        in
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let last = ref "" in
        (try
           while true do
             let line = input_line ic in
             print_endline line;
             last := line
           done
         with End_of_file -> ());
        (match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> ()
        | _ -> failwith ("suite: workload " ^ name ^ " failed"));
        (name, Result.get_ok (Json.parse !last)))
      workloads
  in
  let field name j = Option.get (Json.member name j) in
  let int name j = Option.get (Json.to_int_opt (field name j)) in
  let metrics =
    List.concat_map
      (fun (w, j) ->
        match field "metrics" j with
        | Json.Obj ms -> List.map (fun (m, v) -> (w ^ "/" ^ m, v)) ms
        | _ -> [])
      results
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct",
             Json.Bool (List.for_all (fun (_, j) -> field "correct" j = Json.Bool true) results));
            ("attempted", Json.Int (List.fold_left (fun a (_, j) -> a + int "attempted" j) 0 results));
            ("failed", Json.Int (List.fold_left (fun a (_, j) -> a + int "failed" j) 0 results));
            ("metrics", Json.Obj metrics) ]))

(* ------------------------------------------------------------------ *)
(* Smoke test (`dune build @bench/suite/smoke`): the checkers count bad
   outputs, every workload runs on tiny inputs with both metric sets,
   and the catalogue matches BENCHMARK.json. *)

let smoke_checkers () =
  let t = M.tally () in
  let path = G.of_edges 3 [ (0, 1); (1, 2) ] in
  let check_mis is = if not (mis_ok path is) then failwith "non-maximal set" in
  ignore (M.attempt t (fun () -> check_mis (Is.of_list path [ 0; 2 ])) : unit option);
  ignore (M.attempt t (fun () -> check_mis (Is.of_list path [ 0 ])) : unit option);
  let reply colors =
    Printf.sprintf "{\"id\":7,\"ok\":true,\"result\":{\"certified\":true,\"colors_used\":%d}}" colors
  in
  let first =
    match Json.parse "{\"certified\":true,\"colors_used\":3}" with
    | Ok j -> fun _ -> Some j
    | Error e -> failwith e
  in
  List.iter
    (fun line ->
      ignore
        (M.attempt t (fun () ->
             match Serve_load.check_reply ~first line with
             | 7, Ok _ -> ()
             | _, Ok _ -> failwith "wrong id"
             | _, Error e -> failwith e)
          : unit option))
    [ reply 3; reply 4 ];
  if t.M.attempted <> 4 || t.M.failed <> 2 then
    failwith
      (Printf.sprintf "smoke: checkers flagged %d of 4 outputs, expected 2" t.M.failed)

let smoke_catalogue path =
  let j = Result.get_ok (Json.parse (In_channel.with_open_text path In_channel.input_all)) in
  let entries key =
    List.map
      (fun e ->
        let str k = Option.get (Option.bind (Json.member k e) Json.to_string_opt) in
        match Json.member "unit" e with
        | Some _ -> (str "name", str "unit")
        | None -> (str "name", ""))
      (Option.get (Option.bind (Json.member key j) Json.to_list_opt))
  in
  let same what a b =
    if a <> b then failwith ("smoke: BENCHMARK.json " ^ what ^ " differ from the suite's")
  in
  same "end_to_end metrics" (entries "end_to_end") end_to_end;
  same "per_layer metrics" (entries "per_layer") per_layer;
  same "workloads" (List.map fst (entries "workloads")) workloads

let main_smoke ~benchmark ~dir =
  smoke_checkers ();
  smoke_catalogue benchmark;
  List.iter
    (fun name ->
      List.iter
        (fun traced ->
          let spans = if traced then Some (Spans.create ()) else None in
          let o = run_workload smoke ~name ~seed:1 ~seconds:0.5 ~spans ~dir in
          let metrics = select ~traced o in
          if not (correct ~traced o) then
            failwith
              (Printf.sprintf "smoke: %s (trace %b): %d of %d ops failed, coverage %s" name
                 traced o.ops.failed o.ops.attempted
                 (match List.assoc_opt "trace.coverage" o.metrics with
                 | Some c -> num c
                 | None -> "-"));
          Printf.printf "smoke %s trace=%b: %d metrics, %d ops ok\n%!" name traced
            (List.length metrics) o.ops.attempted)
        [ false; true ])
    workloads

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15. and trace = ref 0 in
  let dir = ref (Filename.concat "_build" "bench-suite") and benchmark = ref "" in
  let usage = "suite.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME  " ^ String.concat ", " workloads ^ " (default: all, one child each)");
      ("--seed", Arg.Set_int seed, "N  workload inputs are drawn from this seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time per run");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics, or the traced per-layer pass");
      ("--out", Arg.Set_string dir, "DIR  socket, edge lists and span files");
      ("--smoke", Arg.Set_string benchmark, "BENCHMARK.json  run the smoke test") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  mkdir_p !dir;
  let traced = !trace = 1 in
  if not (String.equal !benchmark "") then main_smoke ~benchmark:!benchmark ~dir:!dir
  else if String.equal !workload "" then
    main_all ~seed:!seed ~seconds:!seconds ~traced ~dir:!dir
  else if List.mem !workload workloads then
    main_one ~name:!workload ~seed:!seed ~seconds:!seconds ~traced ~dir:!dir
  else begin
    prerr_endline ("suite: unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  end
