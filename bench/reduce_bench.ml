(* End-to-end reduction benchmark: the product's phase loop (build G_k
   once, compact it in place) head to head with the rebuild-every-phase
   oracle of [Ps_oracle.Reduction], across instance sizes and solver
   strengths, written to BENCH_reduce.json.

   Solver strength controls the phase count and hence how much the
   incremental engine can possibly win: near-optimal solvers (the two
   full heuristics) finish in 1-3 phases, so reuse can at best save the
   later builds of those few phases; the λ-degraded solver (caro-wei
   keeping 5% of its answer — the paper's λ-approximation premise)
   stretches the run to dozens of phases with slow geometric decay
   (claim E3's trajectory, measured in wall-clock), which is where
   cross-phase reuse shows its full effect.

   Every rebuild/incremental pair is asserted bit-identical (multicoloring and phase
   records) before its timing is reported — benchmarking a divergent
   answer would be meaningless. *)

module Rng = Ps_util.Rng
module Hgen = Ps_hypergraph.Hgen
module Red = Ps_core.Reduction
module Approx = Ps_maxis.Approx
module Kernel = Ps_maxis.Kernel
module Gen = Ps_graph.Gen
module G = Ps_graph.Graph
module Is = Ps_maxis.Independent_set

let seed = 7

(* Same instance family as the micro-bench build-scaling points. *)
let instance m =
  let n = 4 * m / 3 in
  Hgen.uniform_random (Rng.create seed) ~n ~m ~k:4

let solvers () =
  [ ("greedy-min-degree", Approx.greedy_min_degree);
    ("caro-wei", Approx.caro_wei);
    ("caro-wei@0.05", Approx.degrade ~keep:0.05 Approx.caro_wei) ]

let time_ms f =
  let t0 = Ps_util.Telemetry.now_ns () in
  let r = f () in
  let t1 = Ps_util.Telemetry.now_ns () in
  (r, Int64.to_float (Int64.sub t1 t0) /. 1e6)

(* Best-of-N wall clock: the minimum is the standard noise-robust
   estimate for a deterministic computation. *)
let best_of reps f =
  let result = ref None and best = ref infinity in
  for _ = 1 to reps do
    let r, ms = time_ms f in
    if ms < !best then best := ms;
    result := Some r
  done;
  (Option.get !result, !best)

let run ?(quick = false) () =
  (* As in the micro run: timings track the production path, so force
     the telemetry recorder off for the measurement window. *)
  let telemetry_was = Ps_util.Telemetry.enabled () in
  Ps_util.Telemetry.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Ps_util.Telemetry.set_enabled telemetry_was)
  @@ fun () ->
  let sizes = if quick then [ 96; 384 ] else [ 96; 384; 768; 1536 ] in
  let reps = if quick then 1 else 3 in
  let rows = ref [] in
  let push name v = rows := (name, v) :: !rows in
  let table =
    Ps_util.Table.create
      ~aligns:
        Ps_util.Table.[ Left; Left; Right; Right; Right; Right ]
      [ "instance"; "solver"; "phases"; "rebuild ms"; "incremental ms";
        "speedup" ]
  in
  List.iter
    (fun m ->
      let h = instance m in
      List.iter
        (fun (sname, solver) ->
          let reb, t_reb =
            best_of reps (fun () ->
                Ps_oracle.Reduction.run ~seed:0 ~presolve:`None ~solver ~k:3 h)
          in
          let inc, t_inc =
            best_of reps (fun () ->
                Red.run ~seed:0 ~presolve:`None ~solver ~k:3 h)
          in
          if
            reb.Red.multicoloring <> inc.Red.multicoloring
            || reb.Red.phases <> inc.Red.phases
          then
            failwith
              (Printf.sprintf
                 "reduce bench: rebuild oracle disagrees at m=%d solver=%s" m
                 sname);
          let speedup = t_reb /. t_inc in
          let tag = Printf.sprintf "reduce (m=%d,k=3,%s)" m sname in
          push (tag ^ " rebuild ms") t_reb;
          push (tag ^ " incremental ms") t_inc;
          push (tag ^ " speedup") speedup;
          Ps_util.Table.add_row table
            [ Printf.sprintf "m=%d,k=3" m;
              sname;
              string_of_int reb.Red.total_phases;
              Ps_util.Table.cell_float ~decimals:2 t_reb;
              Ps_util.Table.cell_float ~decimals:2 t_inc;
              Ps_util.Table.cell_float ~decimals:2 speedup ])
        (solvers ()))
    sizes;
  Ps_util.Table.print
    ~title:"End-to-end reduction: rebuild vs incremental engine (best-of-N)"
    table;

  (* --------------------------------------------------------------- *)
  (* Kernelization lanes: presolve on vs off, same solver.

     (a) End-to-end reduction on the λ-degraded lane — the acceptance
     lane for the kernel front end.  The win is structural, not just
     constant-factor: kernelizing each phase's conflict graph both
     shrinks the solve and (through the lift's repair pass) restores
     maximality, collapsing the degraded solver's dozens of phases.

     (b) Raw MaxIS on sparse graphs where the degree rules bite
     (Gnp/R-MAT at average degree ~3): kernel+solver vs raw solver,
     plus the deterministic kernel_shrink_ratio rows the gate tracks
     directly. *)
  let ktable =
    Ps_util.Table.create
      ~aligns:Ps_util.Table.[ Left; Left; Right; Right; Right; Right ]
      [ "instance"; "solver"; "off ms"; "kernel ms"; "speedup"; "shrink" ]
  in
  List.iter
    (fun m ->
      let h = instance m in
      List.iter
        (fun (sname, keep) ->
          let solver = Approx.degrade ~keep Approx.caro_wei in
          let off, t_off =
            best_of reps (fun () ->
                Red.run ~seed:0 ~presolve:`None ~solver ~k:3 h)
          in
          let on, t_on =
            best_of reps (fun () ->
                Red.run ~seed:0 ~presolve:`Kernel ~solver ~k:3 h)
          in
          let speedup = t_off /. t_on in
          let tag = Printf.sprintf "reduce (m=%d,k=3,%s)" m sname in
          push (tag ^ " presolve-none ms") t_off;
          push (tag ^ " presolve-kernel ms") t_on;
          push (tag ^ " kernel_speedup") speedup;
          Ps_util.Table.add_row ktable
            [ Printf.sprintf "m=%d,k=3 (%d->%d phases)" m
                off.Red.total_phases on.Red.total_phases;
              sname;
              Ps_util.Table.cell_float ~decimals:2 t_off;
              Ps_util.Table.cell_float ~decimals:2 t_on;
              Ps_util.Table.cell_float ~decimals:2 speedup;
              "-" ])
        [ ("caro-wei@0.05", 0.05); ("caro-wei@0.02", 0.02) ])
    sizes;
  let mis_instances =
    let n = if quick then 20_000 else 60_000 in
    [ (Printf.sprintf "gnp n=%d,deg3" n,
       Gen.gnp (Rng.create seed) n (3.0 /. float_of_int n));
      (Printf.sprintf "rmat s=%d,deg4" (if quick then 13 else 15),
       Gen.rmat (Rng.create seed)
         ~scale:(if quick then 13 else 15)
         ~edges:(4 * (1 lsl if quick then 13 else 15))) ]
  in
  List.iter
    (fun (iname, g) ->
      let shrink =
        Kernel.shrink_ratio (Kernel.stats (Kernel.reduce g))
      in
      push (Printf.sprintf "mis (%s) kernel_shrink_ratio" iname) shrink;
      List.iter
        (fun (sname, solver) ->
          let raw, t_raw =
            best_of reps (fun () ->
                solver.Approx.solve (Rng.create 0) g)
          in
          let kern, t_kern =
            best_of reps (fun () ->
                (Kernel.presolve solver).Approx.solve (Rng.create 0) g)
          in
          if Is.size kern < Is.size raw then
            failwith
              (Printf.sprintf
                 "reduce bench: kernel lane shrank the answer on %s/%s" iname
                 sname);
          let speedup = t_raw /. t_kern in
          let tag = Printf.sprintf "mis (%s,%s)" iname sname in
          push (tag ^ " raw ms") t_raw;
          push (tag ^ " kernel ms") t_kern;
          push (tag ^ " kernel_speedup") speedup;
          Ps_util.Table.add_row ktable
            [ iname;
              sname;
              Ps_util.Table.cell_float ~decimals:2 t_raw;
              Ps_util.Table.cell_float ~decimals:2 t_kern;
              Ps_util.Table.cell_float ~decimals:2 speedup;
              Ps_util.Table.cell_float ~decimals:3 shrink ])
        [ ("greedy-min-degree", Approx.greedy_min_degree);
          ("caro-wei", Approx.caro_wei) ])
    mis_instances;
  Ps_util.Table.print
    ~title:"Kernelization presolve: off vs on (best-of-N)" ktable;
  List.rev !rows

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path rows =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n";
      let last = List.length rows - 1 in
      List.iteri
        (fun i (name, v) ->
          Printf.fprintf oc "  \"%s\": %.3f%s\n" (json_escape name)
            (if Float.is_nan v then 0.0 else v)
            (if i = last then "" else ","))
        rows;
      output_string oc "}\n");
  Printf.printf "wrote %s (%d entries)\n" path (List.length rows)
