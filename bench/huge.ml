(* Scale benchmark: build and solve 10^6–10^7+-edge instances end to
   end, recording wall time, throughput, and peak RSS.

     dune exec bench/huge.exe                 # quick + full -> BENCH_huge.json
     dune exec bench/huge.exe -- --quick      # quick rows only (CI lane)
     dune exec bench/huge.exe -- --out F.json

   A separate executable on purpose: peak RSS is read from VmHWM in
   /proc/self/status, which is a process-wide high-water mark — running
   inside bench/main.exe would report whatever the largest experiment
   touched, not this workload.  Instances run smallest-first so each
   RSS reading is attributable to its own instance.

   Row classes (consumed by scripts/bench_gate.py):
     *_ns          timings, gated on the median-normalized profile
     edges_per_sec throughput, informational (machine-dependent)
     peak_rss_mb   lower-is-better, gated directly
     meta_*        instance facts, never gated

   The committed BENCH_huge.json holds the quick rows AND the full
   >=10^7-edge rows; the per-PR CI lane regenerates only the quick rows
   (the gate compares the intersection), while `make bench-huge-full`
   regenerates everything (documented nightly-sized run). *)

module G = Ps_graph.Graph
module Gen = Ps_graph.Gen
module Rng = Ps_util.Rng
module Is = Ps_maxis.Independent_set
module Cw = Ps_maxis.Caro_wei
module Kernel = Ps_maxis.Kernel

let now_ns () = Int64.to_float (Ps_util.Telemetry.now_ns ())

(* Peak resident set (VmHWM) in MB, from /proc/self/status; 0.0 when the
   file or the field is missing (non-Linux), keeping the bench portable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> 0.0
            | Some line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:"
                then
                  (* "VmHWM:   123456 kB" *)
                  let digits =
                    String.to_seq line
                    |> Seq.filter (fun c -> c >= '0' && c <= '9')
                    |> String.of_seq
                  in
                  float_of_string digits /. 1024.0
                else scan ()
          in
          scan ())

type instance = {
  label : string;
  build : unit -> G.t;  (* generator + direct-to-CSR construction *)
}

let quick_instances =
  [ { label = "huge/rmat_s18_m2e6";
      build = (fun () -> Gen.rmat (Rng.create 42) ~scale:18 ~edges:2_000_000) };
    { label = "huge/gnp_n500k_m2e6";
      build =
        (fun () ->
          let n = 500_000 in
          let p = 2_000_000.0 /. (float_of_int n *. float_of_int (n - 1) /. 2.0) in
          Gen.huge_gnp (Rng.create 43) n p) } ]

let full_instances =
  [ { label = "huge/rmat_s21_m12e6";
      build = (fun () -> Gen.rmat (Rng.create 42) ~scale:21 ~edges:12_000_000) } ]

let run_instance rows inst =
  let t0 = now_ns () in
  let g = inst.build () in
  let t1 = now_ns () in
  let set = Cw.run_maximal ~layout:`Degree_sorted (Rng.create 7) g in
  let t2 = now_ns () in
  let independent = Is.is_independent g set in
  let maximal = Is.is_maximal g set in
  let t3 = now_ns () in
  if not (independent && maximal) then begin
    Printf.eprintf "%s: solve NOT certified (independent=%b maximal=%b)\n"
      inst.label independent maximal;
    exit 1
  end;
  let m = G.n_edges g in
  let build_ns = t1 -. t0 and solve_ns = t2 -. t1 and check_ns = t3 -. t2 in
  let eps = float_of_int m /. ((build_ns +. solve_ns) /. 1e9) in
  Printf.printf
    "%s: n=%d m=%d build=%.2fs solve=%.2fs check=%.2fs %.2fMe/s is=%d \
     rss=%.0fMB\n%!"
    inst.label (G.n_vertices g) m
    (build_ns /. 1e9) (solve_ns /. 1e9) (check_ns /. 1e9) (eps /. 1e6)
    (Is.size set) (peak_rss_mb ());
  rows :=
    !rows
    @ [ (inst.label ^ " build_ns", build_ns);
        (inst.label ^ " solve_ns", solve_ns);
        (inst.label ^ " check_ns", check_ns);
        (inst.label ^ " edges_per_sec", eps);
        (inst.label ^ " peak_rss_mb", peak_rss_mb ());
        (inst.label ^ " meta_edges", float_of_int m);
        (inst.label ^ " meta_is_size", float_of_int (Is.size set));
        (inst.label ^ " meta_certified", 1.0) ];
  (* Kernelized lane: reduce, solve the kernel, lift, certify on the
     original.  Runs after the raw rows so the RSS reading above stays
     attributable to the raw pipeline. *)
  let k0 = now_ns () in
  let r = Kernel.reduce g in
  let k1 = now_ns () in
  let ks = Cw.run_maximal ~layout:`Degree_sorted (Rng.create 7) (Kernel.graph r) in
  let lifted = Kernel.lift r ks in
  let k2 = now_ns () in
  if not (Is.is_independent g lifted && Is.is_maximal g lifted) then begin
    Printf.eprintf "%s: kernelized solve NOT certified\n" inst.label;
    exit 1
  end;
  let shrink = Kernel.shrink_ratio (Kernel.stats r) in
  Printf.printf
    "%s: kernel reduce=%.2fs solve+lift=%.2fs shrink=%.3f is=%d\n%!"
    inst.label ((k1 -. k0) /. 1e9) ((k2 -. k1) /. 1e9) shrink
    (Is.size lifted);
  rows :=
    !rows
    @ [ (inst.label ^ " kernel_reduce_ns", k1 -. k0);
        (inst.label ^ " kernel_solve_lift_ns", k2 -. k1);
        (inst.label ^ " kernel_shrink_ratio", shrink);
        (inst.label ^ " meta_kernel_is_size", float_of_int (Is.size lifted)) ]

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
          Printf.fprintf oc "  \"%s\": %.1f%s\n" (json_escape name)
            (if Float.is_nan v then 0.0 else v)
            (if i = last then "" else ","))
        rows;
      output_string oc "}\n");
  Printf.printf "wrote %s (%d rows)\n%!" path (List.length rows)

let () =
  let quick = ref false and out = ref "BENCH_huge.json" in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--out" :: path :: rest ->
        out := path;
        parse rest
    | arg :: _ ->
        Printf.eprintf "usage: huge.exe [--quick] [--out FILE] (got %s)\n" arg;
        exit 1
  in
  parse (List.tl (Array.to_list Sys.argv));
  let rows = ref [] in
  List.iter (run_instance rows) quick_instances;
  if not !quick then List.iter (run_instance rows) full_instances;
  write_json !out !rows
