let now = Ps_util.Telemetry.now_ns
let secs t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9
let ms t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let attempt t f =
  t.attempted <- t.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
      t.failed <- t.failed + 1;
      prerr_endline ("suite: op failed: " ^ Printexc.to_string e);
      None

type outcome = { ops : tally; metrics : (string * float) list }

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let percentile a q = Ps_util.Stats.percentile_nearest (sorted a) q
let median a = Ps_util.Stats.median a

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let setup ~reps f ~dispose =
  let times = Array.make reps 0. in
  let rec go i =
    let t0 = now () in
    let v = f () in
    times.(i) <- secs t0 (now ());
    if i + 1 < reps then begin
      dispose v;
      go (i + 1)
    end
    else v
  in
  let v = go 0 in
  (v, median times)

let rounds ~min_rounds ~seconds round =
  let t_end = Int64.add (now ()) (Int64.of_float (seconds *. 1e9)) in
  let rec go acc n =
    if n >= min_rounds && Int64.compare (now ()) t_end >= 0 then
      Array.of_list (List.rev acc)
    else begin
      let t0 = now () in
      let ops = round () in
      go ((float_of_int ops /. secs t0 (now ())) :: acc) (n + 1)
    end
  in
  go [] 0

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  let lines = In_channel.with_open_text path In_channel.input_all in
  match
    List.find_map
      (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
      (String.split_on_char '\n' lines)
  with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith ("suite: no VmHWM in " ^ path)
