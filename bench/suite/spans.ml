type span = {
  op : int;
  id : int;
  parent : int;
  name : string;
  start_ns : int64;
  end_ns : int64;
}

type t = { next : int Atomic.t; lock : Mutex.t; mutable spans : span list }

let root = "op"
let create () = { next = Atomic.make 0; lock = Mutex.create (); spans = [] }
let fresh_id t = Atomic.fetch_and_add t.next 1

let add t ?id ~op ~parent name start_ns end_ns =
  let id = match id with Some i -> i | None -> fresh_id t in
  let s = { op; id; parent; name; start_ns; end_ns } in
  Mutex.protect t.lock (fun () -> t.spans <- s :: t.spans)

let time t ~op ~parent name f =
  let id = fresh_id t in
  let t0 = Ps_util.Telemetry.now_ns () in
  let r = f id in
  add t ~id ~op ~parent name t0 (Ps_util.Telemetry.now_ns ());
  r

let dur_ms s = Int64.to_float (Int64.sub s.end_ns s.start_ns) /. 1e6
let is_root s = String.equal s.name root
let ops t = List.length (List.filter is_root t.spans)

let self_ms t =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (dur_ms s +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.))
    t.spans;
  List.map
    (fun s ->
      (s, dur_ms s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.))
    t.spans

let mean_self_ms t name =
  let total =
    List.fold_left
      (fun acc (s, self) -> if String.equal s.name name then acc +. self else acc)
      0. (self_ms t)
  in
  match ops t with 0 -> 0. | n -> total /. float_of_int n

let durations_ms t name =
  let a =
    Array.of_list
      (List.filter_map
         (fun s -> if String.equal s.name name then Some (dur_ms s) else None)
         t.spans)
  in
  Array.sort Float.compare a;
  a

let coverage t =
  let wall, uncovered =
    List.fold_left
      (fun (wall, unc) (s, self) ->
        if is_root s then (wall +. dur_ms s, unc +. self) else (wall, unc))
      (0., 0.) (self_ms t)
  in
  if wall > 0. then 1. -. (uncovered /. wall) else 0.

let write_jsonl t ~workload path =
  let spans =
    List.stable_sort (fun a b -> Int64.compare a.start_ns b.start_ns)
      (List.rev t.spans)
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"workload\":%S,\"op\":%d,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
            workload s.op s.id s.parent s.name s.start_ns s.end_ns)
        spans)
