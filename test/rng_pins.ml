(* The Rng streams pinned by ../data/rng_pins.txt: the first 64 outputs
   of every draw, and of split, split_at and streams children, for five
   seeds.  Uses only the Rng interface, so the same module prints the
   file from any revision; [lines ()] is what a revision must reproduce
   line for line. *)

module Rng = Ps_util.Rng

let seeds = [ 0; 1; 42; -7; max_int ]
let count = 64

let line seed kind values = Printf.sprintf "%d %s %s" seed kind (String.concat " " values)

let draws t f = List.init count (fun _ -> f t)
let ints = List.map string_of_int
let bits t = draws t (fun t -> Int64.to_string (Rng.bits64 t))
let bit b = if b then "1" else "0"

let lines_of_seed seed =
  let fresh () = Rng.create seed in
  let draw kind f = line seed kind (draws (fresh ()) f) in
  let int_draw kind f = draw kind (fun t -> string_of_int (f t)) in
  let split_lines =
    let t = fresh () in
    let child = Rng.split t in
    [ line seed "split.child" (bits child); line seed "split.parent" (bits t) ]
  in
  let split_at_lines =
    let t = fresh () in
    List.concat_map
      (fun i ->
        [ line seed (Printf.sprintf "split_at.%d" i) (bits (Rng.split_at t i)) ])
      [ 0; 1; 5; 1000 ]
    @ [ line seed "split_at.parent" (bits t) ]
  in
  let streams_lines =
    let t = fresh () in
    let children = Rng.streams t 3 in
    Array.to_list
      (Array.mapi
         (fun i c -> line seed (Printf.sprintf "streams.%d" i) (bits c))
         children)
  in
  let copy_lines =
    let t = fresh () in
    ignore (Rng.bits64 t : int64);
    let c = Rng.copy t in
    [ line seed "copy" (bits c) ]
  in
  let mixed =
    (* Every draw kind on one generator, so a state slip between kinds
       shows. *)
    let t = fresh () in
    line seed "mixed"
      (List.init count (fun i ->
           match i mod 7 with
           | 0 -> string_of_int (Rng.int t 1000)
           | 1 -> Printf.sprintf "%h" (Rng.float t 1.0)
           | 2 -> bit (Rng.bool t)
           | 3 -> bit (Rng.bernoulli t 0.25)
           | 4 -> string_of_int (Rng.geometric t 0.05)
           | 5 -> Int64.to_string (Rng.bits64 t)
           | _ -> string_of_int (Rng.int_in t (-3) 3)))
  in
  [ line seed "bits64" (bits (fresh ()));
    int_draw "int.1" (fun t -> Rng.int t 1);
    int_draw "int.1000" (fun t -> Rng.int t 1000);
    (* About a third of the 62-bit draws are rejected at this bound. *)
    int_draw "int.big" (fun t -> Rng.int t ((max_int / 3 * 2) + 1));
    int_draw "int_in" (fun t -> Rng.int_in t (-5) 5);
    draw "float.1" (fun t -> Printf.sprintf "%h" (Rng.float t 1.0));
    draw "float.3.5" (fun t -> Printf.sprintf "%h" (Rng.float t 3.5));
    draw "bool" (fun t -> bit (Rng.bool t));
    draw "bernoulli.0.3" (fun t -> bit (Rng.bernoulli t 0.3));
    int_draw "geometric.0.1" (fun t -> Rng.geometric t 0.1);
    int_draw "geometric.0.5" (fun t -> Rng.geometric t 0.5);
    int_draw "geometric.1e-6" (fun t -> Rng.geometric t 1e-6);
    line seed "permutation" (ints (Array.to_list (Rng.permutation (fresh ()) count)));
    line seed "sample.sparse"
      (ints (Array.to_list (Rng.sample_without_replacement (fresh ()) 10 1000)));
    line seed "sample.dense"
      (ints (Array.to_list (Rng.sample_without_replacement (fresh ()) 40 64)));
    int_draw "choice" (fun t -> Rng.choice t [| 3; 1; 4; 1; 5; 9; 2; 6 |]);
    mixed ]
  @ split_lines @ split_at_lines @ streams_lines @ copy_lines

let lines () = List.concat_map lines_of_seed seeds
