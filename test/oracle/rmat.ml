(* The float-compare R-MAT stream that [Ps_graph.Gen.iter_rmat]
   replaced: one [Rng.float rng 1.0] per bit level, tested against the
   cumulative quadrant probabilities.  Kept verbatim as the oracle for
   the integer-threshold generator, which must emit the same pairs. *)

module Rng = Ps_util.Rng

let iter_rmat rng ~scale ~edges f =
  if scale < 1 || scale > 30 then invalid_arg "Gen.iter_rmat: scale";
  if edges < 0 then invalid_arg "Gen.iter_rmat: edges";
  let a = 0.57 and b = 0.19 and c = 0.19 in
  for _ = 1 to edges do
    let u = ref 0 and v = ref 0 in
    let again = ref true in
    while !again do
      u := 0;
      v := 0;
      for _ = 1 to scale do
        let r = Rng.float rng 1.0 in
        let ubit, vbit =
          if r < a then (0, 0)
          else if r < a +. b then (0, 1)
          else if r < a +. b +. c then (1, 0)
          else (1, 1)
        in
        u := (!u lsl 1) lor ubit;
        v := (!v lsl 1) lor vbit
      done;
      if !u <> !v then again := false
    done;
    f !u !v
  done
