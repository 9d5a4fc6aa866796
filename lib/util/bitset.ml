type t = { words : int array; capacity : int }

(* 62 usable bits per OCaml int keeps everything unboxed. *)
let bits_per_word = 62

(* A full word: bits 0..61 set. [1 lsl 62] overflows into the sign bit,
   so build the mask by complement instead. *)
let full_word = lnot (lnot 0 lsl bits_per_word)

let create capacity =
  if capacity < 0 then invalid_arg "Bitset.create";
  (* Exactly ceil(capacity/62) words: an extra word here used to waste
     space on every set and slow down all the word-wise operations. *)
  { words = Array.make ((capacity + bits_per_word - 1) / bits_per_word) 0;
    capacity }

let capacity t = t.capacity

(* The single-element operations are the probes of every graph loop:
   one explicit range check, then unchecked word access ([0 <= i <
   capacity] puts [i / 62] inside [words]).  The raise sits in its own
   function so the probes stay small enough to inline. *)
let out_of_range () = invalid_arg "Bitset: index out of range"

let[@inline] mem t i =
  if i < 0 || i >= t.capacity then out_of_range ();
  Array.unsafe_get t.words (i / bits_per_word)
  land (1 lsl (i mod bits_per_word))
  <> 0

let[@inline] add t i =
  if i < 0 || i >= t.capacity then out_of_range ();
  let w = i / bits_per_word in
  Array.unsafe_set t.words w
    (Array.unsafe_get t.words w lor (1 lsl (i mod bits_per_word)))

let[@inline] remove t i =
  if i < 0 || i >= t.capacity then out_of_range ();
  let w = i / bits_per_word in
  Array.unsafe_set t.words w
    (Array.unsafe_get t.words w land lnot (1 lsl (i mod bits_per_word)))

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let clear t = Array.fill t.words 0 (Array.length t.words) 0

(* Word-wise fill: every word fully set, then mask the final word down to
   the capacity so no stray bits sit above it — [equal], [subset] and
   [cardinal] compare words directly and would see phantom elements. *)
let fill t =
  let n = Array.length t.words in
  Array.fill t.words 0 n full_word;
  let r = t.capacity mod bits_per_word in
  if r <> 0 then t.words.(n - 1) <- full_word lsr (bits_per_word - r)

let copy t = { words = Array.copy t.words; capacity = t.capacity }

let same_universe a b =
  if a.capacity <> b.capacity then
    invalid_arg "Bitset: capacity mismatch"

let equal a b =
  same_universe a b;
  Array.for_all2 (fun x y -> x = y) a.words b.words

let union_into dst src =
  same_universe dst src;
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) lor w) src.words

let inter_into dst src =
  same_universe dst src;
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) land w) src.words

let diff_into dst src =
  same_universe dst src;
  Array.iteri (fun i w -> dst.words.(i) <- dst.words.(i) land lnot w) src.words

let disjoint a b =
  same_universe a b;
  let n = Array.length a.words in
  let rec go i = i >= n || (a.words.(i) land b.words.(i) = 0 && go (i + 1)) in
  go 0

let subset a b =
  same_universe a b;
  let n = Array.length a.words in
  let rec go i = i >= n || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1)) in
  go 0

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = t.words.(w) in
    if word <> 0 then
      for b = 0 to bits_per_word - 1 do
        if word land (1 lsl b) <> 0 then f ((w * bits_per_word) + b)
      done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list n elts =
  let t = create n in
  List.iter (add t) elts;
  t

let of_mask mask =
  let t = create (Bytes.length mask) in
  for w = 0 to Array.length t.words - 1 do
    let base = w * bits_per_word in
    let word = ref 0 in
    for b = 0 to min bits_per_word (t.capacity - base) - 1 do
      if Bytes.unsafe_get mask (base + b) <> '\000' then
        word := !word lor (1 lsl b)
    done;
    Array.unsafe_set t.words w !word
  done;
  t

let choose_opt t =
  let exception Found of int in
  try
    iter (fun i -> raise (Found i)) t;
    None
  with Found i -> Some i

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    (to_list t)
