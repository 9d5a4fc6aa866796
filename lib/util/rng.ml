(* The state is the SplitMix64 Weyl counter, kept in an 8-byte [Bytes.t]
   and read and written with the unboxed 64-bit primitives.  A draw
   inlines [next], so the counter and its mixed output stay in registers
   and a draw that returns an [int], a [bool] or an unboxed float
   allocates nothing.  A [{ mutable state : int64 }] record would box a
   fresh [int64] on every store. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

(* Finalizer from SplitMix64: xor-shift multiply mixing of the Weyl state. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] next t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let bits64 t = next t

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

(* [bits53 t] times 2^-53: exact, since both factors are exact. *)
let[@inline] unit_float t = Float.of_int (bits53 t) *. 0x1p-53

let split t = of_state (mix64 (next t))

let split_at t i =
  (* Derive child [i] from the current state without consuming it: mix the
     state with a second independent Weyl sequence indexed by [i]. *)
  let salt = Int64.mul (Int64.of_int (i + 1)) 0xD1B54A32D192ED03L in
  of_state (mix64 (Int64.logxor (get64 t 0) salt))

let streams t n =
  if n < 0 then invalid_arg "Rng.streams: n must be non-negative";
  Array.init n (split_at t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top 62 bits to avoid modulo bias. *)
  let mask = max_int in
  let r = ref (Int64.to_int (Int64.shift_right_logical (next t) 2) land mask) in
  let v = ref (!r mod bound) in
  while !r - !v > mask - bound + 1 do
    r := Int64.to_int (Int64.shift_right_logical (next t) 2) land mask;
    v := !r mod bound
  done;
  !v

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound = bound *. unit_float t

let bool t = Int64.to_int (next t) land 1 = 1

let bernoulli t p = unit_float t < p

let geometric t p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p = 1.0 then 0
  else
    let u = unit_float t in
    let u = if u = 0.0 then epsilon_float else u in
    int_of_float (Float.floor (log u /. log (1.0 -. p)))

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* The same swaps as [shuffle_in_place], on an array known to hold
   ints, so no access checks for a float array. *)
let permutation t n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = Array.unsafe_get a i in
    Array.unsafe_set a i (Array.unsafe_get a j);
    Array.unsafe_set a j tmp
  done;
  a

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  if 3 * k >= n then Array.sub (permutation t n) 0 k
  else begin
    (* Sparse case: hash-set based rejection keeps this O(k) in expectation. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let v = int t n in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int t (Array.length a))
