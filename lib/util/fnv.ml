(* Fowler–Noll–Vo 1a, 64-bit.  Byte-oriented streaming hash used for
   content-addressing graphs and cache entries.  The raw FNV state has
   weak diffusion in the low bits, so [finish] runs a SplitMix64-style
   avalanche before the value is used as a key or truncated. *)

type state = int64

let prime = 0x100000001b3L
let init : state = 0xcbf29ce484222325L

let byte (h : state) (b : int) : state =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

(* Native ints are hashed as their 8 little-endian bytes of the two's
   complement representation. *)
let int (h : state) (v : int) : state =
  let h = ref h in
  for i = 0 to 7 do
    h := byte !h ((v lsr (i * 8)) land 0xff)
  done;
  !h

let int64 (h : state) (v : int64) : state =
  let h = ref h in
  for i = 0 to 7 do
    h := byte !h (Int64.to_int (Int64.shift_right_logical v (i * 8)) land 0xff)
  done;
  !h

let string (h : state) (s : string) : state =
  let h = ref h in
  String.iter (fun c -> h := byte !h (Char.code c)) s;
  !h

let finish (h : state) : int64 =
  let z = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 30))
      0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let to_hex (v : int64) = Printf.sprintf "%016Lx" v

let string_hash (s : string) : int64 = finish (string init s)
