(* A 4-ary min-heap of packed entries [priority lsl 31 lor key].  Keys
   take the low 31 bits and priorities the 32 above them, so one signed
   int compare orders entries by (priority, key) — a negative priority
   shifts to a negative entry, and [lor] still adds the key because the
   shifted priority's low 31 bits are zero.  The priority of a key is
   its entry [asr 31]; there is no per-key priority array. *)

let key_bits = 31
let key_mask = (1 lsl key_bits) - 1
let max_capacity = 1 lsl key_bits
let min_priority = -(1 lsl 31)
let max_priority = (1 lsl 31) - 1

type t = {
  heap : int array;          (* packed entries, heap-ordered *)
  pos : int array;           (* pos.(key) = index in heap, or -1 *)
  capacity : int;            (* keys live in [0, capacity) *)
  mutable size : int;
}

let create n =
  if n < 0 then invalid_arg "Pqueue.create: negative capacity";
  if n > max_capacity then
    invalid_arg
      (Printf.sprintf "Pqueue.create: capacity %d above %d" n max_capacity);
  { heap = Array.make (max n 1) 0;
    pos = Array.make (max n 1) (-1);
    capacity = n;
    size = 0 }

let is_empty t = t.size = 0
let cardinal t = t.size
let capacity t = t.capacity

(* Explicit check so a stray key fails with the key and the capacity in
   the message instead of escaping as a bare array-bounds error. *)
let check_key t key =
  if key < 0 || key >= t.capacity then
    invalid_arg
      (Printf.sprintf "Pqueue: key %d out of range [0, %d)" key t.capacity)

let pack key prio =
  if prio < min_priority || prio > max_priority then
    invalid_arg
      (Printf.sprintf "Pqueue: priority %d out of range [%d, %d]" prio
         min_priority max_priority);
  (prio lsl key_bits) lor key

let mem t key =
  check_key t key;
  Array.unsafe_get t.pos key >= 0

(* Hole-passing sifts: the moving entry [e] is written once, at its
   final slot; each entry it passes moves one level and has its [pos]
   rewritten.  Every index is below [t.size], and every key below the
   capacity, so the accesses are unchecked. *)
let sift_up t i e =
  let heap = t.heap and pos = t.pos in
  let i = ref i in
  let go = ref true in
  while !go && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    let p = Array.unsafe_get heap parent in
    if e < p then begin
      Array.unsafe_set heap !i p;
      Array.unsafe_set pos (p land key_mask) !i;
      i := parent
    end
    else go := false
  done;
  Array.unsafe_set heap !i e;
  Array.unsafe_set pos (e land key_mask) !i

let sift_down t i e =
  let heap = t.heap and pos = t.pos and size = t.size in
  let i = ref i in
  let go = ref true in
  while !go do
    let c = (4 * !i) + 1 in
    if c >= size then go := false
    else begin
      (* Smallest of the up to four children [c .. c+3]. *)
      let m = ref c and me = ref (Array.unsafe_get heap c) in
      let last = if c + 3 < size then c + 3 else size - 1 in
      for j = c + 1 to last do
        let x = Array.unsafe_get heap j in
        if x < !me then begin
          m := j;
          me := x
        end
      done;
      if !me < e then begin
        Array.unsafe_set heap !i !me;
        Array.unsafe_set pos (!me land key_mask) !i;
        i := !m
      end
      else go := false
    end
  done;
  Array.unsafe_set heap !i e;
  Array.unsafe_set pos (e land key_mask) !i

let insert t key prio =
  if mem t key then invalid_arg "Pqueue.insert: key already present";
  let e = pack key prio in
  t.size <- t.size + 1;
  sift_up t (t.size - 1) e

let priority t key =
  if not (mem t key) then raise Not_found;
  Array.unsafe_get t.heap (Array.unsafe_get t.pos key) asr key_bits

let update t key prio =
  if not (mem t key) then raise Not_found;
  let e = pack key prio in
  let i = Array.unsafe_get t.pos key in
  if e < Array.unsafe_get t.heap i then sift_up t i e else sift_down t i e

let shift t key delta =
  if not (mem t key) then raise Not_found;
  let i = Array.unsafe_get t.pos key in
  let e = pack key ((Array.unsafe_get t.heap i asr key_bits) + delta) in
  if delta < 0 then sift_up t i e else sift_down t i e

(* Take slot [i] out: the last entry refills it, moving up or down. *)
let remove_at t i =
  let key = Array.unsafe_get t.heap i land key_mask in
  t.size <- t.size - 1;
  Array.unsafe_set t.pos key (-1);
  if i < t.size then begin
    let last = Array.unsafe_get t.heap t.size in
    if i > 0 && last < Array.unsafe_get t.heap ((i - 1) lsr 2) then
      sift_up t i last
    else sift_down t i last
  end

let remove t key =
  if not (mem t key) then raise Not_found;
  remove_at t (Array.unsafe_get t.pos key)

let peek_min t =
  if t.size = 0 then raise Not_found;
  let e = Array.unsafe_get t.heap 0 in
  (e land key_mask, e asr key_bits)

let pop_min_key t =
  if t.size = 0 then raise Not_found;
  let key = Array.unsafe_get t.heap 0 land key_mask in
  remove_at t 0;
  key

let pop_min t =
  let result = peek_min t in
  remove_at t 0;
  result
