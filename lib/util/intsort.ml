(* In-place quicksort on an int-array range — no closure compare, no
   Array.sub.  Median-of-three pivot, insertion sort below 16.  Shared by
   the conflict-graph CSR builder, the streaming graph constructors, the
   kernel and the hypergraph normalizer, whose per-row sorts are hot
   enough that the closure call and bounds gymnastics of [Array.sort]
   show up in profiles.

   The [int array] annotations are load-bearing.  The .mli alone does not
   specialize the implementation: without them [<], [>] and [<>] compile
   to the polymorphic [caml_lessthan]/[caml_greaterthan]/[caml_notequal]
   calls and every store to [caml_modify].  On short rows that is about
   2.5-3x slower per element than the inline integer compares they become
   here: 85 vs 33 ns on 25-element rows, 47 vs 17 ns on 9-element ones
   (2-core Intel Xeon VM, OCaml 5.1.1 without flambda).  CI checks with
   [nm -u] that no polymorphic comparison comes back. *)

let rec sort_range (a : int array) lo hi =
  let len = hi - lo in
  if len <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let p1 = a.(lo) and p2 = a.(lo + (len / 2)) and p3 = a.(hi - 1) in
    let pivot =
      if p1 < p2 then
        if p2 < p3 then p2 else if p1 < p3 then p3 else p1
      else if p1 < p3 then p1
      else if p2 < p3 then p3
      else p2
    in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let tmp = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- tmp;
        incr i;
        decr j
      end
    done;
    sort_range a lo (!j + 1);
    sort_range a !i hi
  end

let sort a = sort_range a 0 (Array.length a)

(* Deduplicate a sorted range in place; returns the new exclusive end. *)
let dedup_sorted_range (a : int array) lo hi =
  if hi <= lo then lo
  else begin
    let w = ref (lo + 1) in
    for i = lo + 1 to hi - 1 do
      if a.(i) <> a.(!w - 1) then begin
        a.(!w) <- a.(i);
        incr w
      end
    done;
    !w
  end
