(* Unit and property tests for Ps_util: RNG, bitsets, union-find,
   priority queue, statistics, tables. *)

module Rng = Ps_util.Rng
module B = Ps_util.Bitset
module Uf = Ps_util.Union_find
module Pq = Ps_util.Pqueue
module Stats = Ps_util.Stats
module Table = Ps_util.Table
module Intsort = Ps_util.Intsort

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  check_bool "different seeds differ" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_int_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in_range () =
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 5 9 in
    check_bool "in closed range" true (v >= 5 && v <= 9)
  done

let test_rng_int_bad_bound () =
  Alcotest.check_raises "zero bound" (Invalid_argument
    "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int (Rng.create 0) 0))

let test_rng_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    check_bool "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 6 in
  for _ = 1 to 50 do
    check_bool "p=1" true (Rng.bernoulli rng 1.0);
    check_bool "p=0" false (Rng.bernoulli rng 0.0)
  done

let test_rng_bernoulli_mean () =
  let rng = Rng.create 8 in
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int trials in
  check_bool "freq near 0.3" true (abs_float (freq -. 0.3) < 0.02)

let test_rng_geometric_mean () =
  (* Geometric(p) has mean (1-p)/p. *)
  let rng = Rng.create 9 in
  let p = 0.25 in
  let sum = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    sum := !sum + Rng.geometric rng p
  done;
  let mean = float_of_int !sum /. float_of_int trials in
  check_bool "mean near 3" true (abs_float (mean -. 3.0) < 0.15)

let test_rng_geometric_p1 () =
  let rng = Rng.create 10 in
  for _ = 1 to 20 do
    check "p=1 gives 0" 0 (Rng.geometric rng 1.0)
  done

let test_rng_permutation () =
  let rng = Rng.create 11 in
  let p = Rng.permutation rng 100 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation"
    (Array.init 100 (fun i -> i))
    sorted

let test_rng_permutation_varies () =
  let rng = Rng.create 12 in
  let p1 = Rng.permutation rng 50 and p2 = Rng.permutation rng 50 in
  check_bool "two draws differ" false (p1 = p2)

let test_rng_sample_without_replacement () =
  let rng = Rng.create 13 in
  List.iter
    (fun (k, n) ->
      let s = Rng.sample_without_replacement rng k n in
      check "size" k (Array.length s);
      let sorted = Array.copy s in
      Array.sort compare sorted;
      let distinct = Array.to_list sorted |> List.sort_uniq compare in
      check "distinct" k (List.length distinct);
      Array.iter (fun v -> check_bool "in range" true (v >= 0 && v < n)) s)
    [ (0, 5); (3, 100); (99, 100); (100, 100); (5, 1000) ]

let test_rng_split_independent () =
  let master = Rng.create 14 in
  let c0 = Rng.split_at master 0 and c1 = Rng.split_at master 1 in
  check_bool "children differ" false (Rng.bits64 c0 = Rng.bits64 c1);
  (* split_at must not consume master's stream *)
  let m1 = Rng.create 14 in
  ignore (Rng.split_at m1 0);
  let m2 = Rng.create 14 in
  Alcotest.(check int64) "split_at preserves master" (Rng.bits64 m2)
    (Rng.bits64 m1)

let test_rng_copy_replays () =
  let a = Rng.create 15 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_choice () =
  let rng = Rng.create 16 in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    check_bool "member" true (Array.mem (Rng.choice rng arr) arr)
  done

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_add_mem () =
  let s = B.create 100 in
  check_bool "absent" false (B.mem s 42);
  B.add s 42;
  check_bool "present" true (B.mem s 42);
  B.remove s 42;
  check_bool "removed" false (B.mem s 42)

let test_bitset_bounds () =
  let s = B.create 10 in
  Alcotest.check_raises "negative" (Invalid_argument
    "Bitset: index out of range") (fun () -> B.add s (-1));
  Alcotest.check_raises "too large" (Invalid_argument
    "Bitset: index out of range") (fun () -> ignore (B.mem s 10))

let test_bitset_cardinal () =
  let s = B.create 200 in
  List.iter (B.add s) [ 0; 1; 63; 64; 127; 199 ];
  check "cardinal" 6 (B.cardinal s);
  B.add s 0;
  check "idempotent add" 6 (B.cardinal s)

let test_bitset_fill_clear () =
  let s = B.create 77 in
  B.fill s;
  check "full" 77 (B.cardinal s);
  check_bool "not empty" false (B.is_empty s);
  B.clear s;
  check "cleared" 0 (B.cardinal s);
  check_bool "empty" true (B.is_empty s)

let test_bitset_set_algebra () =
  let a = B.of_list 50 [ 1; 2; 3; 10 ] in
  let b = B.of_list 50 [ 3; 10; 20 ] in
  let u = B.copy a in
  B.union_into u b;
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 10; 20 ] (B.to_list u);
  let i = B.copy a in
  B.inter_into i b;
  Alcotest.(check (list int)) "inter" [ 3; 10 ] (B.to_list i);
  let d = B.copy a in
  B.diff_into d b;
  Alcotest.(check (list int)) "diff" [ 1; 2 ] (B.to_list d)

let test_bitset_subset_disjoint () =
  let a = B.of_list 30 [ 1; 2 ] in
  let b = B.of_list 30 [ 1; 2; 3 ] in
  let c = B.of_list 30 [ 4; 5 ] in
  check_bool "subset" true (B.subset a b);
  check_bool "not subset" false (B.subset b a);
  check_bool "disjoint" true (B.disjoint a c);
  check_bool "not disjoint" false (B.disjoint a b);
  check_bool "empty subset of all" true (B.subset (B.create 30) a)

let test_bitset_iter_order () =
  let s = B.of_list 300 [ 299; 0; 150; 63; 62 ] in
  Alcotest.(check (list int)) "sorted" [ 0; 62; 63; 150; 299 ] (B.to_list s)

let test_bitset_choose () =
  let s = B.create 20 in
  Alcotest.(check (option int)) "empty" None (B.choose_opt s);
  B.add s 13;
  B.add s 7;
  Alcotest.(check (option int)) "smallest" (Some 7) (B.choose_opt s)

let test_bitset_equal_capacity_mismatch () =
  Alcotest.check_raises "capacity mismatch" (Invalid_argument
    "Bitset: capacity mismatch") (fun () ->
      ignore (B.equal (B.create 3) (B.create 4)))

let test_bitset_fill_boundaries () =
  (* 62 bits per word: exercise fill at capacities around the word
     boundary (and zero). fill must set exactly the universe — the
     masked final word may not leak bits above the capacity, or
     cardinal/iter/equal would disagree. *)
  List.iter
    (fun cap ->
      let s = B.create cap in
      B.fill s;
      check (Printf.sprintf "cardinal at %d" cap) cap (B.cardinal s);
      let seen = ref [] in
      B.iter (fun i -> seen := i :: !seen) s;
      Alcotest.(check (list int))
        (Printf.sprintf "iter at %d" cap)
        (List.init cap (fun i -> i))
        (List.rev !seen);
      (* filled set equals the one built element-by-element *)
      let e = B.create cap in
      for i = 0 to cap - 1 do B.add e i done;
      check_bool (Printf.sprintf "equal at %d" cap) true (B.equal s e);
      check_bool (Printf.sprintf "subset at %d" cap) true (B.subset e s);
      (* removing the last element must drop cardinal by exactly one *)
      if cap > 0 then begin
        B.remove s (cap - 1);
        check (Printf.sprintf "remove at %d" cap) (cap - 1) (B.cardinal s)
      end)
    [ 0; 1; 61; 62; 63; 124 ]

let test_bitset_word_boundary () =
  (* 62 bits per word: exercise indices straddling the boundary. *)
  let s = B.create 124 in
  List.iter (B.add s) [ 61; 62; 123 ];
  check_bool "61" true (B.mem s 61);
  check_bool "62" true (B.mem s 62);
  check_bool "123" true (B.mem s 123);
  check_bool "60" false (B.mem s 60);
  check "cardinal" 3 (B.cardinal s)

(* ------------------------------------------------------------------ *)
(* Union-find *)

let test_uf_basic () =
  let uf = Uf.create 10 in
  check "initial count" 10 (Uf.count uf);
  check_bool "fresh union" true (Uf.union uf 0 1);
  check_bool "repeat union" false (Uf.union uf 0 1);
  check_bool "same" true (Uf.same uf 0 1);
  check_bool "not same" false (Uf.same uf 0 2);
  check "count" 9 (Uf.count uf)

let test_uf_sizes () =
  let uf = Uf.create 6 in
  ignore (Uf.union uf 0 1);
  ignore (Uf.union uf 1 2);
  check "size of merged" 3 (Uf.size_of uf 2);
  check "size of singleton" 1 (Uf.size_of uf 5)

let test_uf_transitivity () =
  let uf = Uf.create 100 in
  for i = 0 to 98 do
    ignore (Uf.union uf i (i + 1))
  done;
  check "single set" 1 (Uf.count uf);
  check_bool "ends connected" true (Uf.same uf 0 99)

let test_uf_components () =
  let uf = Uf.create 5 in
  ignore (Uf.union uf 0 4);
  ignore (Uf.union uf 1 2);
  let comps = Uf.components uf in
  let sorted =
    Array.to_list comps |> List.map (List.sort compare)
    |> List.sort compare
  in
  Alcotest.(check (list (list int)))
    "components" [ [ 0; 4 ]; [ 1; 2 ]; [ 3 ] ] sorted

(* ------------------------------------------------------------------ *)
(* Pqueue *)

let test_pq_basic () =
  let q = Pq.create 10 in
  check_bool "empty" true (Pq.is_empty q);
  Pq.insert q 3 30;
  Pq.insert q 5 10;
  Pq.insert q 7 20;
  check "cardinal" 3 (Pq.cardinal q);
  Alcotest.(check (pair int int)) "min" (5, 10) (Pq.peek_min q);
  Alcotest.(check (pair int int)) "pop" (5, 10) (Pq.pop_min q);
  Alcotest.(check (pair int int)) "next" (7, 20) (Pq.pop_min q);
  Alcotest.(check (pair int int)) "last" (3, 30) (Pq.pop_min q);
  check_bool "drained" true (Pq.is_empty q)

let test_pq_update () =
  let q = Pq.create 10 in
  Pq.insert q 0 100;
  Pq.insert q 1 50;
  Pq.update q 0 10;
  Alcotest.(check (pair int int)) "decrease-key" (0, 10) (Pq.pop_min q);
  Pq.insert q 2 1;
  Pq.update q 2 200;
  Alcotest.(check (pair int int)) "increase-key" (1, 50) (Pq.pop_min q)

let test_pq_remove () =
  let q = Pq.create 10 in
  List.iter (fun (k, p) -> Pq.insert q k p)
    [ (0, 5); (1, 3); (2, 8); (3, 1) ];
  Pq.remove q 3;
  check_bool "gone" false (Pq.mem q 3);
  Alcotest.(check (pair int int)) "new min" (1, 3) (Pq.pop_min q)

let test_pq_tie_break () =
  let q = Pq.create 10 in
  Pq.insert q 9 7;
  Pq.insert q 2 7;
  Pq.insert q 5 7;
  Alcotest.(check (pair int int)) "smallest key first" (2, 7) (Pq.pop_min q)

let test_pq_duplicate_insert () =
  let q = Pq.create 5 in
  Pq.insert q 1 1;
  Alcotest.check_raises "duplicate" (Invalid_argument
    "Pqueue.insert: key already present") (fun () -> Pq.insert q 1 2)

let test_pq_empty_pop () =
  let q = Pq.create 5 in
  Alcotest.check_raises "empty pop" Not_found (fun () ->
      ignore (Pq.pop_min q))

let test_pq_out_of_range () =
  let q = Pq.create 5 in
  check "capacity" 5 (Pq.capacity q);
  Alcotest.check_raises "negative key"
    (Invalid_argument "Pqueue: key -1 out of range [0, 5)") (fun () ->
      Pq.insert q (-1) 0);
  Alcotest.check_raises "key = capacity"
    (Invalid_argument "Pqueue: key 5 out of range [0, 5)") (fun () ->
      ignore (Pq.mem q 5));
  Alcotest.check_raises "way out"
    (Invalid_argument "Pqueue: key 1000 out of range [0, 5)") (fun () ->
      Pq.update q 1000 3);
  (* the failed operations must not have corrupted the queue *)
  Pq.insert q 4 7;
  Alcotest.(check (pair int int)) "still works" (4, 7) (Pq.pop_min q)

let test_pq_zero_capacity () =
  let q = Pq.create 0 in
  check_bool "empty" true (Pq.is_empty q);
  Alcotest.check_raises "no valid keys"
    (Invalid_argument "Pqueue: key 0 out of range [0, 0)") (fun () ->
      Pq.insert q 0 0)

let test_pq_heap_sort () =
  (* Popping everything must yield priorities in nondecreasing order. *)
  let rng = Rng.create 99 in
  let q = Pq.create 500 in
  for key = 0 to 499 do
    Pq.insert q key (Rng.int rng 1000)
  done;
  let last = ref min_int in
  while not (Pq.is_empty q) do
    let _, p = Pq.pop_min q in
    check_bool "nondecreasing" true (p >= !last);
    last := p
  done

(* The packed-entry contract: keys take 31 bits and priorities the
   int32 range.  Both priority extremes and the largest key of the queue
   pop in (priority, key) order, and one step past a bound is rejected
   without touching the queue. *)
let test_pq_packed_range () =
  check "max_capacity" (1 lsl 31) Pq.max_capacity;
  check "min_priority" (-(1 lsl 31)) Pq.min_priority;
  check "max_priority" ((1 lsl 31) - 1) Pq.max_priority;
  let q = Pq.create 4 in
  Pq.insert q 3 Pq.max_priority;
  Pq.insert q 0 Pq.max_priority;
  Pq.insert q 1 Pq.min_priority;
  let bad_prio = Invalid_argument
      (Printf.sprintf "Pqueue: priority %d out of range [%d, %d]"
         (Pq.max_priority + 1) Pq.min_priority Pq.max_priority)
  in
  Alcotest.check_raises "insert above max_priority" bad_prio (fun () ->
      Pq.insert q 2 (Pq.max_priority + 1));
  check_bool "rejected insert leaves no key" false (Pq.mem q 2);
  Pq.insert q 2 0;
  Alcotest.check_raises "update above max_priority" bad_prio (fun () ->
      Pq.update q 2 (Pq.max_priority + 1));
  Alcotest.check_raises "shift above max_priority" bad_prio (fun () ->
      Pq.shift q 3 1);
  Alcotest.check_raises "update below min_priority"
    (Invalid_argument
       (Printf.sprintf "Pqueue: priority %d out of range [%d, %d]"
          (Pq.min_priority - 1) Pq.min_priority Pq.max_priority))
    (fun () -> Pq.update q 3 (Pq.min_priority - 1));
  Alcotest.check_raises "capacity above max_capacity"
    (Invalid_argument
       (Printf.sprintf "Pqueue.create: capacity %d above %d"
          (Pq.max_capacity + 1) Pq.max_capacity))
    (fun () -> ignore (Pq.create (Pq.max_capacity + 1)));
  check "priority kept" Pq.max_priority (Pq.priority q 3);
  let pops = List.init 4 (fun _ -> Pq.pop_min q) in
  Alcotest.(check (list (pair int int))) "pop order"
    [ (1, Pq.min_priority); (2, 0); (0, Pq.max_priority);
      (3, Pq.max_priority) ]
    pops

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean_stddev () =
  let a = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Stats.mean a);
  check_bool "stddev (sample)" true
    (abs_float (Stats.stddev a -. 2.138089935) < 1e-6)

let test_stats_single () =
  check_float "mean" 3.0 (Stats.mean [| 3.0 |]);
  check_float "stddev" 0.0 (Stats.stddev [| 3.0 |])

let test_stats_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats: empty array")
    (fun () -> ignore (Stats.mean [||]))

let test_stats_percentile () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "p0" 1.0 (Stats.percentile a 0.0);
  check_float "p50" 3.0 (Stats.percentile a 50.0);
  check_float "p100" 5.0 (Stats.percentile a 100.0);
  check_float "p25 interpolates" 2.0 (Stats.percentile a 25.0)

let test_stats_percentile_unsorted_input () =
  let a = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "median of unsorted" 3.0 (Stats.median a);
  (* input must not be mutated *)
  Alcotest.(check (array (float 0.0))) "unmutated"
    [| 5.0; 1.0; 3.0; 2.0; 4.0 |] a

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0 |] in
  check "count" 4 s.Stats.count;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 4.0 s.Stats.max;
  check_float "median" 2.5 s.Stats.median

let test_stats_geometric_mean () =
  check_float "gm" 4.0 (Stats.geometric_mean [| 2.0; 8.0 |]);
  Alcotest.check_raises "nonpositive" (Invalid_argument
    "Stats.geometric_mean: nonpositive entry") (fun () ->
      ignore (Stats.geometric_mean [| 1.0; 0.0 |]))

let test_stats_linear_regression () =
  let slope, intercept, r2 =
    Stats.linear_regression [| (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) |]
  in
  check_float "slope" 2.0 slope;
  check_float "intercept" 1.0 intercept;
  check_float "r2" 1.0 r2;
  (* constant y: slope 0, perfect fit by convention *)
  let slope, _, r2 =
    Stats.linear_regression [| (0.0, 4.0); (1.0, 4.0); (5.0, 4.0) |]
  in
  check_float "flat slope" 0.0 slope;
  check_float "flat r2" 1.0 r2;
  (* noisy data: r2 strictly below 1 *)
  let _, _, r2 =
    Stats.linear_regression [| (0.0, 0.0); (1.0, 2.0); (2.0, 1.0) |]
  in
  check_bool "noisy r2 < 1" true (r2 < 1.0);
  Alcotest.check_raises "degenerate x" (Invalid_argument
    "Stats.linear_regression: all x values equal") (fun () ->
      ignore (Stats.linear_regression [| (1.0, 0.0); (1.0, 5.0) |]))

let test_stats_histogram () =
  let bins = Stats.histogram ~bins:2 [| 0.0; 1.0; 9.0; 10.0 |] in
  check "two bins" 2 (Array.length bins);
  let _, _, c0 = bins.(0) and _, _, c1 = bins.(1) in
  check "low bin" 2 c0;
  check "high bin" 2 c1

let test_stats_histogram_degenerate () =
  let bins = Stats.histogram [| 5.0; 5.0; 5.0 |] in
  check "one bin" 1 (Array.length bins);
  let _, _, c = bins.(0) in
  check "all collapse" 3 c

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "name"; "n" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let rendered = Table.render t in
  check_bool "contains header" true
    (String.length rendered > 0
    && String.split_on_char '\n' rendered |> List.length >= 5);
  check_bool "alpha present" true
    (String.split_on_char '\n' rendered
    |> List.exists (fun l -> String.length l > 0 && String.index_opt l 'a' <> None))

let test_table_row_mismatch () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "bad row" (Invalid_argument
    "Table.add_row: row length mismatch") (fun () ->
      Table.add_row t [ "only-one" ])

let test_table_cells () =
  Alcotest.(check string) "int" "42" (Table.cell_int 42);
  Alcotest.(check string) "float" "3.14" (Table.cell_float ~decimals:2 3.14159);
  Alcotest.(check string) "ratio" "1.500" (Table.cell_ratio 1.5);
  Alcotest.(check string) "bool" "yes" (Table.cell_bool true)

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let prop_bitset_roundtrip =
  QCheck.Test.make ~count:200 ~name:"bitset of_list/to_list roundtrip"
    QCheck.(list (int_bound 99))
    (fun xs ->
      let distinct = List.sort_uniq compare xs in
      B.to_list (B.of_list 100 xs) = distinct)

let prop_bitset_of_mask =
  QCheck.Test.make ~count:200 ~name:"bitset of_mask = of_list"
    QCheck.(pair (int_bound 200) (list small_nat))
    (fun (n, xs) ->
      let xs = List.filter (fun x -> x < n) xs in
      let mask = Bytes.make n '\000' in
      (* Any non-zero byte is a member. *)
      List.iter (fun x -> Bytes.set mask x (Char.chr (1 + (x mod 255)))) xs;
      B.equal (B.of_mask mask) (B.of_list n xs))

let prop_bitset_union_commutes =
  QCheck.Test.make ~count:200 ~name:"bitset union commutes"
    QCheck.(pair (list (int_bound 63)) (list (int_bound 63)))
    (fun (xs, ys) ->
      let a = B.of_list 64 xs and b = B.of_list 64 ys in
      let ab = B.copy a and ba = B.copy b in
      B.union_into ab b;
      B.union_into ba a;
      B.equal ab ba)

let prop_bitset_demorgan =
  QCheck.Test.make ~count:200 ~name:"bitset |A| + |B| = |A∪B| + |A∩B|"
    QCheck.(pair (list (int_bound 80)) (list (int_bound 80)))
    (fun (xs, ys) ->
      let a = B.of_list 81 xs and b = B.of_list 81 ys in
      let u = B.copy a and i = B.copy a in
      B.union_into u b;
      B.inter_into i b;
      B.cardinal a + B.cardinal b = B.cardinal u + B.cardinal i)

let prop_permutation_valid =
  QCheck.Test.make ~count:100 ~name:"rng permutation is a bijection"
    QCheck.(pair small_nat small_nat)
    (fun (seed, n) ->
      let n = n + 1 in
      let p = Rng.permutation (Rng.create seed) n in
      let sorted = Array.copy p in
      Array.sort compare sorted;
      sorted = Array.init n (fun i -> i))

let prop_pqueue_sorts =
  QCheck.Test.make ~count:100 ~name:"pqueue pops sorted"
    QCheck.(list_of_size (QCheck.Gen.int_range 0 50) (int_bound 1000))
    (fun prios ->
      let q = Pq.create (List.length prios + 1) in
      List.iteri (fun k p -> Pq.insert q k p) prios;
      let rec drain last =
        if Pq.is_empty q then true
        else
          let _, p = Pq.pop_min q in
          p >= last && drain p
      in
      drain min_int)

(* Model-based check of Pqueue against a sorted association list.  Each
   random (key, prio) pair drives one step: insert when absent, update
   when present — with an occasional remove — and every pop_min must
   agree with the model's (prio, key)-minimum. *)
let pqueue_model_prop ~name ~update prio =
  let cap = 16 in
  let model_min m =
    List.fold_left
      (fun best (k, p) ->
        match best with
        | Some (bk, bp) when (bp, bk) <= (p, k) -> best
        | _ -> Some (k, p))
      None m
  in
  QCheck.Test.make ~count:200 ~name
    QCheck.(list (triple (int_bound (cap - 1)) prio (int_bound 4)))
    (fun steps ->
      let q = Pq.create cap in
      let model = ref [] in
      List.for_all
        (fun (key, prio, action) ->
          let present_q = Pq.mem q key in
          let present_m = List.mem_assoc key !model in
          present_q = present_m
          &&
          match action with
          | 0 when present_m ->
              Pq.remove q key;
              model := List.remove_assoc key !model;
              true
          | 1 when not (Pq.is_empty q) ->
              let popped = Pq.pop_min q in
              let expected = model_min !model in
              model := List.remove_assoc (fst popped) !model;
              Some popped = expected
          | _ ->
              if present_m then begin
                update q key prio;
                model := (key, prio) :: List.remove_assoc key !model
              end
              else begin
                Pq.insert q key prio;
                model := (key, prio) :: !model
              end;
              Pq.cardinal q = List.length !model
              && Pq.priority q key = prio)
        steps
      &&
      (* drain: the full pop sequence must equal the model sorted by
         (prio, key) *)
      let rec drain acc =
        if Pq.is_empty q then List.rev acc
        else drain (Pq.pop_min q :: acc)
      in
      drain []
      = List.sort
          (fun (k1, p1) (k2, p2) -> compare (p1, k1) (p2, k2))
          !model)

let prop_pqueue_model =
  pqueue_model_prop ~name:"pqueue agrees with assoc-list model"
    ~update:Pq.update
    QCheck.(int_bound 100)

(* The adversary greedy's side: negated degrees, down to the packed
   range's floor, moved by [shift] as the greedy moves them. *)
let prop_pqueue_model_negative =
  pqueue_model_prop ~name:"pqueue agrees with the model on negative priorities"
    ~update:(fun q key prio -> Pq.shift q key (prio - Pq.priority q key))
    QCheck.(
      oneof
        [ int_range (-100) 0;
          map (fun d -> Pq.min_priority + d) (int_bound 3) ])

let prop_pqueue_rejects_out_of_range =
  QCheck.Test.make ~count:100 ~name:"pqueue rejects out-of-range keys"
    QCheck.(pair (int_bound 20) int)
    (fun (cap, key) ->
      QCheck.assume (key < 0 || key >= cap);
      let q = Pq.create cap in
      match Pq.insert q key 0 with
      | () -> false
      | exception Invalid_argument _ -> Pq.is_empty q)

let prop_percentile_monotone =
  QCheck.Test.make ~count:100 ~name:"percentile is monotone in q"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (float_bound_exclusive 100.0))
    (fun xs ->
      let a = Array.of_list xs in
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 100.0 ] in
      let values = List.map (Stats.percentile a) ps in
      let rec mono = function
        | x :: (y :: _ as rest) -> x <= y && mono rest
        | _ -> true
      in
      mono values)

(* Intsort: random sub-ranges of arrays with duplicates and negatives.
   Lengths 0–200 put ranges on both sides of the 16-element
   insertion-sort cutoff. *)
let arbitrary_int_range =
  QCheck.make
    ~print:(fun (a, lo, hi) ->
      Printf.sprintf "[%s] lo=%d hi=%d"
        (String.concat "; " (Array.to_list (Array.map string_of_int a)))
        lo hi)
    QCheck.Gen.(
      int_range 0 200 >>= fun len ->
      array_size (return len)
        (frequency
           [ (8, int_range (-20) 20);
             (1, oneofl [ min_int; max_int; -1_000_000; 1_000_000 ]) ])
      >>= fun a ->
      pair (int_bound len) (int_bound len) >|= fun (i, j) ->
      (a, min i j, max i j))

let sub_list a lo hi = Array.to_list (Array.sub a lo (hi - lo))

let outside_untouched before after lo hi =
  let ok = ref true in
  Array.iteri
    (fun i x -> if (i < lo || i >= hi) && x <> after.(i) then ok := false)
    before;
  !ok

let prop_intsort_sort_range =
  QCheck.Test.make ~count:500
    ~name:"Intsort.sort_range sorts exactly [lo, hi) as a permutation"
    arbitrary_int_range (fun (before, lo, hi) ->
      let a = Array.copy before in
      Intsort.sort_range a lo hi;
      sub_list a lo hi = List.sort compare (sub_list before lo hi)
      && outside_untouched before a lo hi)

let prop_intsort_dedup =
  QCheck.Test.make ~count:500
    ~name:"Intsort.dedup_sorted_range keeps each value of a sorted range once"
    arbitrary_int_range (fun (input, lo, hi) ->
      let before = Array.copy input in
      Intsort.sort_range before lo hi;
      let a = Array.copy before in
      let stop = Intsort.dedup_sorted_range a lo hi in
      lo <= stop && stop <= hi
      && sub_list a lo stop = List.sort_uniq compare (sub_list before lo hi)
      && outside_untouched before a lo hi)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_bitset_roundtrip; prop_bitset_of_mask;
      prop_bitset_union_commutes;
      prop_bitset_demorgan;
      prop_permutation_valid;
      prop_pqueue_sorts;
      prop_pqueue_model;
      prop_pqueue_model_negative;
      prop_pqueue_rejects_out_of_range;
      prop_percentile_monotone;
      prop_intsort_sort_range;
      prop_intsort_dedup ]

let suites =
  [ ( "util.rng",
      [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "int_in range" `Quick test_rng_int_in_range;
        Alcotest.test_case "int bad bound" `Quick test_rng_int_bad_bound;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "bernoulli extremes" `Quick
          test_rng_bernoulli_extremes;
        Alcotest.test_case "bernoulli mean" `Quick test_rng_bernoulli_mean;
        Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
        Alcotest.test_case "geometric p=1" `Quick test_rng_geometric_p1;
        Alcotest.test_case "permutation" `Quick test_rng_permutation;
        Alcotest.test_case "permutation varies" `Quick
          test_rng_permutation_varies;
        Alcotest.test_case "sample without replacement" `Quick
          test_rng_sample_without_replacement;
        Alcotest.test_case "split independence" `Quick
          test_rng_split_independent;
        Alcotest.test_case "copy replays" `Quick test_rng_copy_replays;
        Alcotest.test_case "choice" `Quick test_rng_choice ] );
    ( "util.bitset",
      [ Alcotest.test_case "add/mem/remove" `Quick test_bitset_add_mem;
        Alcotest.test_case "bounds" `Quick test_bitset_bounds;
        Alcotest.test_case "cardinal" `Quick test_bitset_cardinal;
        Alcotest.test_case "fill/clear" `Quick test_bitset_fill_clear;
        Alcotest.test_case "fill at word boundaries" `Quick
          test_bitset_fill_boundaries;
        Alcotest.test_case "set algebra" `Quick test_bitset_set_algebra;
        Alcotest.test_case "subset/disjoint" `Quick
          test_bitset_subset_disjoint;
        Alcotest.test_case "iteration order" `Quick test_bitset_iter_order;
        Alcotest.test_case "choose" `Quick test_bitset_choose;
        Alcotest.test_case "capacity mismatch" `Quick
          test_bitset_equal_capacity_mismatch;
        Alcotest.test_case "word boundary" `Quick test_bitset_word_boundary ]
    );
    ( "util.union_find",
      [ Alcotest.test_case "basic" `Quick test_uf_basic;
        Alcotest.test_case "sizes" `Quick test_uf_sizes;
        Alcotest.test_case "transitivity" `Quick test_uf_transitivity;
        Alcotest.test_case "components" `Quick test_uf_components ] );
    ( "util.pqueue",
      [ Alcotest.test_case "basic" `Quick test_pq_basic;
        Alcotest.test_case "update" `Quick test_pq_update;
        Alcotest.test_case "remove" `Quick test_pq_remove;
        Alcotest.test_case "tie break" `Quick test_pq_tie_break;
        Alcotest.test_case "duplicate insert" `Quick
          test_pq_duplicate_insert;
        Alcotest.test_case "empty pop" `Quick test_pq_empty_pop;
        Alcotest.test_case "out of range" `Quick test_pq_out_of_range;
        Alcotest.test_case "zero capacity" `Quick test_pq_zero_capacity;
        Alcotest.test_case "heap sort" `Quick test_pq_heap_sort;
        Alcotest.test_case "packed range" `Quick test_pq_packed_range ] );
    ( "util.stats",
      [ Alcotest.test_case "mean/stddev" `Quick test_stats_mean_stddev;
        Alcotest.test_case "single element" `Quick test_stats_single;
        Alcotest.test_case "empty raises" `Quick test_stats_empty;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "percentile unsorted" `Quick
          test_stats_percentile_unsorted_input;
        Alcotest.test_case "summary" `Quick test_stats_summary;
        Alcotest.test_case "geometric mean" `Quick test_stats_geometric_mean;
        Alcotest.test_case "linear regression" `Quick
          test_stats_linear_regression;
        Alcotest.test_case "histogram" `Quick test_stats_histogram;
        Alcotest.test_case "histogram degenerate" `Quick
          test_stats_histogram_degenerate ] );
    ( "util.table",
      [ Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "row mismatch" `Quick test_table_row_mismatch;
        Alcotest.test_case "cell formatting" `Quick test_table_cells ] );
    ("util.properties", props) ]
