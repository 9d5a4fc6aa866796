module Rng = Ps_util.Rng

let ring n =
  if n < 3 then invalid_arg "Gen.ring: need n >= 3";
  Graph.of_edges n (List.init n (fun i -> (i, (i + 1) mod n)))

let path n =
  Graph.of_edges n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let complete n =
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      acc := (u, v) :: !acc
    done
  done;
  Graph.of_edges n !acc

let complete_bipartite a b =
  let acc = ref [] in
  for u = 0 to a - 1 do
    for v = a to a + b - 1 do
      acc := (u, v) :: !acc
    done
  done;
  Graph.of_edges (a + b) !acc

let star n =
  if n < 1 then invalid_arg "Gen.star: need n >= 1";
  Graph.of_edges n (List.init (n - 1) (fun i -> (0, i + 1)))

let grid rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Gen.grid";
  let id r c = (r * cols) + c in
  let acc = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then acc := (id r c, id r (c + 1)) :: !acc;
      if r + 1 < rows then acc := (id r c, id (r + 1) c) :: !acc
    done
  done;
  Graph.of_edges (rows * cols) !acc

let balanced_tree arity depth =
  if arity < 1 || depth < 0 then invalid_arg "Gen.balanced_tree";
  (* Number the tree in BFS order: children of [v] start at [arity*v + 1]. *)
  let rec size d = if d = 0 then 1 else 1 + (arity * size (d - 1)) in
  let n = size depth in
  let acc = ref [] in
  for v = 0 to n - 1 do
    for c = 1 to arity do
      let child = (arity * v) + c in
      if child < n then acc := (v, child) :: !acc
    done
  done;
  Graph.of_edges n !acc

(* Geometric skipping over the lexicographic edge stream (Batagelj &
   Brandes): expected O(n + m) instead of O(n^2), emitting each edge to
   [f] without materializing anything — the generator for 10^7–10^8-edge
   instances.  [gnp] below consumes the same stream (identical RNG draw
   sequence), so a seed reproduces the same graph on either path. *)
let iter_gnp rng n p f =
  if p < 0.0 || p > 1.0 then invalid_arg "Gen.gnp: p out of range";
  if p > 0.0 && p < 1.0 then begin
    let u = ref 1 and v = ref (-1) in
    while !u < n do
      let skip = Rng.geometric rng p in
      v := !v + 1 + skip;
      while !v >= !u && !u < n do
        v := !v - !u;
        incr u
      done;
      if !u < n then f !v !u
    done
  end
  else if p = 1.0 then
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        f u v
      done
    done

let gnp rng n p =
  if p < 0.0 || p > 1.0 then invalid_arg "Gen.gnp: p out of range";
  if p = 0.0 then Graph.empty n
  else if p = 1.0 then complete n
  else begin
    let acc = ref [] in
    iter_gnp rng n p (fun v u -> acc := (v, u) :: !acc);
    Graph.of_edges n !acc
  end

(* The edge stream goes straight into the shared endpoint buffer, the
   only intermediate between the generator and the finished graph.  It
   is sized for the stream's [capacity] pairs, so it never doubles, and
   a buffer that holds the whole stream also holds the finished store:
   when the rows need settling, [Graph.of_pair_chunks] writes them into
   it instead of a new array. *)
let collect_pairs n ~capacity iter =
  let pairs = Graph.Pairs.create ~capacity () in
  iter (Graph.Pairs.push pairs);
  Graph.of_unnormalized_pairs n pairs

(* The stream's length is Binomial(n(n-1)/2, p): reserve its mean plus
   six standard deviations, up to 2^26 pairs; past that the buffer
   doubles. *)
let huge_gnp rng n p =
  if p < 0.0 || p > 1.0 then invalid_arg "Gen.gnp: p out of range";
  let mean = p *. float_of_int n *. float_of_int (n - 1) /. 2. in
  let capacity =
    int_of_float
      (Float.min (mean +. (6. *. Float.sqrt mean) +. 1024.) 0x1p26)
  in
  collect_pairs n ~capacity (iter_gnp rng n p)

(* [below r x] is 1 when [r < x] and 0 otherwise, for [r] and [x] in
   [\[0, 2^53\]]: the sign of [r - x], with no branch to mispredict. *)
let[@inline] below r x = ((r - x) asr 62) land 1

(* R-MAT (Chakrabarti–Zhan–Faloutsos): each edge picks one of the four
   adjacency-matrix quadrants per bit level with skewed probabilities,
   yielding a power-law degree profile.  Self-loops are resampled (the
   repository is simple-graph-only); duplicates are left in the stream —
   every consumer (CSR constructor, edge-list file reader) collapses
   them — so exactly [edges] pairs are emitted.

   A level draws [r = Rng.bits53 rng] and compares it with the integer
   thresholds [ceil (x *. 2^53)] of the cumulative quadrant
   probabilities [x].  For an integer [r], [r < ceil y] exactly when
   [r < y], and [Rng.float rng 1.0] is [r] times [2^-53], so each test
   decides as [Rng.float rng 1.0 < x] does and the pairs are the same;
   the int draw allocates nothing.  A level's quadrant is (0, 0) below
   [a], (0, 1) below [a + b], (1, 0) below [a + b + c] and (1, 1) from
   there on. *)
let iter_rmat rng ~scale ~edges f =
  if scale < 1 || scale > 30 then invalid_arg "Gen.iter_rmat: scale";
  if edges < 0 then invalid_arg "Gen.iter_rmat: edges";
  let a = 0.57 and b = 0.19 and c = 0.19 in
  let threshold x = int_of_float (Float.ceil (x *. 0x1p53)) in
  let ta = threshold a
  and tab = threshold (a +. b)
  and tabc = threshold (a +. b +. c) in
  for _ = 1 to edges do
    let u = ref 0 and v = ref 0 in
    while !u = !v do
      u := 0;
      v := 0;
      for _ = 1 to scale do
        let r = Rng.bits53 rng in
        u := (!u lsl 1) lor (1 - below r tab);
        v := (!v lsl 1) lor (below r tab - below r ta + 1 - below r tabc)
      done
    done;
    f !u !v
  done

let rmat rng ~scale ~edges =
  collect_pairs (1 lsl scale) ~capacity:edges (fun f ->
      iter_rmat rng ~scale ~edges f)

let gnm rng n m =
  let possible =
    if n <= 1 then 0 else n * (n - 1) / 2
  in
  if m < 0 || m > possible then invalid_arg "Gen.gnm: m out of range";
  let seen = Hashtbl.create (2 * m) in
  let acc = ref [] in
  while Hashtbl.length seen < m do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then begin
      let e = (min u v, max u v) in
      if not (Hashtbl.mem seen e) then begin
        Hashtbl.add seen e ();
        acc := e :: !acc
      end
    end
  done;
  Graph.of_edges n !acc

let random_regular_ish rng n d =
  if d < 0 || d >= n then invalid_arg "Gen.random_regular_ish";
  (* Pair up stubs; drop pairs that would create loops or duplicates. *)
  let stubs = Array.make (n * d) 0 in
  for v = 0 to n - 1 do
    for i = 0 to d - 1 do
      stubs.((v * d) + i) <- v
    done
  done;
  Rng.shuffle_in_place rng stubs;
  let seen = Hashtbl.create (n * d) in
  let acc = ref [] in
  let half = Array.length stubs / 2 in
  for i = 0 to half - 1 do
    let u = stubs.(2 * i) and v = stubs.((2 * i) + 1) in
    if u <> v then begin
      let e = (min u v, max u v) in
      if not (Hashtbl.mem seen e) then begin
        Hashtbl.add seen e ();
        acc := e :: !acc
      end
    end
  done;
  Graph.of_edges n !acc

let random_tree rng n =
  if n < 1 then invalid_arg "Gen.random_tree";
  if n = 1 then Graph.empty 1
  else if n = 2 then Graph.of_edges 2 [ (0, 1) ]
  else begin
    (* Decode a uniform Prüfer sequence of length n-2. *)
    let pruefer = Array.init (n - 2) (fun _ -> Rng.int rng n) in
    let deg = Array.make n 1 in
    Array.iter (fun v -> deg.(v) <- deg.(v) + 1) pruefer;
    let leaves = Ps_util.Pqueue.create n in
    for v = 0 to n - 1 do
      if deg.(v) = 1 then Ps_util.Pqueue.insert leaves v v
    done;
    let acc = ref [] in
    Array.iter
      (fun v ->
        let leaf, _ = Ps_util.Pqueue.pop_min leaves in
        acc := (leaf, v) :: !acc;
        deg.(v) <- deg.(v) - 1;
        if deg.(v) = 1 then Ps_util.Pqueue.insert leaves v v)
      pruefer;
    let a, _ = Ps_util.Pqueue.pop_min leaves in
    let b, _ = Ps_util.Pqueue.pop_min leaves in
    acc := (a, b) :: !acc;
    Graph.of_edges n !acc
  end

let unit_interval rng n len =
  if len < 0.0 then invalid_arg "Gen.unit_interval";
  (* [Rng.float rng len]'s value, drawn as an int and scaled here, so
     no float is boxed per vertex. *)
  let left = Array.make n 0.0 in
  for u = 0 to n - 1 do
    left.(u) <- len *. (Float.of_int (Rng.bits53 rng) *. 0x1p-53)
  done;
  Array.sort Float.compare left;
  let acc = ref [] in
  for u = 0 to n - 1 do
    let v = ref (u + 1) in
    (* Sorted left endpoints: neighbors of u form a contiguous run. *)
    while !v < n && left.(!v) <= left.(u) +. 1.0 do
      acc := (u, !v) :: !acc;
      incr v
    done
  done;
  Graph.of_edges n !acc

let power_law rng n gamma =
  if n < 3 then invalid_arg "Gen.power_law: need n >= 3";
  (* Barabási–Albert-style growth. [gamma] only modulates how many links a
     newcomer creates; the family is used as a skewed-degree workload. *)
  let links_per_step = max 1 (int_of_float (Float.round (4.0 /. gamma))) in
  let targets = ref [ 0; 1 ] in
  (* Multiset of endpoints; sampling from it is preferential attachment. *)
  let acc = ref [ (0, 1) ] in
  for v = 2 to n - 1 do
    let pool = Array.of_list !targets in
    let wanted = min links_per_step v in
    let chosen = Hashtbl.create wanted in
    let guard = ref 0 in
    while Hashtbl.length chosen < wanted && !guard < 50 * wanted do
      incr guard;
      let u = Rng.choice rng pool in
      if u <> v then Hashtbl.replace chosen u ()
    done;
    Hashtbl.iter
      (fun u () ->
        acc := (u, v) :: !acc;
        targets := u :: !targets)
      chosen;
    targets := v :: !targets
  done;
  Graph.of_edges n !acc

let hypercube d =
  if d < 0 || d > 20 then invalid_arg "Gen.hypercube";
  let n = 1 lsl d in
  let acc = ref [] in
  for v = 0 to n - 1 do
    for b = 0 to d - 1 do
      let u = v lxor (1 lsl b) in
      if u > v then acc := (v, u) :: !acc
    done
  done;
  Graph.of_edges n !acc

let petersen () =
  let outer = List.init 5 (fun i -> (i, (i + 1) mod 5)) in
  let spokes = List.init 5 (fun i -> (i, i + 5)) in
  let inner = List.init 5 (fun i -> (5 + i, 5 + ((i + 2) mod 5))) in
  Graph.of_edges 10 (outer @ spokes @ inner)

let kneser_petersen_family n =
  if n < 5 then invalid_arg "Gen.kneser_petersen_family: need n >= 5";
  (* enumerate 2-subsets {a,b}, a < b, in lexicographic order *)
  let pairs = ref [] in
  for a = n - 1 downto 0 do
    for b = n - 1 downto a + 1 do
      pairs := (a, b) :: !pairs
    done
  done;
  let pairs = Array.of_list !pairs in
  let m = Array.length pairs in
  let acc = ref [] in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      let a1, b1 = pairs.(i) and a2, b2 = pairs.(j) in
      if a1 <> a2 && a1 <> b2 && b1 <> a2 && b1 <> b2 then
        acc := (i, j) :: !acc
    done
  done;
  Graph.of_edges m !acc

let wheel n =
  if n < 3 then invalid_arg "Gen.wheel: need n >= 3";
  let cycle = List.init n (fun i -> (1 + i, 1 + ((i + 1) mod n))) in
  let spokes = List.init n (fun i -> (0, 1 + i)) in
  Graph.of_edges (n + 1) (cycle @ spokes)

let crown n =
  if n < 2 then invalid_arg "Gen.crown: need n >= 2";
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then acc := (i, n + j) :: !acc
    done
  done;
  Graph.of_edges (2 * n) !acc

let disjoint_cliques count size =
  if count < 0 || size < 1 then invalid_arg "Gen.disjoint_cliques";
  let acc = ref [] in
  for c = 0 to count - 1 do
    let base = c * size in
    for u = 0 to size - 1 do
      for v = u + 1 to size - 1 do
        acc := (base + u, base + v) :: !acc
      done
    done
  done;
  Graph.of_edges (count * size) !acc
