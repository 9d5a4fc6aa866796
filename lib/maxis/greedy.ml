module G = Ps_graph.Graph
module B = Ps_util.Bitset
module Pq = Ps_util.Pqueue
module Tm = Ps_util.Telemetry

(* Shared core: repeatedly pop the extreme-degree vertex, add it to the
   set, delete its closed neighborhood, updating residual degrees.

   A step reads rows in place from the CSR store.  [kill v] deletes v's
   live neighbors; [tally u] then walks the row of each deleted [u] and
   counts, per live vertex, the neighbors it lost this step.  The tally
   is the hot loop (it reads every deleted vertex's row once), so it is
   a plain loop with no call per entry.  Once the sweep ends, one
   [Pq.shift] per touched vertex applies its whole count.  On conflict
   graphs, whose rows are hyperedge cliques, a live vertex loses many
   neighbors in one step: over the 15 G_k of a seed-1 reduce-default
   cycle, 5.53 M decrements land as 0.89 M heap updates.  Pops are
   ordered by (priority, key), a pure function of the priority map, and
   all of a step's decrements land before the next pop, so the chosen
   set is the one a per-decrement update gives. *)
let by_degree ~invert g =
  let n = G.n_vertices g in
  let queue = Pq.create n in
  let sign = if invert then -1 else 1 in
  for v = 0 to n - 1 do
    Pq.insert queue v (sign * G.degree g v)
  done;
  let chosen = B.create n in
  (* [lost.(w)] is -1 once [w] is deleted (chosen or a chosen vertex's
     neighbor); for a live [w] it counts the neighbors [w] lost in the
     current step, and is 0 between steps.  One array read answers both
     "live?" and "already touched this step?". *)
  let lost = Array.make (max n 1) 0 in
  (* This step's deleted neighbors and its touched live vertices. *)
  let removed = Array.make (max n 1) 0 and nr = ref 0 in
  let touched = Array.make (max n 1) 0 and nt = ref 0 in
  let view = G.csr_view g in
  let off = view.G.v_offsets and a = view.G.v_store in
  let drop u =
    if lost.(u) >= 0 then begin
      lost.(u) <- -1;
      Pq.remove queue u;
      removed.(!nr) <- u;
      incr nr
    end
  in
  let kill v =
    for i = off.(v) to off.(v + 1) - 1 do
      drop (Int32.to_int (Bigarray.Array1.unsafe_get a i))
    done
  in
  (* Branch-free: whether an entry is live, and whether it is touched
     for the first time this step, follow the row's order of deleted
     and live vertices, which no branch predictor learns.  [c asr 62] is
     the sign of [c] (-1 or 0), so [live] is 1 for a live [w] and 0 for
     a deleted one, and [c - 1] is negative only when [c] is 0.  [w] is
     always written at [touched.(!nt)] and kept by advancing [nt]; [nt]
     counts distinct live vertices, fewer than [n], so the slot exists.
     Row entries are vertices, so [lost] reads are in range. *)
  let tally u =
    for i = off.(u) to off.(u + 1) - 1 do
      let w = Int32.to_int (Bigarray.Array1.unsafe_get a i) in
      let c = Array.unsafe_get lost w in
      let live = 1 + (c asr 62) in
      Array.unsafe_set lost w (c + live);
      Array.unsafe_set touched !nt w;
      nt := !nt + (((c - 1) asr 62) land live)
    done
  in
  let decrements = ref 0 and updates = ref 0 in
  while not (Pq.is_empty queue) do
    let v = Pq.pop_min_key queue in
    B.add chosen v;
    lost.(v) <- -1;
    nr := 0;
    kill v;
    for i = 0 to !nr - 1 do
      tally removed.(i)
    done;
    for i = 0 to !nt - 1 do
      let w = touched.(i) in
      let c = lost.(w) in
      Pq.shift queue w (-sign * c);
      decrements := !decrements + c;
      lost.(w) <- 0
    done;
    updates := !updates + !nt;
    nt := 0
  done;
  if Tm.enabled () then begin
    Tm.count "greedy.decrements" !decrements;
    Tm.count "greedy.heap_updates" !updates;
    Tm.count "greedy.removals" (n - B.cardinal chosen)
  end;
  chosen

let min_degree g = by_degree ~invert:false g

let max_degree_adversary g = by_degree ~invert:true g

(* First fit, reading rows in place against an n-byte mask of blocked
   vertices (chosen, or next to a chosen one), as [Independent_set]'s
   probes do: a byte store per row entry, with no [Bitset] call and no
   closure per chosen vertex.  Row entries are vertices of [g], so the
   mask writes are unchecked; [order]'s entries are checked. *)
let in_order g order =
  let n = G.n_vertices g in
  if Array.length order <> n then
    invalid_arg "Greedy.in_order: order length mismatch";
  let blocked = Bytes.make n '\000' in
  let chosen = B.create n in
  let view = G.csr_view g in
  let off = view.G.v_offsets and a = view.G.v_store in
  for k = 0 to n - 1 do
    let v = order.(k) in
    if v < 0 || v >= n then invalid_arg "Greedy.in_order: vertex out of range";
    if Bytes.unsafe_get blocked v = '\000' then begin
      B.add chosen v;
      Bytes.unsafe_set blocked v '\001';
      for i = off.(v) to off.(v + 1) - 1 do
        Bytes.unsafe_set blocked
          (Int32.to_int (Bigarray.Array1.unsafe_get a i))
          '\001'
      done
    end
  done;
  chosen
