(* The per-decrement min-degree greedy that [Ps_maxis.Greedy] replaced:
   one [Pq.update] (a heap sift) for every edge between a deleted vertex
   and a live one, rows walked through [Graph.iter_neighbors].  Kept
   verbatim as the differential oracle for the batched sweep, which must
   return the same set bit for bit. *)

module G = Ps_graph.Graph
module B = Ps_util.Bitset
module Pq = Ps_util.Pqueue

(* Shared core: repeatedly pop the extreme-degree vertex, add it to the
   set, delete its closed neighborhood, updating residual degrees. *)
let by_degree ~invert g =
  let n = G.n_vertices g in
  let queue = Pq.create n in
  let sign = if invert then -1 else 1 in
  for v = 0 to n - 1 do
    Pq.insert queue v (sign * G.degree g v)
  done;
  let alive = B.create n in
  B.fill alive;
  let chosen = B.create n in
  (* Scratch for the per-pop neighborhood sweep (at most max-degree
     entries used at a time). *)
  let removed = Array.make (max n 1) 0 in
  while not (Pq.is_empty queue) do
    let v, _ = Pq.pop_min queue in
    B.add chosen v;
    B.remove alive v;
    (* Delete N(v) in two passes: first drop every alive neighbor from
       the queue and the alive set, then propagate degree decrements
       from each.  Decrementing only after the whole neighborhood is
       dead skips the [Pq.update] sift chase for vertices this same
       sweep deletes anyway — their priorities are discarded on
       removal, so updating them first was pure overhead (dominant on
       dense rows).  Pops are ordered by (priority, key), a pure
       function of the priority map, so the chosen set is unchanged. *)
    let nr = ref 0 in
    G.iter_neighbors g v (fun u ->
        if B.mem alive u then begin
          B.remove alive u;
          Pq.remove queue u;
          removed.(!nr) <- u;
          incr nr
        end);
    for i = 0 to !nr - 1 do
      G.iter_neighbors g removed.(i) (fun w ->
          if B.mem alive w then
            Pq.update queue w (Pq.priority queue w - sign))
    done
  done;
  chosen

let min_degree g = by_degree ~invert:false g

let max_degree_adversary g = by_degree ~invert:true g
