module G = Ps_graph.Graph
module Rng = Ps_util.Rng
module Parallel = Ps_util.Parallel
module Tm = Ps_util.Telemetry

exception Canceled

type outcome = {
  set : Independent_set.t;
  winner : string;
  sizes : (string * int) list;
  kernel_stats : Kernel.stats;
}

(* The entries share one kernelization: reductions are exact, so every
   solver benefits, and lifting restores the original ids (and
   maximality) uniformly.  Clique removal also runs on the kernel — its
   λ profile comes from carving dense pockets whole, which survives
   kernelization untouched since the rules only fire below [rule_cap]
   degrees or on simplicial/dominated structure. *)
let race ?(domains = 0) ?(cancel = fun () -> false) rng g =
  Tm.with_span "portfolio.race" @@ fun () ->
  if Tm.enabled () then Tm.incr "portfolio.races_started";
  let r = Kernel.reduce g in
  let kg = Kernel.graph r in
  let entries =
    [| ("kernel+greedy-min-degree",
        fun rng -> Approx.greedy_min_degree.Approx.solve rng kg);
       ("kernel+caro-wei", fun rng -> Approx.caro_wei.Approx.solve rng kg);
       ("clique-removal", fun rng -> Clique_removal.run ~cancel rng kg) |]
  in
  let n_entries = Array.length entries in
  (* Children derived before any domain spawns: the race is replayable
     from the seed no matter how the domains interleave. *)
  let rngs = Rng.streams rng n_entries in
  let results = Array.make n_entries None in
  let run_entry i =
    if not (cancel ()) then begin
      let name, f = entries.(i) in
      Tm.with_span "portfolio.entry" @@ fun () ->
      if Tm.enabled () then Tm.set_str "entry" name;
      let ks = f rngs.(i) in
      Independent_set.verify_exn kg ks;
      results.(i) <- Some (Kernel.lift r ks)
    end
  in
  let d =
    if domains = 0 then min n_entries (Parallel.available ())
    else min domains n_entries
  in
  if d <= 1 then
    for i = 0 to n_entries - 1 do
      run_entry i
    done
  else
    Parallel.fork_join ~domains:d (fun di ->
        let i = ref di in
        while !i < n_entries do
          run_entry !i;
          i := !i + d
        done);
  if Array.exists Option.is_none results then begin
    if Tm.enabled () then Tm.incr "portfolio.races_canceled";
    raise Canceled
  end;
  let lifted =
    Array.mapi (fun i s -> (fst entries.(i), Option.get s)) results
  in
  let best = ref 0 in
  Array.iteri
    (fun i (_, s) ->
      if Independent_set.size s > Independent_set.size (snd lifted.(!best))
      then best := i)
    lifted;
  let winner, set = lifted.(!best) in
  if Tm.enabled () then begin
    Tm.set_str "winner" winner;
    Tm.set_int "winner_size" (Independent_set.size set)
  end;
  { set;
    winner;
    sizes =
      Array.to_list
        (Array.map (fun (n, s) -> (n, Independent_set.size s)) lifted);
    kernel_stats = Kernel.stats r }

let solver =
  { Approx.name = "portfolio"; solve = (fun rng g -> (race rng g).set);
    first_fit = None }
