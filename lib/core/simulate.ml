module H = Ps_hypergraph.Hypergraph
module Ix = Triple.Indexer

let host_dilation = 2

let neighbors_oracle h ix idx =
  let acc = ref [] in
  Conflict_graph.iter_neighbors_implicit h ix (Ix.decode ix idx) (fun t ->
      acc := Ix.encode ix t :: !acc);
  let arr = Array.of_list !acc in
  Array.sort Int.compare arr;
  arr

type mis_result = {
  independent_set : Ps_maxis.Independent_set.t;
  virtual_rounds : int;
  host_rounds : int;
  messages : int;
}

let luby_mis ?(seed = 0) h ~k =
  let ix = Ix.make h ~k in
  let n = Ix.total ix in
  let flags, stats =
    Ps_local.Luby.run_oracle ~seed ~n ~neighbors:(neighbors_oracle h ix) ()
  in
  let set = Ps_util.Bitset.create n in
  Array.iteri (fun i flag -> if flag then Ps_util.Bitset.add set i) flags;
  { independent_set = set;
    virtual_rounds = stats.Ps_local.Network.rounds;
    host_rounds = host_dilation * stats.Ps_local.Network.rounds;
    messages = stats.Ps_local.Network.messages_sent }

let local_solver ~seed =
  { Ps_maxis.Approx.name = Printf.sprintf "luby-local(seed=%d)" seed;
    solve =
      (fun _rng g ->
        let flags, _ = Ps_local.Luby.run ~seed g in
        Ps_maxis.Independent_set.of_indicator flags);
    first_fit = None }
