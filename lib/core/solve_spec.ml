type t = {
  solver : Ps_maxis.Approx.solver;
  presolve : Ps_maxis.Kernel.choice;
  k : int option;
  seed : int;
}

let solver_name t =
  (Ps_maxis.Kernel.apply t.presolve t.solver).Ps_maxis.Approx.name

let k_choice t =
  match t.k with
  | None -> Pipeline.From_conservative
  | Some k -> Pipeline.Fixed k
