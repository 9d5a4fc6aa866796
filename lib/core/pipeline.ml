module H = Ps_hypergraph.Hypergraph
module Cf = Ps_cfc.Cf_coloring
module Cg = Ps_cfc.Cf_greedy

type k_choice =
  | Fixed of int
  | From_conservative
  | From_ruler

let choose_k choice h =
  match choice with
  | Fixed k ->
      if k < 1 then invalid_arg "Pipeline.choose_k: k must be >= 1";
      k
  | From_conservative ->
      let f = Cg.conservative h in
      Cf.verify_exn h f;
      max 1 (Cf.max_color f + 1)
  | From_ruler ->
      let f = Cg.ruler h in
      Cf.verify_exn h f;
      max 1 (Cg.ruler_color_count (max 1 (H.n_vertices h)))

type result = {
  reduction : Reduction.run;
  certificate : Certify.t;
  k : int;
}

let solve_unchecked ?cancel ?seed ?domains ?warm ?on_phase0 ?presolve
    ?(k = From_conservative) ~solver h =
  let k = choose_k k h in
  let reduction =
    Reduction.run ?cancel ?seed ?domains ?warm ?on_phase0 ?presolve
      ~solver ~k h
  in
  { reduction; certificate = Certify.certify reduction; k }

let solve ?cancel ?seed ?domains ?warm ?on_phase0 ?presolve ?k ~solver
    h =
  let result =
    solve_unchecked ?cancel ?seed ?domains ?warm ?on_phase0 ?presolve
      ?k ~solver h
  in
  if not result.certificate.Certify.all_ok then
    failwith
      (Format.asprintf "Pipeline.solve: certificate failed: %a" Certify.pp
         result.certificate);
  result
