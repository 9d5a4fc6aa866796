module H = Ps_hypergraph.Hypergraph

let uncolored = -1

let blank h = Array.make (H.n_vertices h) uncolored

let check h f =
  if Array.length f <> H.n_vertices h then
    invalid_arg "Cf_coloring: coloring length mismatch";
  Array.iter
    (fun c -> if c < uncolored then invalid_arg "Cf_coloring: bad color")
    f

let unique_color_witness h f e =
  check h f;
  (* Count occurrences of each color inside the edge, then return the
     smallest vertex whose color occurs once. *)
  let counts = Hashtbl.create 8 in
  H.iter_edge h e (fun v ->
      if f.(v) <> uncolored then
        Hashtbl.replace counts f.(v)
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts f.(v))));
  let witness = ref None in
  H.iter_edge h e (fun v ->
      if Option.is_none !witness && f.(v) <> uncolored
         && Hashtbl.find counts f.(v) = 1
      then witness := Some (v, f.(v)));
  !witness

let happy h f e = Option.is_some (unique_color_witness h f e)

(* Allocation-free happiness test for the phase loop's inner scan.  The
   Hashtbl-per-edge cost of [unique_color_witness] is fine for audits but
   dominates when every phase re-checks every surviving edge; this
   variant counts colors in a caller-owned scratch array instead (three
   O(|e|) walks, the last restoring the scratch to all-zero). *)
let happy_scratch ~k = Array.make (max k 1) 0

let happy_fast cnt h f e =
  let witness = ref false in
  H.iter_edge h e (fun v ->
      let c = f.(v) in
      if c <> uncolored then cnt.(c) <- cnt.(c) + 1);
  H.iter_edge h e (fun v ->
      let c = f.(v) in
      if c <> uncolored && cnt.(c) = 1 then witness := true);
  H.iter_edge h e (fun v ->
      let c = f.(v) in
      if c <> uncolored then cnt.(c) <- 0);
  !witness

let max_color f = Array.fold_left max uncolored f

(* Whole-coloring checks validate [f] once, then test every edge with
   [happy_fast] over one scratch sized for the largest color: O(n + Σ|e|),
   where calling [happy] per edge would re-validate all of [f] and
   allocate a Hashtbl for every edge. *)
let validated_scratch h f =
  check h f;
  happy_scratch ~k:(max_color f + 1)

let happy_edges h f =
  let cnt = validated_scratch h f in
  let acc = ref [] in
  for e = H.n_edges h - 1 downto 0 do
    if happy_fast cnt h f e then acc := e :: !acc
  done;
  !acc

let count_happy h f = List.length (happy_edges h f)

(* First unhappy edge, if any. *)
let first_unhappy h f =
  let cnt = validated_scratch h f in
  let m = H.n_edges h in
  let e = ref 0 in
  while !e < m && happy_fast cnt h f !e do incr e done;
  if !e < m then Some !e else None

let is_conflict_free h f = Option.is_none (first_unhappy h f)

let num_colors f =
  let seen = Hashtbl.create 16 in
  Array.iter (fun c -> if c <> uncolored then Hashtbl.replace seen c ()) f;
  Hashtbl.length seen

let verify_exn h f =
  match first_unhappy h f with
  | None -> ()
  | Some e ->
      invalid_arg
        (Printf.sprintf "Cf_coloring.verify_exn: edge %d is unhappy" e)
