module G = Ps_graph.Graph
module D = Diagnostic

let rule = "csr"

(* The checker re-derives every structural invariant from the raw
   representation rather than trusting the accessors: [Graph.of_csr
   ~validate:false] (the production fast path) adopts caller arrays
   unchecked, so this is the independent referee for that trust.

   It audits through [Graph.csr_view] — a zero-copy window onto the
   internal offsets array and adjacency store — instead of the copying
   [Graph.to_csr]: on a 10^8-edge instance the copy would double peak
   memory and cost more than the audit itself, and a copy can only ever
   show what the copier chose to materialize.  The view's [v_exact] flag
   distinguishes exact graphs (physical lengths equal logical ones) from
   arena-backed prefixes ([Graph.of_csr_prefix]), whose spare capacity
   is legal and ignored. *)
let csr g =
  let a = D.acc () in
  let v = G.csr_view g in
  let n = v.G.v_n in
  let offsets = v.G.v_offsets in
  let get i = Int32.to_int (Bigarray.Array1.get v.G.v_store i) in
  let store_len = v.G.v_store_len in
  let off_len = Array.length offsets in
  if (if v.G.v_exact then off_len <> n + 1 else off_len < n + 1) then begin
    D.push a
      (D.v rule D.Global "offsets has length %d, expected %s n+1 = %d" off_len
         (if v.G.v_exact then "" else "at least")
         (n + 1));
    D.close a
  end
  else begin
    if offsets.(0) <> 0 then
      D.push a (D.v rule (D.Offset 0) "offsets.(0) = %d, expected 0" offsets.(0));
    for x = 0 to n - 1 do
      if offsets.(x + 1) < offsets.(x) then
        D.push a
          (D.v rule (D.Offset (x + 1)) "offsets decrease: %d after %d"
             offsets.(x + 1) offsets.(x))
    done;
    if
      if v.G.v_exact then offsets.(n) <> store_len
      else offsets.(n) > store_len
    then
      D.push a
        (D.v rule (D.Offset n) "offsets.(n) = %d but store holds %d entries"
           offsets.(n) store_len);
    let arcs = offsets.(n) in
    if arcs >= 0 && arcs mod 2 <> 0 then
      D.push a
        (D.v rule D.Global "%d arcs — odd, rows cannot be symmetric" arcs);
    (* Per-row invariants; guard the bounds so a corrupted offsets array
       yields diagnostics, not an array access exception.  The physical
       store length is the hard bound — arena spare capacity past
       [offsets.(n)] is legal but no row may reach into it, which the
       monotonicity + offsets.(n) checks above already police. *)
    let row_ok x = offsets.(x) >= 0 && offsets.(x) <= offsets.(x + 1)
                   && offsets.(x + 1) <= store_len in
    for x = 0 to n - 1 do
      if not (row_ok x) then
        D.push a
          (D.v rule (D.Row x)
             "row bounds [%d, %d) fall outside the store (length %d)"
             offsets.(x) offsets.(x + 1) store_len)
      else begin
        let lo = offsets.(x) and hi = offsets.(x + 1) in
        for i = lo to hi - 1 do
          let u = get i in
          if u < 0 || u >= n then
            D.push a
              (D.v rule (D.Row x) "entry %d out of range [0, %d)" u n)
          else if u = x then
            D.push a (D.v rule (D.Row x) "self-loop: %d adjacent to itself" x)
          else if i > lo && get (i - 1) >= u then
            D.push a
              (D.v rule (D.Row x)
                 "row not strictly increasing: %d then %d (slots %d, %d)"
                 (get (i - 1)) u (i - 1) i)
        done
      end
    done;
    (* Symmetry: every arc (x, u) needs its mate (u, x).  Linear row scan
       on purpose — binary search would assume the sortedness we may just
       have found violated. *)
    for x = 0 to n - 1 do
      if row_ok x then
        for i = offsets.(x) to offsets.(x + 1) - 1 do
          let u = get i in
          if u >= 0 && u < n && u <> x && row_ok u then begin
            let present = ref false in
            for j = offsets.(u) to offsets.(u + 1) - 1 do
              if get j = x then present := true
            done;
            if not !present then
              D.push a
                (D.v rule (D.Graph_edge (x, u))
                   "asymmetric: %d lists %d but %d does not list %d" x u u x)
          end
        done
    done;
    (* Accessor consistency: the sizes the rest of the repository reads
       must match what the store actually holds. *)
    if D.count a = 0 then begin
      if G.n_edges g * 2 <> arcs then
        D.push a
          (D.v rule D.Global "n_edges = %d but the store holds %d arcs"
             (G.n_edges g) arcs);
      for x = 0 to n - 1 do
        if G.degree g x <> offsets.(x + 1) - offsets.(x) then
          D.push a
            (D.v rule (D.Row x) "degree %d but row length %d" (G.degree g x)
               (offsets.(x + 1) - offsets.(x)))
      done
    end;
    D.close a
  end

let csr_ok g = match csr g with [] -> true | _ :: _ -> false
