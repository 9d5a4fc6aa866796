(* Tests for Ps_hypergraph: structure, generators, derived graphs, I/O. *)

module H = Ps_hypergraph.Hypergraph
module Hgen = Ps_hypergraph.Hgen
module Primal = Ps_hypergraph.Primal
module Hio = Ps_hypergraph.Hio
module G = Ps_graph.Graph
module Rng = Ps_util.Rng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sample () = H.of_edges 5 [ [ 0; 1; 2 ]; [ 2; 3 ]; [ 3; 4; 0 ] ]

(* ------------------------------------------------------------------ *)
(* Structure *)

let test_basic () =
  let h = sample () in
  check "n" 5 (H.n_vertices h);
  check "m" 3 (H.n_edges h);
  check "rank" 3 (H.rank h);
  check "min size" 2 (H.min_edge_size h);
  Alcotest.(check (array int)) "edge sorted" [| 0; 3; 4 |] (H.edge h 2)

let test_edge_mem () =
  let h = sample () in
  check_bool "member" true (H.edge_mem h 0 2);
  check_bool "not member" false (H.edge_mem h 0 3)

let test_duplicate_vertices_collapse () =
  let h = H.of_edges 3 [ [ 1; 1; 2 ] ] in
  check "collapsed" 2 (H.edge_size h 0)

let test_duplicate_edges_kept () =
  (* E is a multiset in the paper; duplicate constraints stay distinct. *)
  let h = H.of_edges 3 [ [ 0; 1 ]; [ 0; 1 ] ] in
  check "m" 2 (H.n_edges h)

let test_rejects_empty_edge () =
  Alcotest.check_raises "empty edge" (Invalid_argument
    "Hypergraph: empty edge") (fun () -> ignore (H.of_edges 3 [ [] ]))

let test_rejects_out_of_range () =
  Alcotest.check_raises "range" (Invalid_argument
    "Hypergraph: vertex out of range") (fun () ->
      ignore (H.of_edges 2 [ [ 0; 2 ] ]))

let test_vertex_degree_incidence () =
  let h = sample () in
  check "deg 0" 2 (H.vertex_degree h 0);
  check "deg 2" 2 (H.vertex_degree h 2);
  check "deg 4" 1 (H.vertex_degree h 4);
  Alcotest.(check (list int)) "incidence 0" [ 0; 2 ] (H.incident_edges h 0);
  Alcotest.(check (list int)) "incidence 3" [ 1; 2 ] (H.incident_edges h 3)

let test_almost_uniform () =
  let h = sample () in
  (* sizes 3, 2, 3: k = 2, need 3 <= (1+eps)*2 *)
  Alcotest.(check (option int)) "eps=0.5" (Some 2)
    (H.almost_uniform_witness h 0.5);
  Alcotest.(check (option int)) "eps=0.25" None
    (H.almost_uniform_witness h 0.25);
  check_bool "is" true (H.is_almost_uniform h 0.5);
  check_bool "uniform always" true
    (H.is_almost_uniform (Hgen.disjoint_blocks ~blocks:3 ~size:2) 0.0)

let test_almost_uniform_edgeless () =
  let h = H.of_edges 4 [] in
  Alcotest.(check (option int)) "no edges" None
    (H.almost_uniform_witness h 1.0)

let test_restrict_edges () =
  let h = sample () in
  let h', back = H.restrict_edges h [ 2; 0 ] in
  check "m" 2 (H.n_edges h');
  check "same n" 5 (H.n_vertices h');
  Alcotest.(check (array int)) "back sorted" [| 0; 2 |] back;
  Alcotest.(check (array int)) "edge 1 is old 2" [| 0; 3; 4 |] (H.edge h' 1)

let test_restrict_empty () =
  let h = sample () in
  let h', _ = H.restrict_edges h [] in
  check "no edges" 0 (H.n_edges h');
  check "rank 0" 0 (H.rank h')

let test_equal () =
  check_bool "equal" true (H.equal (sample ()) (sample ()));
  check_bool "order matters in edges list" false
    (H.equal (sample ()) (H.of_edges 5 [ [ 2; 3 ]; [ 0; 1; 2 ]; [ 3; 4; 0 ] ]))

(* ------------------------------------------------------------------ *)
(* Generators *)

let test_gen_uniform () =
  let rng = Rng.create 1 in
  let h = Hgen.uniform_random rng ~n:20 ~m:15 ~k:4 in
  check "m" 15 (H.n_edges h);
  check "rank" 4 (H.rank h);
  check "min" 4 (H.min_edge_size h)

let test_gen_almost_uniform () =
  let rng = Rng.create 2 in
  let h = Hgen.almost_uniform_random rng ~n:30 ~m:25 ~k:4 ~eps:0.5 in
  check "m" 25 (H.n_edges h);
  check_bool "almost uniform" true (H.is_almost_uniform h 0.5);
  check_bool "sizes in [4,6]" true
    (H.min_edge_size h >= 4 && H.rank h <= 6)

let test_gen_interval () =
  let h = Hgen.interval ~n:10 [ (0, 3); (5, 5); (2, 9) ] in
  check "m" 3 (H.n_edges h);
  Alcotest.(check (array int)) "interval edge" [| 0; 1; 2; 3 |] (H.edge h 0);
  check "singleton" 1 (H.edge_size h 1);
  check "long" 8 (H.edge_size h 2)

let test_gen_interval_bad_range () =
  Alcotest.check_raises "bad" (Invalid_argument "Hgen.interval: bad range")
    (fun () -> ignore (Hgen.interval ~n:5 [ (3, 2) ]))

let test_gen_random_intervals () =
  let rng = Rng.create 3 in
  let h = Hgen.random_intervals rng ~n:50 ~m:30 ~min_len:2 ~max_len:6 in
  check "m" 30 (H.n_edges h);
  check_bool "lengths" true (H.min_edge_size h >= 2 && H.rank h <= 6);
  (* every edge must be a contiguous run *)
  for e = 0 to H.n_edges h - 1 do
    let members = H.edge h e in
    Array.iteri
      (fun i v -> if i > 0 then check "contiguous" (members.(i - 1) + 1) v)
      members
  done

let test_gen_all_intervals () =
  let h = Hgen.all_intervals_of_length ~n:6 ~len:3 in
  check "count" 4 (H.n_edges h);
  check_bool "uniform" true (H.is_almost_uniform h 0.0)

let test_gen_closed_neighborhoods () =
  let g = Ps_graph.Gen.star 4 in
  let h = Hgen.closed_neighborhoods g in
  check "m = n" 4 (H.n_edges h);
  check "center edge full" 4 (H.edge_size h 0);
  check "leaf edge" 2 (H.edge_size h 1)

let test_gen_sunflower () =
  let h = Hgen.sunflower ~n_petals:3 ~core:2 ~petal:2 in
  check "n" 8 (H.n_vertices h);
  check "m" 3 (H.n_edges h);
  check "edge size" 4 (H.edge_size h 0);
  (* all edges share exactly the core *)
  check_bool "core shared" true (H.edge_mem h 0 0 && H.edge_mem h 2 0)

let test_gen_from_graph () =
  let g = Ps_graph.Gen.path 4 in
  let h = Hgen.from_graph g in
  check "m" 3 (H.n_edges h);
  check "2-uniform" 2 (H.rank h);
  check_bool "uniform" true (H.is_almost_uniform h 0.0);
  (* a proper 2-coloring of the path is conflict-free on its edges *)
  let proper = [| 0; 1; 0; 1 |] in
  check_bool "proper coloring is CF" true
    (Ps_cfc.Cf_coloring.is_conflict_free h proper);
  (* a monochromatic pair breaks exactly its edge *)
  let mono = [| 0; 0; 1; 0 |] in
  check_bool "mono edge unhappy" false (Ps_cfc.Cf_coloring.happy h mono 0);
  (* coloring exactly one endpoint also works *)
  let half = [| 0; -1; 0; -1 |] in
  check_bool "half-colored CF" true
    (Ps_cfc.Cf_coloring.is_conflict_free h half)

let test_gen_disjoint_blocks () =
  let h = Hgen.disjoint_blocks ~blocks:4 ~size:3 in
  check "m" 4 (H.n_edges h);
  for v = 0 to H.n_vertices h - 1 do
    check "degree 1" 1 (H.vertex_degree h v)
  done

(* ------------------------------------------------------------------ *)
(* Derived graphs *)

let test_primal () =
  let h = sample () in
  let g = Primal.primal h in
  check "n" 5 (G.n_vertices g);
  check_bool "0-1 share edge" true (G.has_edge g 0 1);
  check_bool "1-3 no shared edge" false (G.has_edge g 1 3);
  check_bool "0-4 share edge 2" true (G.has_edge g 0 4)

let test_incidence () =
  let h = sample () in
  let g = Primal.incidence h in
  check "n + m vertices" 8 (G.n_vertices g);
  check "edges = sum of sizes" 8 (G.n_edges g);
  check_bool "v0-e0" true (G.has_edge g 0 5);
  check_bool "v0-e1" false (G.has_edge g 0 6)

let test_dual () =
  let h = sample () in
  let d = Primal.dual h in
  (* dual: vertices = 3 edges; edges = one per hypergraph vertex with
     degree >= 1 (all 5 here) *)
  check "dual n" 3 (H.n_vertices d);
  check "dual m" 5 (H.n_edges d)

let test_line_graph () =
  let h = sample () in
  let lg = Primal.line_graph h in
  check "n = m" 3 (G.n_vertices lg);
  check_bool "e0-e1 intersect (vertex 2)" true (G.has_edge lg 0 1);
  check_bool "e0-e2 intersect (vertex 0)" true (G.has_edge lg 0 2);
  check_bool "e1-e2 intersect (vertex 3)" true (G.has_edge lg 1 2)

let test_line_graph_disjoint () =
  let h = Hgen.disjoint_blocks ~blocks:3 ~size:2 in
  check "no intersections" 0 (G.n_edges (Primal.line_graph h))

(* ------------------------------------------------------------------ *)
(* Set cover *)

module Sc = Ps_hypergraph.Set_cover

let test_set_cover_verify () =
  let h = sample () in
  check_bool "all edges cover" true
    (Sc.is_cover h [ 0; 1; 2 ]);
  (* edges 0 = {0,1,2} and 2 = {0,3,4} cover everything *)
  check_bool "two suffice" true (Sc.is_cover h [ 0; 2 ]);
  check_bool "one is not enough" false (Sc.is_cover h [ 0 ]);
  check_bool "verify raises" true
    (try
       Sc.verify_exn h [ 1 ];
       false
     with Invalid_argument _ -> true)

let test_set_cover_isolated_vertices_ignored () =
  (* vertex 4 has degree 0: it cannot and need not be covered *)
  let h = H.of_edges 5 [ [ 0; 1 ]; [ 2; 3 ] ] in
  check_bool "covers coverable part" true (Sc.is_cover h [ 0; 1 ])

let test_set_cover_greedy_valid () =
  let rng = Rng.create 41 in
  List.iter
    (fun h ->
      let c = Sc.greedy h in
      check_bool "greedy covers" true (Sc.is_cover h c))
    [ sample ();
      Hgen.uniform_random rng ~n:30 ~m:20 ~k:5;
      Hgen.random_intervals rng ~n:40 ~m:25 ~min_len:2 ~max_len:8;
      Hgen.disjoint_blocks ~blocks:6 ~size:3;
      H.of_edges 4 [] ]

let test_set_cover_greedy_picks_big_first () =
  (* one huge edge covering everything: greedy takes exactly it *)
  let h = H.of_edges 6 [ [ 0; 1 ]; [ 0; 1; 2; 3; 4; 5 ]; [ 4; 5 ] ] in
  Alcotest.(check (list int)) "single pick" [ 1 ] (Sc.greedy h)

let test_set_cover_exact_known () =
  let number h = Option.get (Sc.cover_number_within ~budget:1_000_000 h) in
  check "blocks need all" 4 (number (Hgen.disjoint_blocks ~blocks:4 ~size:2));
  check "sample needs 2" 2 (number (sample ()));
  check "edgeless needs 0" 0 (number (H.of_edges 3 []))

let test_set_cover_exact_at_most_greedy () =
  let rng = Rng.create 42 in
  for _ = 1 to 8 do
    let h = Hgen.uniform_random rng ~n:16 ~m:10 ~k:4 in
    let exact = Option.get (Sc.cover_number_within ~budget:2_000_000 h) in
    check_bool "exact <= greedy" true (exact <= List.length (Sc.greedy h))
  done

let test_set_cover_equals_domination_on_neighborhoods () =
  (* Minimum set cover of the closed-neighborhood hypergraph IS the
     domination number — the classic correspondence, checked exactly. *)
  let rng = Rng.create 43 in
  for _ = 1 to 5 do
    let g = Ps_graph.Gen.gnp rng 14 0.2 in
    let h = Hgen.closed_neighborhoods g in
    let cover = Option.get (Sc.cover_number_within ~budget:2_000_000 h) in
    let gamma =
      Option.get
        (Ps_graph.Dominating.domination_number_within ~budget:2_000_000 g)
    in
    check "cover = gamma" gamma cover
  done

let test_set_cover_budget () =
  let rng = Rng.create 44 in
  let h = Hgen.uniform_random rng ~n:30 ~m:25 ~k:3 in
  check_bool "tiny budget" true (Sc.minimum_within ~budget:1 h = None)

(* ------------------------------------------------------------------ *)
(* I/O *)

let test_hio_roundtrip () =
  let h = sample () in
  check_bool "roundtrip" true (H.equal h (Hio.of_text (Hio.to_text h)))

let test_hio_random_roundtrip () =
  let rng = Rng.create 5 in
  let h = Hgen.almost_uniform_random rng ~n:40 ~m:30 ~k:3 ~eps:1.0 in
  check_bool "roundtrip" true (H.equal h (Hio.of_text (Hio.to_text h)))

let test_hio_comments () =
  let h = Hio.of_text "# hypergraph\n3 1\n2 0 2\n" in
  check "m" 1 (H.n_edges h);
  Alcotest.(check (array int)) "edge" [| 0; 2 |] (H.edge h 0)

let test_hio_size_mismatch () =
  check_bool "size mismatch raises" true
    (try
       ignore (Hio.of_text "3 1\n3 0 1\n");
       false
     with Failure _ -> true)

let test_hio_whitespace_tolerance () =
  let h = Hio.of_text "3\t1\r\n2  0 \t 2 \r\n" in
  check "m" 1 (H.n_edges h);
  Alcotest.(check (array int)) "edge" [| 0; 2 |] (H.edge h 0)

let test_hio_rejects_out_of_range_vertex () =
  Alcotest.check_raises "id = n"
    (Failure "Hio.of_text: line 2: vertex id 3 out of range [0, 3)")
    (fun () -> ignore (Hio.of_text "3 1\n2 0 3\n"));
  Alcotest.check_raises "negative id"
    (Failure "Hio.of_text: line 2: vertex id -2 out of range [0, 3)")
    (fun () -> ignore (Hio.of_text "3 1\n2 -2 1\n"));
  Alcotest.check_raises "negative edge count"
    (Failure "Hio.of_text: line 1: edge count must be nonnegative")
    (fun () -> ignore (Hio.of_text "3 -1\n"))

(* An id of 19+ digits used to wrap modulo 2^63 in the fast scanner and
   land in range; it must be rejected instead. *)
let test_hio_rejects_overlong_id () =
  Alcotest.check_raises "wraps into range"
    (Failure "Hio.of_text: line 2: not a number") (fun () ->
      ignore (Hio.of_text "10 1\n2 9223372036854775813 1\n"));
  Alcotest.check_raises "max_int is out of range"
    (Failure
       "Hio.of_text: line 2: vertex id 4611686018427387903 out of range [0, 10)")
    (fun () -> ignore (Hio.of_text "10 1\n2 4611686018427387903 1\n"));
  let h = Hio.of_text "10 1\n2 000000000000000000001 3\n" in
  Alcotest.(check (array int)) "leading zeros still parse" [| 1; 3 |]
    (H.edge h 0)

(* A huge header edge count on a tiny input must reach the count check
   in both readers, not size an array from the header. *)
let test_hio_huge_header_m () =
  let text = "3 100000000000000\n2 0 1\n" in
  let want =
    Failure "Hio.of_text: header promises 100000000000000 edges, found 1"
  in
  Alcotest.check_raises "of_text" want (fun () -> ignore (Hio.of_text text));
  let path = Filename.temp_file "pslocal" ".hg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Alcotest.check_raises "read_file" want (fun () ->
          ignore (Hio.read_file path)))

(* A header promising 2^60 vertices (past [Sys.max_array_length]) or
   2^50 (more than any user address space holds): both readers report
   line 1 instead of escaping with [Invalid_argument] or
   [Out_of_memory]. *)
let test_hio_huge_header_n () =
  List.iter
    (fun (n, why) ->
      let text = Printf.sprintf "%d 1\n2 0 1\n" n in
      let want = Failure (Printf.sprintf "Hio.of_text: line 1: %s" why) in
      Alcotest.check_raises "of_text" want (fun () -> ignore (Hio.of_text text));
      let path = Filename.temp_file "pslocal" ".hg" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_bin path (fun oc -> output_string oc text);
          Alcotest.check_raises "read_file" want (fun () ->
              ignore (Hio.read_file path))))
    [ (1 lsl 60,
       Printf.sprintf "vertex count %d exceeds the array limit %d" (1 lsl 60)
         Sys.max_array_length);
      (1 lsl 50, Printf.sprintf "vertex count %d: out of memory" (1 lsl 50)) ]

let test_hio_file_roundtrip () =
  let h = sample () in
  let path = Filename.temp_file "pslocal" ".hg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Hio.write_file path h;
      check_bool "file roundtrip" true (H.equal h (Hio.read_file path)))

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let arbitrary_hypergraph =
  QCheck.make
    ~print:(fun (seed, n, m, k) ->
      Printf.sprintf "hg seed=%d n=%d m=%d k=%d" seed n m k)
    QCheck.Gen.(
      quad (int_bound 1000) (int_range 4 25) (int_range 1 20) (int_range 1 4))

let hypergraph_of (seed, n, m, k) =
  let k = min k n in
  Hgen.almost_uniform_random (Rng.create seed) ~n ~m ~k ~eps:1.0

let prop_incidence_consistent =
  QCheck.Test.make ~count:100
    ~name:"vertex degrees equal incidence list lengths" arbitrary_hypergraph
    (fun params ->
      let h = hypergraph_of params in
      let ok = ref true in
      for v = 0 to H.n_vertices h - 1 do
        if H.vertex_degree h v <> List.length (H.incident_edges h v) then
          ok := false;
        List.iter
          (fun e -> if not (H.edge_mem h e v) then ok := false)
          (H.incident_edges h v)
      done;
      !ok)

let prop_sum_degrees_is_sum_sizes =
  QCheck.Test.make ~count:100 ~name:"Σ deg(v) = Σ |e|" arbitrary_hypergraph
    (fun params ->
      let h = hypergraph_of params in
      let degrees = ref 0 and sizes = ref 0 in
      for v = 0 to H.n_vertices h - 1 do
        degrees := !degrees + H.vertex_degree h v
      done;
      for e = 0 to H.n_edges h - 1 do
        sizes := !sizes + H.edge_size h e
      done;
      !degrees = !sizes)

let prop_primal_edge_iff_shared =
  QCheck.Test.make ~count:50 ~name:"primal adjacency iff a shared edge"
    arbitrary_hypergraph (fun params ->
      let h = hypergraph_of params in
      let g = Primal.primal h in
      let ok = ref true in
      for u = 0 to H.n_vertices h - 1 do
        for v = u + 1 to H.n_vertices h - 1 do
          let shared =
            List.exists
              (fun e -> H.edge_mem h e v)
              (H.incident_edges h u)
          in
          if shared <> G.has_edge g u v then ok := false
        done
      done;
      !ok)

let prop_hio_roundtrip =
  QCheck.Test.make ~count:50 ~name:"hypergraph IO roundtrip"
    arbitrary_hypergraph (fun params ->
      let h = hypergraph_of params in
      H.equal h (Hio.of_text (Hio.to_text h)))

(* Same separator randomization as the Gio test: runs of spaces/tabs,
   optional leading/trailing blanks, CRLF endings. *)
let mangle_whitespace rng text =
  let buf = Buffer.create (String.length text * 2) in
  let sep () =
    for _ = 0 to Rng.int rng 3 do
      Buffer.add_char buf (if Rng.bernoulli rng 0.5 then '\t' else ' ')
    done
  in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" then begin
           if Rng.bernoulli rng 0.3 then sep ();
           List.iteri
             (fun i tok ->
               if i > 0 then sep ();
               Buffer.add_string buf tok)
             (String.split_on_char ' ' line);
           if Rng.bernoulli rng 0.3 then sep ();
           if Rng.bernoulli rng 0.5 then Buffer.add_char buf '\r';
           Buffer.add_char buf '\n'
         end);
  Buffer.contents buf

let prop_hio_roundtrip_whitespace =
  QCheck.Test.make ~count:50
    ~name:"hypergraph IO roundtrip under randomized whitespace"
    arbitrary_hypergraph (fun params ->
      let seed, _, _, _ = params in
      let h = hypergraph_of params in
      let text = mangle_whitespace (Rng.create (seed + 1)) (Hio.to_text h) in
      H.equal h (Hio.of_text text))

let prop_restrict_preserves_edges =
  QCheck.Test.make ~count:50 ~name:"restrict keeps exactly chosen edges"
    arbitrary_hypergraph (fun params ->
      let h = hypergraph_of params in
      let keep =
        List.filter (fun e -> e mod 2 = 0)
          (List.init (H.n_edges h) (fun e -> e))
      in
      let h', back = H.restrict_edges h keep in
      H.n_edges h' = List.length keep
      && Array.to_list back = keep
      && List.for_all
           (fun i -> H.edge h' i = H.edge h back.(i))
           (List.init (H.n_edges h') (fun i -> i)))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_incidence_consistent;
      prop_sum_degrees_is_sum_sizes;
      prop_primal_edge_iff_shared;
      prop_hio_roundtrip;
      prop_hio_roundtrip_whitespace;
      prop_restrict_preserves_edges ]

let suites =
  [ ( "hypergraph.core",
      [ Alcotest.test_case "basic" `Quick test_basic;
        Alcotest.test_case "edge membership" `Quick test_edge_mem;
        Alcotest.test_case "duplicate vertices collapse" `Quick
          test_duplicate_vertices_collapse;
        Alcotest.test_case "duplicate edges kept" `Quick
          test_duplicate_edges_kept;
        Alcotest.test_case "rejects empty edge" `Quick
          test_rejects_empty_edge;
        Alcotest.test_case "rejects out of range" `Quick
          test_rejects_out_of_range;
        Alcotest.test_case "degree/incidence" `Quick
          test_vertex_degree_incidence;
        Alcotest.test_case "almost uniform" `Quick test_almost_uniform;
        Alcotest.test_case "almost uniform edgeless" `Quick
          test_almost_uniform_edgeless;
        Alcotest.test_case "restrict edges" `Quick test_restrict_edges;
        Alcotest.test_case "restrict to empty" `Quick test_restrict_empty;
        Alcotest.test_case "equality" `Quick test_equal ] );
    ( "hypergraph.gen",
      [ Alcotest.test_case "uniform" `Quick test_gen_uniform;
        Alcotest.test_case "almost uniform" `Quick test_gen_almost_uniform;
        Alcotest.test_case "interval" `Quick test_gen_interval;
        Alcotest.test_case "interval bad range" `Quick
          test_gen_interval_bad_range;
        Alcotest.test_case "random intervals" `Quick
          test_gen_random_intervals;
        Alcotest.test_case "all intervals" `Quick test_gen_all_intervals;
        Alcotest.test_case "closed neighborhoods" `Quick
          test_gen_closed_neighborhoods;
        Alcotest.test_case "sunflower" `Quick test_gen_sunflower;
        Alcotest.test_case "from graph" `Quick test_gen_from_graph;
        Alcotest.test_case "disjoint blocks" `Quick
          test_gen_disjoint_blocks ] );
    ( "hypergraph.derived",
      [ Alcotest.test_case "primal" `Quick test_primal;
        Alcotest.test_case "incidence" `Quick test_incidence;
        Alcotest.test_case "dual" `Quick test_dual;
        Alcotest.test_case "line graph" `Quick test_line_graph;
        Alcotest.test_case "line graph disjoint" `Quick
          test_line_graph_disjoint ] );
    ( "hypergraph.set_cover",
      [ Alcotest.test_case "verify" `Quick test_set_cover_verify;
        Alcotest.test_case "isolated ignored" `Quick
          test_set_cover_isolated_vertices_ignored;
        Alcotest.test_case "greedy valid" `Quick test_set_cover_greedy_valid;
        Alcotest.test_case "greedy picks big" `Quick
          test_set_cover_greedy_picks_big_first;
        Alcotest.test_case "exact known" `Quick test_set_cover_exact_known;
        Alcotest.test_case "exact <= greedy" `Quick
          test_set_cover_exact_at_most_greedy;
        Alcotest.test_case "cover = domination" `Quick
          test_set_cover_equals_domination_on_neighborhoods;
        Alcotest.test_case "budget" `Quick test_set_cover_budget ] );
    ( "hypergraph.io",
      [ Alcotest.test_case "roundtrip" `Quick test_hio_roundtrip;
        Alcotest.test_case "random roundtrip" `Quick
          test_hio_random_roundtrip;
        Alcotest.test_case "comments" `Quick test_hio_comments;
        Alcotest.test_case "whitespace tolerance" `Quick
          test_hio_whitespace_tolerance;
        Alcotest.test_case "out-of-range vertex" `Quick
          test_hio_rejects_out_of_range_vertex;
        Alcotest.test_case "size mismatch" `Quick test_hio_size_mismatch;
        Alcotest.test_case "overlong id" `Quick test_hio_rejects_overlong_id;
        Alcotest.test_case "huge header edge count" `Quick
          test_hio_huge_header_m;
        Alcotest.test_case "huge header vertex count" `Quick
          test_hio_huge_header_n;
        Alcotest.test_case "file roundtrip" `Quick test_hio_file_roundtrip ]
    );
    ("hypergraph.properties", props) ]
