(* Tests for the generate, build and write path: the Rng streams pinned
   from the record-of-int64 generator, allocation-free draws and
   writers, the sort-free CSR builder, the integer-threshold R-MAT
   generator and the digit writer, each against its oracle. *)

module Rng = Ps_util.Rng
module G = Ps_graph.Graph
module Gen = Ps_graph.Gen
module Gio = Ps_graph.Gio
module H = Ps_hypergraph.Hypergraph
module Hgen = Ps_hypergraph.Hgen
module Hio = Ps_hypergraph.Hio
module Text = Ps_oracle.Text

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Rng: pinned streams, the bits53 contract, allocation *)

let test_rng_pins () =
  let want =
    In_channel.with_open_text "../data/rng_pins.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let got = Rng_pins.lines () in
  check "pinned lines" (List.length want) (List.length got);
  List.iter2
    (fun w g ->
      let name =
        match String.split_on_char ' ' w with
        | seed :: kind :: _ -> seed ^ " " ^ kind
        | _ -> w
      in
      check_string name w g)
    want got

let test_bits53_contract () =
  List.iter
    (fun seed ->
      let t = Rng.create seed in
      for _ = 1 to 2000 do
        let a = Rng.copy t and b = Rng.copy t in
        let x = Rng.bits53 t in
        check "top 53 bits of bits64"
          (Int64.to_int (Int64.shift_right_logical (Rng.bits64 a) 11))
          x;
        check_bool "float 1.0 is bits53 * 2^-53" true
          (Float.equal (Rng.float b 1.0) (float_of_int x *. 0x1p-53));
        check_bool "one output drawn" true
          (Int64.equal (Rng.bits64 (Rng.copy t)) (Rng.bits64 a))
      done)
    Rng_pins.seeds

(* Minor words [f] allocates, net of the measurement's own. *)
let minor_words f =
  let words g =
    let before = Gc.minor_words () in
    g ();
    Gc.minor_words () -. before
  in
  words f -. words ignore

let native = Sys.backend_type = Sys.Native

let test_draws_allocate_nothing () =
  let t = Rng.create 5 in
  let draws name f =
    let w =
      minor_words (fun () ->
          for _ = 1 to 100_000 do
            f ()
          done)
    in
    if native then Alcotest.(check (float 0.)) (name ^ ": minor words") 0. w
  in
  draws "int" (fun () -> ignore (Sys.opaque_identity (Rng.int t 1000)));
  draws "int_in" (fun () -> ignore (Sys.opaque_identity (Rng.int_in t (-4) 9)));
  draws "bits53" (fun () -> ignore (Sys.opaque_identity (Rng.bits53 t)));
  draws "bool" (fun () -> ignore (Sys.opaque_identity (Rng.bool t)));
  draws "bernoulli" (fun () ->
      ignore (Sys.opaque_identity (Rng.bernoulli t 0.3)));
  draws "geometric" (fun () ->
      ignore (Sys.opaque_identity (Rng.geometric t 0.01)))

(* Every writer, per line written: the file's lines, or a string's. *)
let test_writers_allocate_little () =
  let path = Filename.temp_file "pslocal_stream" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let per_line name lines f =
    let w = minor_words f /. float_of_int lines in
    if native then
      check_bool (Printf.sprintf "%s: %.3f minor words per line" name w) true
        (w < 1.)
  in
  let lines = 200_000 in
  per_line "write_edges_file" lines (fun () ->
      Gio.write_edges_file path ~n:4_000_000_000 ~m:lines (fun add ->
          for i = 0 to lines - 1 do
            add (i * 19_997) (3_999_999_999 - i)
          done));
  let g = Gen.rmat (Rng.create 2) ~scale:14 ~edges:100_000 in
  per_line "Gio.write_file" (G.n_edges g) (fun () -> Gio.write_file path g);
  per_line "Gio.to_edge_list" (G.n_edges g) (fun () ->
      ignore (Sys.opaque_identity (Gio.to_edge_list g)));
  let h = Hgen.uniform_random (Rng.create 3) ~n:40_000 ~m:50_000 ~k:4 in
  per_line "Hio.write_file" (H.n_edges h) (fun () -> Hio.write_file path h);
  per_line "Hio.to_text" (H.n_edges h) (fun () ->
      ignore (Sys.opaque_identity (Hio.to_text h)))

(* ------------------------------------------------------------------ *)
(* R-MAT: the integer thresholds against the float-compare oracle *)

let rmat_pairs iter ~seed ~scale ~edges =
  let acc = ref [] in
  iter (Rng.create seed) ~scale ~edges (fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let test_rmat_oracle () =
  for scale = 4 to 14 do
    List.iter
      (fun seed ->
        let edges = 3000 in
        let want = rmat_pairs Ps_oracle.Rmat.iter_rmat ~seed ~scale ~edges in
        let got = rmat_pairs Gen.iter_rmat ~seed ~scale ~edges in
        check_bool
          (Printf.sprintf "scale %d seed %d: same pairs" scale seed)
          true
          (List.equal
             (fun (a, b) (c, d) -> Int.equal a c && Int.equal b d)
             want got))
      [ 1; 2; 77 ]
  done;
  let want = rmat_pairs Ps_oracle.Rmat.iter_rmat ~seed:5 ~scale:10 ~edges:20_000 in
  check_bool "Gen.rmat = of_edges of the oracle stream" true
    (G.equal (G.of_edges 1024 want) (Gen.rmat (Rng.create 5) ~scale:10 ~edges:20_000))

(* ------------------------------------------------------------------ *)
(* The sort-free CSR builder *)

(* An R-MAT stream, so a few hubs carry most rows' entries, each pair
   again in the other orientation with probability 0.3 and in the same
   one with 0.1, shuffled. *)
let hub_pairs (seed, scale, edges) =
  let rng = Rng.create seed in
  let scale = 1 + scale and pairs = ref [] in
  Gen.iter_rmat rng ~scale ~edges (fun u v ->
      pairs := (u, v) :: !pairs;
      if Rng.bernoulli rng 0.3 then pairs := (v, u) :: !pairs;
      if Rng.bernoulli rng 0.1 then pairs := (u, v) :: !pairs);
  let pairs = Array.of_list !pairs in
  Rng.shuffle_in_place rng pairs;
  (1 lsl scale, pairs, rng)

let chunk_of pairs ~capacity lo hi =
  let p = G.Pairs.create ~capacity () in
  for i = lo to hi - 1 do
    G.Pairs.push p (fst pairs.(i)) (snd pairs.(i))
  done;
  p

let arbitrary_hubs =
  QCheck.make
    ~print:(fun (s, sc, e) -> Printf.sprintf "seed=%d scale=%d edges=%d" s sc e)
    QCheck.Gen.(triple (int_bound 10_000) (int_bound 8) (int_bound 600))

(* One chunk, sized exactly or grown from one pair: the builder writes
   the settled rows into the chunk's buffer and empties it, so pushing
   into the chunk afterwards must leave the graph as it was. *)
let prop_one_chunk =
  QCheck.Test.make ~count:200
    ~name:"of_pair_chunks, one consumed chunk = of_edges" arbitrary_hubs
    (fun params ->
      let n, pairs, rng = hub_pairs params in
      let len = Array.length pairs in
      let capacity = if Rng.bool rng then len else 1 in
      let p = chunk_of pairs ~capacity 0 len in
      let g = G.of_pair_chunks n [| p |] in
      let hash = G.content_hash g in
      for i = 0 to (2 * len) + 2 do
        G.Pairs.push p (i mod n) ((i + 1) mod n)
      done;
      G.equal (G.of_edges n (Array.to_list pairs)) g
      && Int64.equal hash (G.content_hash g)
      && Ps_check.Check_graph.csr_ok g)

(* Random cuts into up to six chunks of random capacities, so the
   buffer that takes the settled rows is sometimes one of them and
   sometimes a new array. *)
let prop_chunkings =
  QCheck.Test.make ~count:200
    ~name:"of_pair_chunks over random chunkings = of_edges" arbitrary_hubs
    (fun params ->
      let n, pairs, rng = hub_pairs params in
      let len = Array.length pairs in
      let cuts = Array.init (Rng.int rng 6) (fun _ -> Rng.int rng (len + 1)) in
      Array.sort Int.compare cuts;
      let bounds = Array.concat [ [| 0 |]; cuts; [| len |] ] in
      let chunks =
        Array.init (Array.length bounds - 1) (fun c ->
            let capacity = if Rng.bool rng then 1 else 1 + Rng.int rng (2 * len + 1) in
            chunk_of pairs ~capacity bounds.(c) bounds.(c + 1))
      in
      let g = G.of_pair_chunks n chunks in
      let want = G.of_edges n (Array.to_list pairs) in
      G.equal want g
      && Int64.equal (G.content_hash want) (G.content_hash g)
      && Ps_check.Check_graph.csr_ok g)

(* ------------------------------------------------------------------ *)
(* The digit writer against the Printf oracle *)

let file_text path = In_channel.with_open_bin path In_channel.input_all

let test_writer_ints () =
  let rng = Rng.create 9 in
  let values =
    [ 0; 1; 9; 10; 99; 100; 999; 1000; 999_999_999; 1_000_000_000;
      9_999_999_999; max_int; max_int - 1; -1; -10; -999; min_int ]
    @ List.init 2000 (fun i ->
          let v = Rng.int rng max_int lsr Rng.int rng 62 in
          if i mod 5 = 0 then -v else v)
  in
  let want = String.concat "," (List.map string_of_int values) in
  let write w =
    List.iteri
      (fun i v ->
        if i > 0 then Gio.Writer.char w ',';
        Gio.Writer.int w v)
      values
  in
  check_string "to_string" want (Gio.Writer.to_string write);
  let path = Filename.temp_file "pslocal_stream" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  (* Past one 64 KiB window, so the drain runs mid-stream. *)
  let long w = for _ = 1 to 20 do write w; Gio.Writer.char w '\n' done in
  Out_channel.with_open_bin path (fun oc -> Gio.Writer.to_channel oc long);
  check_string "to_channel" (Gio.Writer.to_string long) (file_text path)

let test_writer_graphs () =
  let path = Filename.temp_file "pslocal_stream" ".el" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let same name g =
    let want = Text.to_edge_list g in
    check_string (name ^ ": to_edge_list") want (Gio.to_edge_list g);
    Gio.write_file path g;
    check_string (name ^ ": write_file") want (file_text path)
  in
  same "n = 0" (G.empty 0);
  same "m = 0" (G.empty 7);
  for seed = 0 to 30 do
    let rng = Rng.create seed in
    let n = Rng.int rng 80 + 1 in
    same (Printf.sprintf "gnp seed %d" seed) (Gen.gnp rng n (Rng.float rng 0.5))
  done;
  same "rmat" (Gen.rmat (Rng.create 4) ~scale:16 ~edges:30_000);
  (* Ten-digit ids, which only the streaming writer can take. *)
  let rng = Rng.create 11 in
  let ids =
    Array.init 5000 (fun i ->
        match i mod 4 with
        | 0 -> 1_000_000_000 + Rng.int rng 3_000_000_000
        | 1 -> Rng.int rng 10
        | 2 -> 999_999_999 + (i mod 3)
        | _ -> Rng.int rng 4_000_000_000)
  in
  let emit add =
    for i = 0 to Array.length ids - 2 do
      add ids.(i) ids.(i + 1)
    done
  in
  let n = 4_000_000_000 and m = Array.length ids - 1 in
  Gio.write_edges_file path ~n ~m emit;
  check_string "ten-digit ids" (Text.edge_lines ~n ~m emit) (file_text path)

let test_writer_hypergraphs () =
  let path = Filename.temp_file "pslocal_stream" ".hg" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let same name h =
    let want = Text.to_text h in
    check_string (name ^ ": to_text") want (Hio.to_text h);
    Hio.write_file path h;
    check_string (name ^ ": write_file") want (file_text path)
  in
  same "n = 0" (H.of_edges 0 []);
  same "m = 0" (H.of_edges 9 []);
  for seed = 0 to 20 do
    let rng = Rng.create seed in
    let m = Rng.int rng 60 + 1 and k = Rng.int rng 6 + 1 in
    same
      (Printf.sprintf "uniform seed %d" seed)
      (Hgen.uniform_random rng ~n:(k + Rng.int rng 100) ~m ~k)
  done;
  same "intervals" (Hgen.all_intervals_of_length ~n:3000 ~len:10);
  same "large" (Hgen.uniform_random (Rng.create 8) ~n:2_000_000 ~m:30_000 ~k:5)

let suites =
  [ ( "stream.rng",
      [ Alcotest.test_case "pinned streams" `Quick test_rng_pins;
        Alcotest.test_case "bits53 contract" `Quick test_bits53_contract;
        Alcotest.test_case "draws allocate nothing" `Quick
          test_draws_allocate_nothing ] );
    ( "stream.gen",
      [ Alcotest.test_case "rmat = float-compare oracle" `Quick
          test_rmat_oracle ] );
    ( "stream.csr",
      List.map QCheck_alcotest.to_alcotest [ prop_one_chunk; prop_chunkings ] );
    ( "stream.write",
      [ Alcotest.test_case "writer ints" `Quick test_writer_ints;
        Alcotest.test_case "graph writers = Printf" `Quick test_writer_graphs;
        Alcotest.test_case "hypergraph writers = Printf" `Quick
          test_writer_hypergraphs;
        Alcotest.test_case "writers allocate < 1 word a line" `Quick
          test_writers_allocate_little ] ) ]
