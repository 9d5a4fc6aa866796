module Writer = Ps_graph.Gio.Writer

let fail_line lineno msg =
  failwith (Printf.sprintf "Hio.of_text: line %d: %s" lineno msg)

(* Same whitespace tolerance as [Gio.of_edge_list]: tabs, CRLF line
   endings and form feeds all separate tokens instead of poisoning
   them. *)
let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

let tokens line =
  let n = String.length line in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && is_space line.[!i] do incr i done;
    let start = !i in
    while !i < n && not (is_space line.[!i]) do incr i done;
    if !i > start then out := String.sub line start (!i - start) :: !out
  done;
  List.rev !out

let ints_of_line lineno line =
  tokens line
  |> List.map (fun s ->
         try int_of_string s with Failure _ -> fail_line lineno "not a number")

(* First non-space position of [line], or -1 when blank. *)
let content_start line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && is_space line.[!i] do incr i done;
  if !i = n then -1 else !i

(* Reusable growable int buffer for the per-line fast path. *)
type ibuf = { mutable data : int array; mutable len : int }

let ibuf_push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

(* Parse every plain decimal int on the line into [b]; false on any
   token the fast scanner does not recognize (the caller falls back to
   the list-based slow path, which classifies the error or accepts
   exotic-but-valid forms like [0x1f]).  More than 18 digits could wrap,
   so such a token also goes to the slow path, where [int_of_string]
   rejects what does not fit. *)
let ints_fast line start b =
  b.len <- 0;
  let n = String.length line in
  let i = ref start in
  let ok = ref true in
  while !ok && !i < n do
    while !i < n && is_space line.[!i] do incr i done;
    if !i < n then begin
      let neg = line.[!i] = '-' in
      if neg then incr i;
      let v = ref 0 and digits = ref 0 in
      while
        !i < n
        &&
        let c = line.[!i] in
        c >= '0' && c <= '9'
      do
        v := (!v * 10) + (Char.code line.[!i] - Char.code '0');
        incr digits;
        incr i
      done;
      if !digits = 0 || !digits > 18 || (!i < n && not (is_space line.[!i]))
      then ok := false
      else ibuf_push b (if neg then - !v else !v)
    end
  done;
  !ok

(* Streaming parser core, as in [Gio.parse]: numbered raw lines in,
   hypergraph out, with the member arrays built directly (no line list,
   no per-line int lists on the fast path).  [max_edges] bounds the
   header's edge count for preallocation only. *)
let parse ~max_edges next_line =
  let rec header () =
    match next_line () with
    | None -> failwith "Hio.of_text: empty input"
    | Some (lineno, line) -> (
        match content_start line with
        | -1 -> header ()
        | s when line.[s] = '#' -> header ()
        | _ -> (lineno, line))
  in
  let lineno, hline = header () in
  let n, m =
    match ints_of_line lineno hline with
    | [ n; m ] -> (n, m)
    | _ -> fail_line lineno "header must be \"n m\""
  in
  if n < 0 then fail_line lineno "vertex count must be nonnegative";
  if m < 0 then fail_line lineno "edge count must be nonnegative";
  if n >= Sys.max_array_length then
    fail_line lineno
      (Printf.sprintf "vertex count %d exceeds the array limit %d" n
         Sys.max_array_length);
  let edges = ref (Array.make (max (min m max_edges) 16) [||]) in
  let nedges = ref 0 in
  let push e =
    if !nedges = Array.length !edges then begin
      let d = Array.make (2 * !nedges) [||] in
      Array.blit !edges 0 d 0 !nedges;
      edges := d
    end;
    !edges.(!nedges) <- e;
    incr nedges
  in
  let b = { data = Array.make 64 0; len = 0 } in
  let edge_of_ints lineno size members_len members_get =
    if members_len <> size then fail_line lineno "edge size mismatch";
    let e = Array.init size members_get in
    Array.iter
      (fun v ->
        if v < 0 || v >= n then
          fail_line lineno
            (Printf.sprintf "vertex id %d out of range [0, %d)" v n))
      e;
    e
  in
  let rec edges_loop () =
    match next_line () with
    | None -> ()
    | Some (lineno, line) ->
        (match content_start line with
        | -1 -> ()
        | s when line.[s] = '#' -> ()
        | s ->
            if ints_fast line s b && b.len > 0 then
              push
                (edge_of_ints lineno b.data.(0) (b.len - 1) (fun i ->
                     b.data.(i + 1)))
            else begin
              match ints_of_line lineno line with
              | size :: members ->
                  let members = Array.of_list members in
                  push
                    (edge_of_ints lineno size (Array.length members) (fun i ->
                         members.(i)))
              | [] -> fail_line lineno "empty line"
            end);
        edges_loop ()
  in
  edges_loop ();
  if !nedges <> m then
    failwith
      (Printf.sprintf "Hio.of_text: header promises %d edges, found %d" m
         !nedges);
  (* The incidence lists are the one allocation the header's [n]
     sizes; a 20-byte file can ask for more than the host has. *)
  try Hypergraph.of_member_arrays n (Array.sub !edges 0 !nedges)
  with Out_of_memory ->
    fail_line lineno (Printf.sprintf "vertex count %d: out of memory" n)

(* Every edge line takes at least 3 bytes ("1 0"), so [bytes] of input
   hold at most [bytes / 3 + 1] edges.  A channel of unknown length (a
   pipe) starts from 64 Ki edges and grows by doubling like any other. *)
let max_edges_of_length bytes = (bytes / 3) + 1

let max_edges_of_channel ic =
  match in_channel_length ic with
  | bytes -> max_edges_of_length bytes
  | exception Sys_error _ -> 65536

let of_text text =
  let pos = ref 0 and lineno = ref 0 in
  let total = String.length text in
  let next_line () =
    if !pos > total then None
    else begin
      let stop =
        match String.index_from_opt text !pos '\n' with
        | Some j -> j
        | None -> total
      in
      let line = String.sub text !pos (stop - !pos) in
      pos := stop + 1;
      incr lineno;
      if stop = total && String.length line = 0 then None
      else Some (!lineno, line)
    end
  in
  parse ~max_edges:(max_edges_of_length total) next_line

(* The header and one "s v1 ... vs" line per edge, through the shared
   digit writer.  Members are read in place: [member] is made once, not
   per edge, and [Hypergraph.iter_edge] copies nothing. *)
let lines w h =
  Writer.int w (Hypergraph.n_vertices h);
  Writer.char w ' ';
  Writer.int w (Hypergraph.n_edges h);
  Writer.char w '\n';
  let member v =
    Writer.char w ' ';
    Writer.int w v
  in
  for i = 0 to Hypergraph.n_edges h - 1 do
    Writer.int w (Hypergraph.edge_size h i);
    Hypergraph.iter_edge h i member;
    Writer.char w '\n'
  done

let to_text h = Writer.to_string (fun w -> lines w h)

(* Streams through the writer's 64 KiB window, as [Gio.write_file]
   does: the file is never materialized as one string. *)
let write_file filename h =
  let oc = open_out filename in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Writer.to_channel oc (fun w -> lines w h))

let read_file filename =
  let ic = open_in filename in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lineno = ref 0 in
      let next_line () =
        match In_channel.input_line ic with
        | None -> None
        | Some line ->
            incr lineno;
            Some (!lineno, line)
      in
      parse ~max_edges:(max_edges_of_channel ic) next_line)
