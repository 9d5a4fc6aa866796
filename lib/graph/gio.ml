let to_edge_list g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%d %d\n" (Graph.n_vertices g) (Graph.n_edges g));
  Graph.iter_edges g (fun u v ->
      Buffer.add_string buf (Printf.sprintf "%d %d\n" u v));
  Buffer.contents buf

let fail_line lineno msg =
  failwith (Printf.sprintf "Gio.of_edge_list: line %d: %s" lineno msg)

(* Tokenize on any whitespace, not just ' ': tab-separated and CRLF
   edge-list files are common in the wild and used to be rejected with
   "bad edge" (the '\r' or '\t' stuck to a token).  The leading range
   test settles the common case, a digit, in one comparison. *)
let is_space c =
  c <= ' ' && (c = ' ' || c = '\t' || c = '\r' || c = '\012')

let tokens line =
  let n = String.length line in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && is_space line.[!i] do Stdlib.incr i done;
    let start = !i in
    while !i < n && not (is_space line.[!i]) do Stdlib.incr i done;
    if !i > start then out := String.sub line start (!i - start) :: !out
  done;
  List.rev !out

let check_vertex lineno ~n v =
  if v < 0 || v >= n then
    fail_line lineno
      (Printf.sprintf "vertex id %d out of range [0, %d)" v n);
  v

let edge_slow lineno line =
  match tokens line with
  | [ a; b ] -> (
      try (int_of_string a, int_of_string b)
      with Failure _ -> fail_line lineno "bad edge")
  | _ -> fail_line lineno "edge must be \"u v\""

(* The byte scanner both front-ends share.  Unread input is the window
   [buf.[pos] .. buf.[hi - 1]]; [read] refills it from the source, and a
   source with [eof] already set (a string) is a single window that is
   never refilled.  [next_line] leaves the current line in
   [buf.[lo] .. buf.[stop - 1]] (newline excluded) and its 1-based
   number in [lineno]; [int_token] leaves its value in [tok].  All
   per-line state lives in these mutable fields, so scanning a data line
   allocates nothing. *)
type window = {
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable hi : int;
  mutable scan : int; (* [pos, scan) is known to hold no newline *)
  mutable eof : bool;
  read : Bytes.t -> int -> int -> int;
  mutable lo : int;
  mutable stop : int;
  mutable lineno : int;
  mutable tok : int;
}

let chunk = 65536

(* Move the unread tail to the front and read more behind it.  Only a
   line longer than the whole buffer makes it grow (by doubling). *)
let refill w =
  let keep = w.hi - w.pos in
  if keep = Bytes.length w.buf then begin
    let b = Bytes.create (2 * keep) in
    Bytes.blit w.buf w.pos b 0 keep;
    w.buf <- b
  end
  else Bytes.blit w.buf w.pos w.buf 0 keep;
  w.pos <- 0;
  w.hi <- keep;
  w.scan <- keep;
  let got = w.read w.buf keep (Bytes.length w.buf - keep) in
  if got = 0 then w.eof <- true else w.hi <- keep + got

(* Lines are the '\n'-separated segments; a final segment counts only
   when nonempty (the [input_line] convention).  False at end of
   input. *)
let rec next_line w =
  let buf = w.buf and hi = w.hi in
  let j = ref w.scan in
  while !j < hi && Bytes.unsafe_get buf !j <> '\n' do
    incr j
  done;
  if !j < hi || (w.eof && w.pos < hi) then begin
    w.lo <- w.pos;
    w.stop <- !j;
    w.pos <- Int.min (!j + 1) hi;
    w.scan <- w.pos;
    w.lineno <- w.lineno + 1;
    true
  end
  else if w.eof then false
  else begin
    refill w;
    next_line w
  end

let skip_space w i =
  let buf = w.buf and stop = w.stop in
  let i = ref i in
  while !i < stop && is_space (Bytes.unsafe_get buf !i) do
    incr i
  done;
  !i

(* A plain decimal token at [i]: optional minus, 1 to 18 digits (so the
   value cannot wrap), then a space or the end of the line.  Stores the
   value in [tok] and returns the index after the token, or -1 for
   anything else — exotic-but-valid forms ([0x1f], [1_000]), overlong
   ids and malformed text alike, which [edge_slow] then settles. *)
let int_token w i =
  let buf = w.buf and stop = w.stop in
  let neg = i < stop && Bytes.unsafe_get buf i = '-' in
  let start = if neg then i + 1 else i in
  let j = ref start and v = ref 0 and digit = ref true in
  while !digit && !j < stop do
    let c = Bytes.unsafe_get buf !j in
    if c >= '0' && c <= '9' then begin
      v := (!v * 10) + (Char.code c - Char.code '0');
      incr j
    end
    else digit := false
  done;
  let digits = !j - start in
  if
    digits = 0 || digits > 18
    || (!j < stop && not (is_space (Bytes.unsafe_get buf !j)))
  then -1
  else begin
    w.tok <- (if neg then - !v else !v);
    !j
  end

let current_line w = Bytes.sub_string w.buf w.lo (w.stop - w.lo)

(* First non-space index of the current line, or -1 when it is blank or
   a comment. *)
let content w =
  let i = skip_space w w.lo in
  if i = w.stop || Bytes.unsafe_get w.buf i = '#' then -1 else i

(* Parser core: scans numbered lines out of [w], accumulates endpoints
   into growable scratch arrays, and finishes through
   [Graph.of_unnormalized_pairs] — no line strings, token lists or edge
   list on the fast path, so peak memory is the two endpoint arrays plus
   the CSR being built.  Every check (range, self-loop, header count)
   reports the offending line.  [max_edges] bounds the header's edge
   count for preallocation only, so a short input with a huge header
   fails the count check instead of exhausting memory. *)
let parse ~max_edges w =
  let rec header () =
    if not (next_line w) then failwith "Gio.of_edge_list: empty input"
    else if content w < 0 then header ()
  in
  header ();
  let lineno = w.lineno in
  let n, m =
    match tokens (current_line w) with
    | [ a; b ] -> (
        try (int_of_string a, int_of_string b)
        with Failure _ -> fail_line lineno "bad header")
    | _ -> fail_line lineno "header must be \"n m\""
  in
  if n < 0 then fail_line lineno "vertex count must be nonnegative";
  if m < 0 then fail_line lineno "edge count must be nonnegative";
  if n > Graph.max_vertices then
    fail_line lineno
      (Printf.sprintf "vertex count %d exceeds the int32 id limit %d" n
         Graph.max_vertices);
  let cap = max (min m max_edges) 16 in
  let us = ref (Array.make cap 0) in
  let vs = ref (Array.make cap 0) in
  let len = ref 0 in
  let push u v =
    let lineno = w.lineno in
    let u = check_vertex lineno ~n u and v = check_vertex lineno ~n v in
    if u = v then fail_line lineno (Printf.sprintf "self-loop on vertex %d" u);
    if !len = Array.length !us then begin
      let grow a =
        let b = Array.make (2 * Array.length a) 0 in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      us := grow !us;
      vs := grow !vs
    end;
    !us.(!len) <- u;
    !vs.(!len) <- v;
    incr len
  in
  while next_line w do
    let i = content w in
    if i >= 0 then begin
      let j = int_token w i in
      let u = w.tok in
      let j = if j < 0 then j else int_token w (skip_space w j) in
      if j >= 0 && skip_space w j = w.stop then push u w.tok
      else
        let u, v = edge_slow w.lineno (current_line w) in
        push u v
    end
  done;
  if !len <> m then
    failwith
      (Printf.sprintf "Gio.of_edge_list: header promises %d edges, found %d" m
         !len);
  (* The CSR's per-vertex arrays are the one allocation the header's
     [n] sizes; even below the id limit, a 20-byte file can ask for more
     than the host has. *)
  try Graph.of_unnormalized_pairs n ~u:!us ~v:!vs ~len:!len
  with Out_of_memory ->
    fail_line lineno (Printf.sprintf "vertex count %d: out of memory" n)

(* Every edge line takes at least 3 bytes ("0 1"), so [bytes] of input
   hold at most [bytes / 3 + 1] edges.  A channel of unknown length (a
   pipe) starts from 64 Ki edges and grows by doubling like any other. *)
let max_edges_of_length bytes = (bytes / 3) + 1

let max_edges_of_channel ic =
  match in_channel_length ic with
  | bytes -> max_edges_of_length bytes
  | exception Sys_error _ -> 65536

let window ~buf ~hi ~eof read =
  { buf; pos = 0; hi; scan = 0; eof; read; lo = 0; stop = 0; lineno = 0;
    tok = 0 }

let of_edge_list text =
  (* The scanner never writes to a window that starts at end of input. *)
  parse
    ~max_edges:(max_edges_of_length (String.length text))
    (window ~buf:(Bytes.unsafe_of_string text) ~hi:(String.length text)
       ~eof:true (fun _ _ _ -> 0))

let to_dot ?(name = "g") ?labels g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  (match labels with
  | None -> ()
  | Some label ->
      List.iter
        (fun v ->
          Buffer.add_string buf
            (Printf.sprintf "  %d [label=\"%s\"];\n" v (label v)))
        (Graph.vertices g));
  Graph.iter_edges g (fun u v ->
      Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* Buffered edge sink: formats into a Buffer and flushes it to the
   channel whenever it passes 64 KiB, so writers stream in O(1) memory
   instead of materializing the whole file ([to_edge_list] on a
   10^8-edge graph would be a multi-gigabyte string). *)
let with_edge_sink oc ~n ~m emit =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf (string_of_int n);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int m);
  Buffer.add_char buf '\n';
  let add u v =
    Buffer.add_string buf (string_of_int u);
    Buffer.add_char buf ' ';
    Buffer.add_string buf (string_of_int v);
    Buffer.add_char buf '\n';
    if Buffer.length buf >= 65536 then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  in
  emit add;
  Buffer.output_buffer oc buf

let write_edges_file filename ~n ~m emit =
  let oc = open_out filename in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> with_edge_sink oc ~n ~m emit)

let write_file filename g =
  write_edges_file filename ~n:(Graph.n_vertices g) ~m:(Graph.n_edges g)
    (fun add -> Graph.iter_edges g add)

let read_file filename =
  let ic = open_in_bin filename in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      parse ~max_edges:(max_edges_of_channel ic)
        (window ~buf:(Bytes.create chunk) ~hi:0 ~eof:false
           (In_channel.input ic)))
