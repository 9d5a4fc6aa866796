(* Decimal text output.  Ints are written as digits straight into a
   byte window, two digits per division by 100 from a 200-byte table,
   with no [string_of_int] string per value.  A window that fills is
   either drained (to a channel) or doubled (for a string result). *)
module Writer = struct
  type t = {
    mutable buf : Bytes.t;
    mutable pos : int;
    drain : (Bytes.t -> int -> unit) option;
  }

  let window = 65536

  (* Enough for any int: 19 digits and a sign. *)
  let int_room = 20

  let make_room w k =
    match w.drain with
    | Some out ->
        out w.buf w.pos;
        w.pos <- 0
    | None ->
        let b = Bytes.create (2 * Bytes.length w.buf + k) in
        Bytes.blit w.buf 0 b 0 w.pos;
        w.buf <- b

  let[@inline] reserve w k =
    if w.pos + k > Bytes.length w.buf then make_room w k

  let pairs =
    String.init 200 (fun i ->
        Char.chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

  (* The digits of [v >= 0], written to end just before [stop]. *)
  let put_digits buf stop v =
    let v = ref v and i = ref stop in
    while !v >= 100 do
      let q = !v / 100 in
      let r = 2 * (!v - (100 * q)) in
      Bytes.unsafe_set buf (!i - 1) (String.unsafe_get pairs (r + 1));
      Bytes.unsafe_set buf (!i - 2) (String.unsafe_get pairs r);
      i := !i - 2;
      v := q
    done;
    if !v >= 10 then begin
      Bytes.unsafe_set buf (!i - 1) (String.unsafe_get pairs ((2 * !v) + 1));
      Bytes.unsafe_set buf (!i - 2) (String.unsafe_get pairs (2 * !v))
    end
    else Bytes.unsafe_set buf (!i - 1) (Char.unsafe_chr (48 + !v))

  let digit_count v =
    let d = ref 1 and p = ref 10 in
    while !d < 19 && v >= !p do
      incr d;
      p := !p * 10
    done;
    !d

  let int w v =
    reserve w int_room;
    if v >= 0 then begin
      let d = digit_count v in
      put_digits w.buf (w.pos + d) v;
      w.pos <- w.pos + d
    end
    else begin
      let s = string_of_int v in
      Bytes.blit_string s 0 w.buf w.pos (String.length s);
      w.pos <- w.pos + String.length s
    end

  let char w c =
    reserve w 1;
    Bytes.unsafe_set w.buf w.pos c;
    w.pos <- w.pos + 1

  let to_channel oc f =
    let w =
      { buf = Bytes.create window; pos = 0;
        drain = Some (fun b len -> output oc b 0 len) }
    in
    f w;
    output oc w.buf 0 w.pos

  let to_string f =
    let w = { buf = Bytes.create 1024; pos = 0; drain = None } in
    f w;
    Bytes.sub_string w.buf 0 w.pos
end

(* The body of every edge-list writer: the header, then one line per
   [add u v]. *)
let edge_lines w ~n ~m emit =
  Writer.int w n;
  Writer.char w ' ';
  Writer.int w m;
  Writer.char w '\n';
  emit (fun u v ->
      Writer.int w u;
      Writer.char w ' ';
      Writer.int w v;
      Writer.char w '\n')

let to_edge_list g =
  Writer.to_string (fun w ->
      edge_lines w ~n:(Graph.n_vertices g) ~m:(Graph.n_edges g)
        (Graph.iter_edges g))

let fail_line lineno msg =
  failwith (Printf.sprintf "Gio.of_edge_list: line %d: %s" lineno msg)

(* A bad body line, numbered within its chunk.  It never leaves the
   chunk's worker: [scan] turns it into a value, and [parse_body]
   renumbers the first one in file order and reports it through
   [fail_line]. *)
exception Bad_line of int * string

let bad_line lineno msg = raise (Bad_line (lineno, msg))

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
    bad_line lineno (Printf.sprintf "vertex id %d out of range [0, %d)" v n);
  v

let edge_slow lineno line =
  match tokens line with
  | [ a; b ] -> (
      try (int_of_string a, int_of_string b)
      with Failure _ -> bad_line lineno "bad edge")
  | _ -> bad_line lineno "edge must be \"u v\""

(* The byte scanner both front-ends share.  Unread input is the window
   [buf.[pos] .. buf.[hi - 1]]; [read] refills it from the source, and a
   source with [eof] already set (a string) is a single window that is
   never refilled.  [next_line] leaves the current line in
   [buf.[lo] .. buf.[stop - 1]] (newline excluded) and its 1-based
   number in [lineno]; [int_token] leaves its value in [tok].  [base] is
   the input offset of [buf.[0]], so a line starts at [base + lo].  All
   per-line state lives in these mutable fields, so scanning a data line
   allocates nothing. *)
type window = {
  mutable buf : Bytes.t;
  mutable base : int;
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
  w.base <- w.base + w.pos;
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

(* The header: the first line with content, parsed through [tokens]
   (it runs once).  Returns [(n, m, line)] and leaves [w] at the first
   body byte.  [Graph.max_vertices] bounds [n] before anything is sized
   by it. *)
let header w =
  let rec first () =
    if not (next_line w) then failwith "Gio.of_edge_list: empty input"
    else if content w < 0 then first ()
  in
  first ();
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
  (n, m, lineno)

(* Up to 10 decimal digits at [j], within the window: the value goes
   to [tok], and the index after the last digit is returned. *)
let plain_id w j =
  let buf = w.buf and lim = Int.min w.hi (j + 10) in
  let j = ref j and v = ref 0 in
  while
    !j < lim
    &&
    let c = Bytes.unsafe_get buf !j in
    c >= '0' && c <= '9'
  do
    v := (!v * 10) + (Char.code (Bytes.unsafe_get buf !j) - 48);
    incr j
  done;
  w.tok <- !v;
  !j

(* The common line, "u v\n" with plain ids of at most 10 digits and
   one space, parsed in a single pass over its bytes: the newline is
   found where the second id ends instead of by a scan of its own.  It
   takes the line only when both ids are in range and differ, so every
   error is still reported by the general path.  False, having changed
   nothing, for any other line: blank, comment, CRLF, tabs, signs,
   longer ids, a line the window does not hold whole, or one that
   starts at or past [stop].  Called only at a line start, where
   [next_line] has left [scan = pos]. *)
let fast_edge w ~n ~stop pairs =
  let buf = w.buf and hi = w.hi and p = w.pos in
  w.base + p < stop
  &&
  let j = plain_id w p in
  let u = w.tok in
  j > p && j < hi
  && Bytes.unsafe_get buf j = ' '
  &&
  let e = plain_id w (j + 1) in
  let v = w.tok in
  e > j + 1 && e < hi
  && Bytes.unsafe_get buf e = '\n'
  && u < n && v < n && u <> v
  && begin
       Graph.Pairs.push pairs u v;
       w.lineno <- w.lineno + 1;
       w.lo <- p;
       w.stop <- e;
       w.pos <- e + 1;
       w.scan <- e + 1;
       true
     end

(* Scan the lines of [w] that start before input offset [stop] into
   [pairs], numbering them from 1 on.  A line [fast_edge] does not take
   goes through [next_line]: a plain "u v" line is parsed in place
   there, anything else by [edge_slow].  Returns the first
   bad line as [(line, message)]; either way [w.lineno] ends as the
   number of lines scanned. *)
let scan ~n ~stop w pairs =
  let push u v =
    let lineno = w.lineno in
    let u = check_vertex lineno ~n u and v = check_vertex lineno ~n v in
    if u = v then bad_line lineno (Printf.sprintf "self-loop on vertex %d" u);
    Graph.Pairs.push pairs u v
  in
  let rec loop () =
    if fast_edge w ~n ~stop pairs then loop ()
    else if next_line w then
      if w.base + w.lo >= stop then w.lineno <- w.lineno - 1
      else begin
        let i = content w in
        (if i >= 0 then
           let j = int_token w i in
           let u = w.tok in
           let j = if j < 0 then j else int_token w (skip_space w j) in
           if j >= 0 && skip_space w j = w.stop then push u w.tok
           else
             let u, v = edge_slow w.lineno (current_line w) in
             push u v);
        loop ()
      end
  in
  match loop () with
  | () -> None
  | exception Bad_line (lineno, msg) -> Some (lineno, msg)

(* Every edge line takes at least 3 bytes ("0 1"), so [bytes] of input
   hold at most [bytes / 3 + 1] edges.  A channel of unknown length (a
   pipe) starts from 64 Ki edges and grows by doubling like any other. *)
let max_edges_of_length bytes = (bytes / 3) + 1

(* One chunk of the body: the lines whose first byte lies in
   [lo, stop), and the preallocation cap for its endpoint buffer. *)
type piece = { lo : int; stop : int; max_edges : int }

(* A chunk of [len] of the body's [body] bytes is reserved its byte share
   of the header's [m] edges plus a quarter, within [max_edges_of_length]:
   line lengths drift with the ids' digit counts, and the largest share
   measured on the suite's R-MAT and G(n,p) files is 1.16 of the mean at
   four chunks.  Reserving the bound itself for every chunk would hand
   the GC, which paces major cycles by a Bigarray's size, twice the
   file's edges at two chunks. *)
let reserve ~m ~body len =
  let cap = max_edges_of_length len in
  let share =
    (1.25 *. float_of_int m *. float_of_int len /. float_of_int (max body 1))
    +. 1024.
  in
  if share >= float_of_int cap then cap else int_of_float share

(* Auto mode adds a domain per [Parallel.auto_units_per_domain] units of
   body, so the second domain joins at 2 * 6144 * 128 bytes = 1.5 MiB.
   Measured on R-MAT prefixes (n = 2^18, 2-core Intel Xeon VM, OCaml
   5.1.1), median read time on one domain against two, two rounds:
   126 KiB 6.7-7.0 vs 7.7-9.0 ms, 516 KiB 11.2-11.6 vs 12.4-13.1,
   1.05 MiB 18.3-19.9 vs 17.7-19.3, 2.3 MiB 30.1-32.7 vs 28.1-32.3,
   4.9 MiB 54.6-60.8 vs 50.2-57.1.  The second domain loses below
   1 MiB, breaks even there and wins 3-8% from 2 MiB up. *)
let bytes_per_unit = 128

(* Split the body [start, length) into balanced byte ranges; the last
   one runs to end of input whatever [length] said. *)
let split ~domains ~m ~start ~length =
  let body = length - start in
  let d =
    Ps_util.Parallel.effective_domains ~requested:domains
      ~units:(body / bytes_per_unit) ~slices:body
  in
  Array.init d (fun i ->
      let lo, hi = Ps_util.Parallel.range ~pieces:d ~lo:start ~hi:length i in
      { lo;
        stop = (if i = d - 1 then max_int else hi);
        max_edges = reserve ~m ~body (hi - lo) })

type chunk = {
  pairs : Graph.Pairs.t;
  mutable lines : int;
  mutable error : (int * string) option;
}

(* Parse the body [pieces] on one domain each.  Chunk 0 continues on
   [first], the window the header was read from; chunk [i > 0] gets a
   window from [open_at] at its first byte minus one and drops the
   segment through the next newline, which belongs to the chunk before.
   Each chunk fills its own endpoint buffer, counts its own lines and
   keeps its first error.  After the join the lowest chunk's error is
   reported at its line plus the line counts before it, so every message
   matches the one-chunk scan; then the header's edge count is checked
   and the chunks go to the CSR builder in file order.  [max_edges]
   bounds the header's edge count for preallocation only, so a short
   input with a huge header fails the count check instead of exhausting
   memory. *)
let parse_body ~n ~m ~hline ~first ~open_at pieces =
  let d = Array.length pieces in
  let chunks =
    Array.map
      (fun p ->
        { pairs = Graph.Pairs.create ~capacity:(max (min m p.max_edges) 16) ();
          lines = 0;
          error = None })
      pieces
  in
  Ps_util.Parallel.fork_join ~domains:d (fun i ->
      let p = pieces.(i) and c = chunks.(i) in
      let run w =
        if i > 0 then ignore (next_line w);
        w.lineno <- 0;
        c.error <- scan ~n ~stop:p.stop w c.pairs;
        c.lines <- w.lineno
      in
      if i = 0 then run first else open_at (p.lo - 1) run);
  let rec report i before =
    if i < d then
      match chunks.(i).error with
      | Some (lineno, msg) -> fail_line (before + lineno) msg
      | None -> report (i + 1) (before + chunks.(i).lines)
  in
  report 0 hline;
  let len =
    Array.fold_left (fun acc c -> acc + Graph.Pairs.length c.pairs) 0 chunks
  in
  if len <> m then
    failwith
      (Printf.sprintf "Gio.of_edge_list: header promises %d edges, found %d" m
         len);
  (* The CSR's per-vertex arrays are the one allocation the header's
     [n] sizes; even below the id limit, a 20-byte file can ask for more
     than the host has. *)
  try Graph.of_pair_chunks n (Array.map (fun c -> c.pairs) chunks)
  with Out_of_memory ->
    fail_line hline (Printf.sprintf "vertex count %d: out of memory" n)

let window ~buf ~base ~pos ~hi ~eof read =
  { buf; base; pos; hi; scan = pos; eof; read; lo = 0; stop = 0; lineno = 0;
    tok = 0 }

let of_edge_list ?(domains = 1) text =
  let length = String.length text in
  (* Read only: the scanner never writes to a window that starts at end
     of input, so every chunk can share the string. *)
  let at pos =
    window ~buf:(Bytes.unsafe_of_string text) ~base:0 ~pos ~hi:length
      ~eof:true (fun _ _ _ -> 0)
  in
  let w = at 0 in
  let n, m, hline = header w in
  parse_body ~n ~m ~hline ~first:w
    ~open_at:(fun pos k -> k (at pos))
    (split ~domains ~m ~start:w.pos ~length)

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

(* Lines are formatted into the writer's fixed 64 KiB window, written to
   the channel whenever it fills, so writers stream in O(1) memory
   instead of materializing the whole file ([to_edge_list] on a
   10^8-edge graph would be a multi-gigabyte string). *)
let write_edges_file filename ~n ~m emit =
  let oc = open_out filename in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Writer.to_channel oc (fun w -> edge_lines w ~n ~m emit))

let write_file filename g =
  write_edges_file filename ~n:(Graph.n_vertices g) ~m:(Graph.n_edges g)
    (fun add -> Graph.iter_edges g add)

let channel_window ic ~base =
  window ~buf:(Bytes.create chunk) ~base ~pos:0 ~hi:0 ~eof:false
    (In_channel.input ic)

let read_file ?(domains = 0) filename =
  Ps_util.Telemetry.with_span "gio.read" @@ fun () ->
  let ic = open_in_bin filename in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let w = channel_window ic ~base:0 in
  let n, m, hline = header w in
  let start = w.base + w.pos in
  let pieces =
    match in_channel_length ic with
    | length ->
        Ps_util.Telemetry.set_int "gio.bytes" length;
        split ~domains ~m ~start ~length
    | exception Sys_error _ ->
        [| { lo = start; stop = max_int; max_edges = 65536 } |]
  in
  Ps_util.Telemetry.set_int "gio.domains_effective" (Array.length pieces);
  parse_body ~n ~m ~hline ~first:w pieces ~open_at:(fun pos k ->
      let ic = open_in_bin filename in
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      seek_in ic pos;
      k (channel_window ic ~base:pos))
