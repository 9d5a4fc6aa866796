module Json = Ps_server.Json
module P = Ps_server.Protocol
module B = P.Binary

type framing = Json_lines | Binary

let framing_name = function Json_lines -> "json" | Binary -> "binary"

let framing_of_name s =
  match String.lowercase_ascii s with
  | "json" | "json-lines" | "jsonl" -> Some Json_lines
  | "binary" | "frames" -> Some Binary
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Reading *)

type event =
  | Request of (P.request, Json.t * P.error) result
  | Eof
  | Poisoned of P.error

let parse_error fmt =
  Printf.ksprintf (fun message -> { P.code = P.Parse_error; message }) fmt

let too_large what n cap =
  {
    P.code = P.Payload_too_large;
    message = Printf.sprintf "%s %d bytes (cap %d)" what n cap;
  }

(* Stdlib's own line scanner, the primitive under [input_line]: it
   refills the channel buffer as needed and returns the length of the
   next buffered line including its newline (> 0), minus the number of
   bytes buffered when the buffer filled up or input ended without a
   newline (< 0), or 0 at end of input. *)
external input_scan_line : in_channel -> int = "caml_ml_input_scan_line"

(* [input_line] that holds at most [max_bytes] bytes of a line: the rest
   of an over-long line is read and dropped up to its newline, so a
   client that never sends one cannot grow the reader's memory, and the
   next line still starts on a boundary.  [Too_long n] carries the
   line's full length. *)
type line = Line of string | Too_long of int

let read_line_capped ic ~max_bytes =
  let rec go len chunks =
    let n = input_scan_line ic in
    if n = 0 then if len = 0 then raise End_of_file else finish len chunks
    else
      let k = if n > 0 then n - 1 else -n in
      let len = len + k in
      let chunk = really_input_string ic k in
      let chunks = if len <= max_bytes then chunk :: chunks else [] in
      if n > 0 then begin
        ignore (input_char ic : char);
        finish len chunks
      end
      else go len chunks
  and finish len chunks =
    if len > max_bytes then Too_long len
    else
      match chunks with
      | [ line ] -> Line line
      | _ -> Line (String.concat "" (List.rev chunks))
  in
  go 0 []

(* A binary frame read in two steps: the 5-byte header, then exactly the
   declared payload.  Every way the stream can deviate — EOF inside the
   header, a non-magic first byte (a client speaking JSON at a binary
   port shows up here: JSON lines start with a printable ASCII byte,
   never 0xB5), a negative or over-cap length, EOF mid-payload — is a
   distinct result so the caller can answer with the right typed error
   before hanging up. *)
type frame_read =
  | Frame of string
  | Frame_eof
  | Frame_bad of string
  | Frame_too_large of int

let read_binary_frame ic ~max_bytes =
  match input_char ic with
  | exception (End_of_file | Sys_error _) -> Frame_eof
  | first -> (
      match really_input_string ic (B.header_bytes - 1) with
      | exception (End_of_file | Sys_error _) ->
          Frame_bad "EOF inside frame header"
      | rest -> (
          let header = String.make 1 first ^ rest in
          match B.frame_length header with
          | Error msg ->
              if Char.equal first B.magic then Frame_bad msg
              else if first >= ' ' && first <= '~' then
                Frame_bad
                  (Printf.sprintf
                     "%s — first byte %C looks like text; is the client \
                      speaking JSON lines at a binary port?"
                     msg first)
              else Frame_bad msg
          | Ok n ->
              if n > max_bytes then Frame_too_large n
              else (
                match really_input_string ic n with
                | payload -> Frame payload
                | exception (End_of_file | Sys_error _) ->
                    Frame_bad
                      (Printf.sprintf
                         "EOF inside frame payload (declared %d bytes)" n))))

let read_event ic ~framing ~max_bytes =
  match framing with
  | Json_lines -> (
      (* Blank lines are a keep-alive idiom on line protocols: skip. *)
      let rec next () =
        match read_line_capped ic ~max_bytes with
        | exception (End_of_file | Sys_error _) -> Eof
        | Too_long n ->
            Request (Error (Json.Null, too_large "request line is" n max_bytes))
        | Line line ->
            if String.equal (String.trim line) "" then next ()
            else Request (P.parse_request ~max_bytes line)
      in
      next ())
  | Binary -> (
      match read_binary_frame ic ~max_bytes with
      | Frame_eof -> Eof
      | Frame_bad msg -> Poisoned (parse_error "binary frame: %s" msg)
      | Frame_too_large n -> Poisoned (too_large "frame declares" n max_bytes)
      | Frame payload -> Request (B.decode_request ~max_bytes payload))

(* Client-side reads (the metrics collector, the load generator): one
   whole message to a [Json.t]. *)
let read_message ic ~framing ~max_bytes =
  match framing with
  | Json_lines -> (
      match input_line ic with
      | exception (End_of_file | Sys_error _) -> None
      | line -> Some (Json.parse line))
  | Binary -> (
      match read_binary_frame ic ~max_bytes with
      | Frame_eof -> None
      | Frame_bad msg -> Some (Error msg)
      | Frame_too_large n ->
          Some (Error (Printf.sprintf "frame declares %d bytes (cap %d)" n max_bytes))
      | Frame payload -> Some (B.of_bytes payload))

let encode_message framing v =
  match framing with
  | Json_lines -> Json.to_string v ^ "\n"
  | Binary -> B.frame v

(* ------------------------------------------------------------------ *)
(* Writing: one coalescing writer thread per connection *)

type writer = {
  fd : Unix.file_descr;
  framing : framing;
  mutex : Mutex.t;
  have_pending : Condition.t;
  exited : Condition.t;
  buf : Buffer.t;
  mutable closing : bool;
  mutable failed : bool;
  mutable running : bool;
}

let rec write_all fd bytes off len =
  if len > 0 then
    match Unix.write fd bytes off len with
    | n -> write_all fd bytes (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd bytes off len

(* The writer thread flushes whatever accumulated since its last wakeup
   in a single [write]: replies landing while a flush syscall is in
   flight coalesce into the next one, so a loaded connection costs one
   syscall per wakeup, not one per response. *)
let writer_loop w () =
  let rec loop () =
    Mutex.lock w.mutex;
    while Buffer.length w.buf = 0 && not w.closing do
      Condition.wait w.have_pending w.mutex
    done;
    let chunk = Buffer.contents w.buf in
    Buffer.clear w.buf;
    let closing = w.closing in
    Mutex.unlock w.mutex;
    let n = String.length chunk in
    (if n > 0 && not w.failed then
       match write_all w.fd (Bytes.unsafe_of_string chunk) 0 n with
       | () -> ()
       | exception (Unix.Unix_error _ | Sys_error _) ->
           Mutex.lock w.mutex;
           w.failed <- true;
           Mutex.unlock w.mutex);
    if not (closing && n = 0) then loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock w.mutex;
      w.running <- false;
      Condition.broadcast w.exited;
      Mutex.unlock w.mutex)
    loop

let writer fd ~framing =
  let w =
    {
      fd;
      framing;
      mutex = Mutex.create ();
      have_pending = Condition.create ();
      exited = Condition.create ();
      buf = Buffer.create 4096;
      closing = false;
      failed = false;
      running = true;
    }
  in
  let _t : Thread.t = Thread.create (writer_loop w) () in
  w

(* [@pslint.nonblocking]: engine workers call this with replies; the
   actual write syscall belongs to the writer thread alone, so a slow
   client can never wedge a worker.  The buffer mutex below is the one
   audited exception. *)
let[@pslint.nonblocking] send w payload =
  (* pslint: allow blocking — the audited exception described above:
     the buffer mutex guards a few Buffer ops, never a syscall. *)
  Mutex.lock w.mutex;
  if w.failed || w.closing then begin
    Mutex.unlock w.mutex;
    (* Raising lets the engine count the lost reply as a reply failure
       instead of silently dropping it. *)
    failwith "Frame.send: connection writer is closed"
  end
  else begin
    let was_empty = Buffer.length w.buf = 0 in
    Buffer.add_string w.buf payload;
    (match w.framing with
    | Json_lines -> Buffer.add_char w.buf '\n'
    | Binary -> ());
    if was_empty then Condition.signal w.have_pending;
    Mutex.unlock w.mutex
  end

(* Waits on [exited] rather than joining the thread, so a connection
   closing its own writer and the shutdown drain closing every writer
   can race safely: each returns once the final flush is done. *)
let close_writer w =
  Mutex.lock w.mutex;
  w.closing <- true;
  Condition.broadcast w.have_pending;
  while w.running do
    Condition.wait w.exited w.mutex
  done;
  Mutex.unlock w.mutex

let writer_failed w =
  Mutex.lock w.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.mutex)
    (fun () -> w.failed)
