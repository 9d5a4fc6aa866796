type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Parser *)

exception Bad of int * string
(* Internal only: [parse] catches it and returns [Error].  Carrying the
   byte offset separately keeps error construction allocation-light on
   the hot reject path. *)

let fail pos msg = raise (Bad (pos, msg))

type state = { s : string; mutable pos : int; max_depth : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let peek_is st c =
  match peek st with Some c' -> Char.equal c' c | None -> false

let skip_ws st =
  let n = String.length st.s in
  while
    st.pos < n
    && match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | Some d -> fail st.pos (Printf.sprintf "expected %C, found %C" c d)
  | None -> fail st.pos (Printf.sprintf "expected %C, found end of input" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st.pos (Printf.sprintf "invalid literal (expected %s)" word)

(* Append the UTF-8 encoding of a code point. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let hex4 st =
  if st.pos + 4 > String.length st.s then fail st.pos "truncated \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    let c = st.s.[st.pos + i] in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail (st.pos + i) "invalid hex digit in \\u escape"
    in
    v := (!v * 16) + d
  done;
  st.pos <- st.pos + 4;
  !v

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.s then fail st.pos "unterminated string";
    let c = st.s.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' -> begin
        if st.pos >= String.length st.s then
          fail st.pos "truncated escape sequence";
        let e = st.s.[st.pos] in
        st.pos <- st.pos + 1;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
            let cp = hex4 st in
            if cp >= 0xD800 && cp <= 0xDBFF then begin
              (* High surrogate: require the paired low surrogate. *)
              if
                st.pos + 2 <= String.length st.s
                && st.s.[st.pos] = '\\'
                && st.s.[st.pos + 1] = 'u'
              then begin
                st.pos <- st.pos + 2;
                let lo = hex4 st in
                if lo < 0xDC00 || lo > 0xDFFF then
                  fail st.pos "invalid low surrogate";
                add_utf8 buf
                  (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
              end
              else fail st.pos "unpaired surrogate"
            end
            else if cp >= 0xDC00 && cp <= 0xDFFF then
              fail st.pos "unpaired surrogate"
            else add_utf8 buf cp
        | _ -> fail (st.pos - 1) "invalid escape character");
        go ()
      end
    | c when Char.code c < 0x20 ->
        fail (st.pos - 1) "unescaped control character in string"
    | c ->
        Buffer.add_char buf c;
        go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let n = String.length st.s in
  let is_int = ref true in
  if st.pos < n && st.s.[st.pos] = '-' then st.pos <- st.pos + 1;
  let digits_from p =
    let q = ref p in
    while !q < n && st.s.[!q] >= '0' && st.s.[!q] <= '9' do
      incr q
    done;
    !q
  in
  let d0 = st.pos in
  st.pos <- digits_from st.pos;
  if st.pos = d0 then fail st.pos "expected digit";
  (* JSON forbids leading zeros on multi-digit integers. *)
  if st.pos - d0 > 1 && st.s.[d0] = '0' then fail d0 "leading zero";
  if st.pos < n && st.s.[st.pos] = '.' then begin
    is_int := false;
    st.pos <- st.pos + 1;
    let f0 = st.pos in
    st.pos <- digits_from st.pos;
    if st.pos = f0 then fail st.pos "expected digit after decimal point"
  end;
  if st.pos < n && (st.s.[st.pos] = 'e' || st.s.[st.pos] = 'E') then begin
    is_int := false;
    st.pos <- st.pos + 1;
    if st.pos < n && (st.s.[st.pos] = '+' || st.s.[st.pos] = '-') then
      st.pos <- st.pos + 1;
    let e0 = st.pos in
    st.pos <- digits_from st.pos;
    if st.pos = e0 then fail st.pos "expected digit in exponent"
  end;
  let text = String.sub st.s start (st.pos - start) in
  if !is_int then
    (* Out-of-range integer literals (|x| > max_int) widen to float so a
       protocol-level range check can reject them with a typed error
       instead of the parser crashing. *)
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)
  else
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail start "malformed number"

let rec parse_value st depth =
  if depth > st.max_depth then fail st.pos "nesting too deep";
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' -> parse_obj st depth
  | Some '[' -> parse_list st depth
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st.pos (Printf.sprintf "unexpected character %C" c)

and parse_obj st depth =
  expect st '{';
  skip_ws st;
  if peek_is st '}' then begin
    st.pos <- st.pos + 1;
    Obj []
  end
  else begin
    let rec members acc =
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let v = parse_value st (depth + 1) in
      skip_ws st;
      match peek st with
      | Some ',' ->
          st.pos <- st.pos + 1;
          members ((key, v) :: acc)
      | Some '}' ->
          st.pos <- st.pos + 1;
          List.rev ((key, v) :: acc)
      | _ -> fail st.pos "expected ',' or '}' in object"
    in
    Obj (members [])
  end

and parse_list st depth =
  expect st '[';
  skip_ws st;
  if peek_is st ']' then begin
    st.pos <- st.pos + 1;
    List []
  end
  else begin
    let rec elements acc =
      let v = parse_value st (depth + 1) in
      skip_ws st;
      match peek st with
      | Some ',' ->
          st.pos <- st.pos + 1;
          elements (v :: acc)
      | Some ']' ->
          st.pos <- st.pos + 1;
          List.rev (v :: acc)
      | _ -> fail st.pos "expected ',' or ']' in array"
    in
    List (elements [])
  end

let parse ?(max_depth = 256) s =
  let st = { s; pos = 0; max_depth } in
  match
    let v = parse_value st 0 in
    skip_ws st;
    if st.pos <> String.length s then fail st.pos "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (pos, msg) ->
      Error (Printf.sprintf "byte %d: %s" pos msg)

(* ------------------------------------------------------------------ *)
(* Printer *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then begin
        (* Shortest representation that round-trips; ensure it still
           reads as a number (17 significant digits always re-parse to
           the same float). *)
        let s = Printf.sprintf "%.17g" f in
        Buffer.add_string buf s
      end
      else escape_to buf (Float.to_string f)
  | Str s -> escape_to buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function
  | Obj kvs ->
      List.find_map
        (fun (k, v) -> if String.equal k key then Some v else None)
        kvs
  | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None

let equal = ( = )
