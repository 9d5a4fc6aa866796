module H = Ps_hypergraph.Hypergraph
module Hio = Ps_hypergraph.Hio
module Gio = Ps_graph.Gio
module Mc = Ps_cfc.Multicolor

type error_code =
  | Parse_error
  | Invalid_request
  | Unknown_method
  | Payload_too_large
  | Overloaded
  | Timeout
  | Shutting_down
  | Internal

type error = { code : error_code; message : string }

let error_code_string = function
  | Parse_error -> "parse_error"
  | Invalid_request -> "invalid_request"
  | Unknown_method -> "unknown_method"
  | Payload_too_large -> "payload_too_large"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

type solve_params = {
  hypergraph : H.t;
  spec : Ps_core.Solve_spec.t;
  detail : bool;
}

type mis_algo = Mis_greedy | Mis_luby | Mis_slocal | Mis_derandomized | Mis_all

type check_target =
  | Check_multicoloring of {
      hypergraph : H.t;
      multicoloring : Mc.t;
    }
  | Check_graph_sets of {
      graph : Ps_graph.Graph.t;
      independent_set : int list option;
      dominating_set : int list option;
    }

type mis_row = {
  algo : mis_algo;
  size : int;
  rounds : int option;
  locality : int option;
}

type maxis_outcome = {
  set : Ps_maxis.Independent_set.t;
  solver : string;
  entries : (string * int) list;
  kernel : Ps_maxis.Kernel.stats option;
  certified : bool;
}

type call =
  | Reduce of solve_params
  | Certify of solve_params
  | Mis of { graph : Ps_graph.Graph.t; algo : mis_algo; seed : int }
  | Decompose of { graph : Ps_graph.Graph.t }
  | Check of check_target
  | Ping
  | Stats

type request = {
  id : Json.t;
  timeout_ms : int option;
  tenant : string option;
  call : call;
}

let default_max_bytes = 4 * 1024 * 1024

let solvers =
  [ ("greedy", Ps_maxis.Approx.greedy_min_degree);
    ("caro-wei", Ps_maxis.Approx.caro_wei);
    ("caro-wei-x8", Ps_maxis.Approx.caro_wei_boosted 8);
    ("adversarial", Ps_maxis.Approx.greedy_adversarial);
    ("exact", Ps_maxis.Approx.exact);
    ("clique-removal", Ps_maxis.Clique_removal.solver);
    ("portfolio", Ps_maxis.Portfolio.solver) ]

let solver_of_name name =
  List.find_map
    (fun (n, s) -> if String.equal n name then Some s else None)
    solvers

let presolve_of_name = function
  | "kernel" -> Some (`Kernel : Ps_maxis.Kernel.choice)
  | "none" -> Some `None
  | _ -> None

let mis_algo_of_name = function
  | "greedy" -> Some Mis_greedy
  | "luby" -> Some Mis_luby
  | "slocal" -> Some Mis_slocal
  | "derandomized" -> Some Mis_derandomized
  | "all" -> Some Mis_all
  | _ -> None

let method_name = function
  | Reduce _ -> "reduce"
  | Certify _ -> "certify"
  | Mis _ -> "mis"
  | Decompose _ -> "decompose"
  | Check _ -> "check"
  | Ping -> "ping"
  | Stats -> "stats"

let mis_algo_name = function
  | Mis_greedy -> "greedy"
  | Mis_luby -> "luby"
  | Mis_slocal -> "slocal"
  | Mis_derandomized -> "derandomized"
  | Mis_all -> "all"

(* ------------------------------------------------------------------ *)
(* Request validation *)

(* Short-circuiting field extraction: every branch either produces the
   value or a typed [error]; nothing in this file raises on bad input. *)

let err code fmt = Printf.ksprintf (fun message -> { code; message }) fmt

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let opt_field params key decode what =
  match Json.member key params with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match decode v with
      | Some x -> Ok (Some x)
      | None ->
          Error (err Invalid_request "field %S must be %s" key what))

let str_field params key =
  opt_field params key Json.to_string_opt "a string"

let int_field params key = opt_field params key Json.to_int_opt "an integer"
let bool_field params key = opt_field params key Json.to_bool_opt "a boolean"

let required what key = function
  | Some v -> Ok v
  | None -> Error (err Invalid_request "missing required field %S (%s)" key what)

let positive key = function
  | Some v when v <= 0 ->
      Error (err Invalid_request "field %S must be positive (got %d)" key v)
  | v -> Ok v

(* Inline payloads: the Gio/Hio readers raise [Failure] with a
   line-numbered message on malformed text (bad headers, negative or
   out-of-range ids, junk tokens); that message becomes the typed
   [invalid_request] response body. *)
let hypergraph_payload params =
  let* text = str_field params "hypergraph" in
  let* text = required "inline Hio text" "hypergraph" text in
  match Hio.of_text text with
  | h -> Ok h
  | exception Failure msg ->
      Error (err Invalid_request "hypergraph payload: %s" msg)

let graph_payload params =
  let* text = str_field params "graph" in
  let* text = required "inline Gio edge-list text" "graph" text in
  match Gio.of_edge_list text with
  | g -> Ok g
  | exception Failure msg -> Error (err Invalid_request "graph payload: %s" msg)

let solve_spec ?(solver = "greedy") ?(presolve = "kernel") ?k ?(seed = 0)
    () =
  let* solver =
    match solver_of_name solver with
    | Some s -> Ok s
    | None -> Error (err Invalid_request "unknown solver %S" solver)
  in
  let* presolve =
    match presolve_of_name presolve with
    | Some c -> Ok c
    | None ->
        Error
          (err Invalid_request "field \"presolve\" must be %S or %S" "kernel"
             "none")
  in
  let* k = positive "k" k in
  Ok { Ps_core.Solve_spec.solver; presolve; k; seed }

(* A fixed k is checked against the instance before anything is built:
   G_k's k·Σ|e| triple ids must fit its int32 store. *)
let check_spec (spec : Ps_core.Solve_spec.t) h =
  match spec.k with
  | None -> Ok ()
  | Some k ->
      Result.map_error
        (fun msg -> err Invalid_request "field \"k\": %s" msg)
        (Ps_core.Conflict_graph.check_k h ~k)

let solve_params params =
  let* hypergraph = hypergraph_payload params in
  let* solver = str_field params "solver" in
  let* presolve = str_field params "presolve" in
  let* k = int_field params "k" in
  let* seed = int_field params "seed" in
  let* spec = solve_spec ?solver ?presolve ?k ?seed () in
  let* () = check_spec spec hypergraph in
  let* detail = bool_field params "detail" in
  Ok { hypergraph; spec; detail = Option.value detail ~default:false }

(* [check] payloads: vertex/color lists arrive as JSON arrays of
   integers.  Shape errors (non-arrays, non-integers) are protocol-level
   [invalid_request]s; {e semantic} errors (out-of-range ids, unhappy
   edges) are the checkers' job and come back as positioned diagnostics
   in an [ok] response — a failed certificate is a result, not a
   protocol failure. *)
let int_list_field params key =
  match Json.member key params with
  | None | Some Json.Null -> Ok None
  | Some v -> (
      match Json.to_list_opt v with
      | None ->
          Error (err Invalid_request "field %S must be an array" key)
      | Some items -> (
          let ints = List.filter_map Json.to_int_opt items in
          if List.length ints = List.length items then Ok (Some ints)
          else
            Error
              (err Invalid_request "field %S must hold only integers" key)))

let multicoloring_field params =
  match Json.member "multicoloring" params with
  | None | Some Json.Null ->
      Error
        (err Invalid_request
           "missing required field \"multicoloring\" (array of per-vertex \
            color arrays)")
  | Some v -> (
      match Json.to_list_opt v with
      | None ->
          Error (err Invalid_request "field \"multicoloring\" must be an array")
      | Some rows ->
          let mc = Array.make (List.length rows) [] in
          (* A vertex-count mismatch with the hypergraph is let through
             deliberately: the checker reports it as a positioned
             diagnostic, which is the whole point of the method. *)
          let rec fill i = function
            | [] -> Ok mc
            | row :: rest -> (
                match Json.to_list_opt row with
                | None ->
                    Error
                      (err Invalid_request
                         "multicoloring entry %d must be an array of colors" i)
                | Some cells ->
                    let colors = List.filter_map Json.to_int_opt cells in
                    if List.length colors <> List.length cells then
                      Error
                        (err Invalid_request
                           "multicoloring entry %d must hold only integers" i)
                    else begin
                      mc.(i) <- List.sort_uniq Int.compare colors;
                      fill (i + 1) rest
                    end)
          in
          fill 0 rows)

let check_params params =
  match Json.member "hypergraph" params with
  | Some _ ->
      let* hypergraph = hypergraph_payload params in
      let* multicoloring = multicoloring_field params in
      Ok (Check_multicoloring { hypergraph; multicoloring })
  | None -> (
      match Json.member "graph" params with
      | Some _ ->
          let* graph = graph_payload params in
          let* independent_set = int_list_field params "independent_set" in
          let* dominating_set = int_list_field params "dominating_set" in
          Ok (Check_graph_sets { graph; independent_set; dominating_set })
      | None ->
          Error
            (err Invalid_request
               "check needs a \"hypergraph\" (with \"multicoloring\") or a \
                \"graph\" (optionally with \"independent_set\" / \
                \"dominating_set\")"))

let parse_call meth params =
  match meth with
  | "reduce" ->
      let* p = solve_params params in
      Ok (Reduce p)
  | "certify" ->
      let* p = solve_params params in
      Ok (Certify p)
  | "mis" ->
      let* graph = graph_payload params in
      let* algo = str_field params "algo" in
      let algo_name = Option.value algo ~default:"greedy" in
      let* algo =
        match mis_algo_of_name algo_name with
        | Some a -> Ok a
        | None -> Error (err Invalid_request "unknown MIS algo %S" algo_name)
      in
      let* seed = int_field params "seed" in
      Ok (Mis { graph; algo; seed = Option.value seed ~default:0 })
  | "decompose" ->
      let* graph = graph_payload params in
      Ok (Decompose { graph })
  | "check" ->
      let* target = check_params params in
      Ok (Check target)
  | "ping" -> Ok Ping
  | "stats" -> Ok Stats
  | other -> Error (err Unknown_method "unknown method %S" other)

let validate_request_unsafe envelope =
  let tag id r = Result.map_error (fun e -> (id, e)) r in
  match envelope with
  | Json.Obj _ ->
      let id = Option.value (Json.member "id" envelope) ~default:Json.Null in
      tag id
        (let* meth =
           match Json.member "method" envelope with
           | Some (Json.Str m) -> Ok m
           | Some _ ->
               Error (err Invalid_request "field \"method\" must be a string")
           | None ->
               Error (err Invalid_request "missing required field \"method\"")
         in
         let* params =
           match Json.member "params" envelope with
           | None | Some Json.Null -> Ok (Json.Obj [])
           | Some (Json.Obj _ as p) -> Ok p
           | Some _ ->
               Error (err Invalid_request "field \"params\" must be an object")
         in
         let* timeout_ms = int_field params "timeout_ms" in
         let* timeout_ms = positive "timeout_ms" timeout_ms in
         let* tenant = str_field params "tenant" in
         let* call = parse_call meth params in
         Ok { id; timeout_ms; tenant; call })
  | _ -> Error (Json.Null, err Invalid_request "request must be a JSON object")

(* Total on untrusted structure.  The payload constructors reached from
   [parse_call] ([Hypergraph.of_member_arrays], the CSR builder, the
   multicoloring decoder) do their own validation with [invalid_arg]
   and friends; the wire contract says parsing never raises, so any
   such escape becomes one [Invalid_request] naming the culprit instead
   of an exception that kills the transport thread. *)
let validate_request envelope =
  try validate_request_unsafe envelope
  with exn ->
    let id =
      match envelope with
      | Json.Obj _ ->
          Option.value (Json.member "id" envelope) ~default:Json.Null
      | _ -> Json.Null
    in
    Error (id, err Invalid_request "invalid payload: %s" (Printexc.to_string exn))

let parse_request ?(max_bytes = default_max_bytes) line =
  if String.length line > max_bytes then
    Error
      ( Json.Null,
        err Payload_too_large "request line is %d bytes (cap %d)"
          (String.length line) max_bytes )
  else
    match Json.parse line with
    | Error msg -> Error (Json.Null, err Parse_error "%s" msg)
    | Ok envelope -> validate_request envelope

(* ------------------------------------------------------------------ *)
(* Responses *)

let ok_response ~id result =
  Json.Obj [ ("id", id); ("ok", Json.Bool true); ("result", result) ]

let error_response ~id { code; message } =
  Json.Obj
    [ ("id", id);
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          [ ("code", Json.Str (error_code_string code));
            ("message", Json.Str message) ] ) ]

let response_to_line = Json.to_string

(* ------------------------------------------------------------------ *)
(* Result encoders *)

let certificate_json (c : Ps_core.Certify.t) =
  Json.Obj
    [ ("conflict_free", Json.Bool c.conflict_free);
      ("phase_happiness_ok", Json.Bool c.phase_happiness_ok);
      ("decay_ok", Json.Bool c.decay_ok);
      ("lambda_max", Json.Float c.lambda_max);
      ("rho_bound", Json.Float c.rho_bound);
      ("phases_used", Json.Int c.phases_used);
      ("phases_within_rho", Json.Bool c.phases_within_rho);
      ("colors_used", Json.Int c.colors_used);
      ("color_budget", Json.Int c.color_budget);
      ("colors_within_budget", Json.Bool c.colors_within_budget);
      ("all_ok", Json.Bool c.all_ok) ]

let phase_record_json (p : Ps_core.Reduction.phase_record) =
  Json.Obj
    [ ("phase", Json.Int p.phase);
      ("edges_before", Json.Int p.edges_before);
      ("conflict_vertices", Json.Int p.conflict_vertices);
      ("conflict_edges", Json.Int p.conflict_edges);
      ("is_size", Json.Int p.is_size);
      ("newly_happy", Json.Int p.newly_happy);
      ("lambda_effective", Json.Float p.lambda_effective) ]

let reduce_result ~detail (r : Ps_core.Pipeline.result) =
  let red = r.Ps_core.Pipeline.reduction in
  let _, compacted = Mc.compact red.Ps_core.Reduction.multicoloring in
  let base =
    [ ("k", Json.Int r.Ps_core.Pipeline.k);
      ("solver", Json.Str red.Ps_core.Reduction.solver_name);
      ("n", Json.Int (H.n_vertices red.Ps_core.Reduction.hypergraph));
      ("m", Json.Int (H.n_edges red.Ps_core.Reduction.hypergraph));
      ("phases", Json.Int red.Ps_core.Reduction.total_phases);
      ("colors_used", Json.Int red.Ps_core.Reduction.colors_used);
      ("colors_compacted", Json.Int compacted);
      ( "certified",
        Json.Bool r.Ps_core.Pipeline.certificate.Ps_core.Certify.all_ok );
      ("certificate", certificate_json r.Ps_core.Pipeline.certificate) ]
  in
  let extra =
    if not detail then []
    else
      [ ( "phase_records",
          Json.List
            (List.map phase_record_json red.Ps_core.Reduction.phases) );
        ( "multicoloring",
          Json.List
            (Array.to_list
               (Array.map
                  (fun colors ->
                    Json.List (List.map (fun c -> Json.Int c) colors))
                  red.Ps_core.Reduction.multicoloring)) ) ]
  in
  Json.Obj (base @ extra)

let mis_result rows =
  let opt key = Option.fold ~none:[] ~some:(fun n -> [ (key, Json.Int n) ]) in
  let entry r =
    Json.Obj
      ([ ("algorithm", Json.Str (mis_algo_name r.algo));
         ("size", Json.Int r.size) ]
      @ opt "rounds" r.rounds @ opt "locality" r.locality)
  in
  Json.Obj [ ("algorithms", Json.List (List.map entry rows)) ]

let kernel_stats_json (st : Ps_maxis.Kernel.stats) =
  Json.Obj
    [ ("original_vertices", Json.Int st.original_vertices);
      ("original_edges", Json.Int st.original_edges);
      ("kernel_vertices", Json.Int st.kernel_vertices);
      ("kernel_edges", Json.Int st.kernel_edges);
      ("isolated", Json.Int st.isolated);
      ("pendants", Json.Int st.pendants);
      ("folds", Json.Int st.folds);
      ("simplicial", Json.Int st.simplicial);
      ("dominated", Json.Int st.dominated) ]

let maxis_result (o : maxis_outcome) =
  Json.Obj
    ([ ("solver", Json.Str o.solver);
       ("size", Json.Int (Ps_maxis.Independent_set.size o.set));
       ("certified", Json.Bool o.certified);
       ( "entries",
         Json.List
           (List.map
              (fun (n, sz) ->
                Json.Obj [ ("solver", Json.Str n); ("size", Json.Int sz) ])
              o.entries) ) ]
    @ Option.fold ~none:[]
        ~some:(fun st -> [ ("kernel", kernel_stats_json st) ])
        o.kernel)

let diagnostic_json (d : Ps_check.Diagnostic.t) =
  Json.Obj
    [ ("rule", Json.Str d.Ps_check.Diagnostic.rule);
      ( "where",
        Json.Obj
          [ ( "kind",
              Json.Str (Ps_check.Diagnostic.where_kind d.Ps_check.Diagnostic.where) );
            ( "at",
              Json.List
                (List.map
                   (fun i -> Json.Int i)
                   (Ps_check.Diagnostic.where_indices d.Ps_check.Diagnostic.where))
            ) ] );
      ( "position",
        Json.Str
          (Format.asprintf "%a" Ps_check.Diagnostic.pp_where
             d.Ps_check.Diagnostic.where) );
      ("message", Json.Str d.Ps_check.Diagnostic.message) ]

let check_result ~checks diagnostics =
  Json.Obj
    [ ( "valid",
        Json.Bool (match diagnostics with [] -> true | _ :: _ -> false) );
      ("checks", Json.List (List.map (fun c -> Json.Str c) checks));
      ("diagnostics", Json.List (List.map diagnostic_json diagnostics)) ]

let decompose_result (d : Ps_slocal.Decomposition.t) ~verified =
  Json.Obj
    [ ("clusters", Json.Int d.Ps_slocal.Decomposition.n_clusters);
      ("colors", Json.Int d.Ps_slocal.Decomposition.n_colors);
      ("max_radius", Json.Int d.Ps_slocal.Decomposition.max_radius);
      ("verified", Json.Bool verified) ]

(* ------------------------------------------------------------------ *)
(* Binary framing *)

module Binary = struct
  (* One frame per message, either direction:

       0xB5 | u32 big-endian payload length | payload

     The payload is a tagged binary encoding of exactly the {!Json}
     value the JSON codec would put on the wire, so the two codecs are
     interchangeable message-for-message (the qcheck suite pins
     decode∘encode = id and cross-codec equality).  The hot-path win is
     the decoder: tagged fixed-width scalars and length-prefixed
     strings replace character-level JSON scanning, and the inline
     Hio/Gio payload strings are taken verbatim — no escape decoding.

     Tags: n null · t true · f false · i int64 · d float bits ·
     s string · l list · o object (key = u32 length + bytes).  All
     integers big-endian.  Decoding is total: every malformed input —
     truncated value, negative or over-long length, unknown tag,
     out-of-range integer, trailing garbage, over-deep nesting — is a
     positioned [Error], never an exception. *)

  let magic = '\xb5'
  let header_bytes = 5

  let rec encode_value buf v =
    let add_len n = Buffer.add_int32_be buf (Int32.of_int n) in
    match v with
    | Json.Null -> Buffer.add_char buf 'n'
    | Json.Bool true -> Buffer.add_char buf 't'
    | Json.Bool false -> Buffer.add_char buf 'f'
    | Json.Int n ->
        Buffer.add_char buf 'i';
        Buffer.add_int64_be buf (Int64.of_int n)
    | Json.Float f ->
        Buffer.add_char buf 'd';
        Buffer.add_int64_be buf (Int64.bits_of_float f)
    | Json.Str s ->
        Buffer.add_char buf 's';
        add_len (String.length s);
        Buffer.add_string buf s
    | Json.List items ->
        Buffer.add_char buf 'l';
        add_len (List.length items);
        List.iter (encode_value buf) items
    | Json.Obj members ->
        Buffer.add_char buf 'o';
        add_len (List.length members);
        List.iter
          (fun (k, v) ->
            add_len (String.length k);
            Buffer.add_string buf k;
            encode_value buf v)
          members

  let to_bytes v =
    let buf = Buffer.create 256 in
    encode_value buf v;
    Buffer.contents buf

  exception Bad of int * string

  let bad pos fmt = Printf.ksprintf (fun m -> raise (Bad (pos, m))) fmt

  let of_bytes ?(max_depth = 256) s =
    let len = String.length s in
    let pos = ref 0 in
    let need n what =
      if !pos + n > len then
        bad !pos "truncated %s (need %d bytes, have %d)" what n (len - !pos)
    in
    let read_len what =
      need 4 what;
      let n = Int32.to_int (String.get_int32_be s !pos) in
      pos := !pos + 4;
      if n < 0 then bad (!pos - 4) "negative %s length" what;
      n
    in
    let read_bytes n what =
      need n what;
      let b = String.sub s !pos n in
      pos := !pos + n;
      b
    in
    let rec value depth =
      if depth > max_depth then bad !pos "nesting deeper than %d" max_depth;
      need 1 "tag";
      let tag = s.[!pos] in
      incr pos;
      match tag with
      | 'n' -> Json.Null
      | 't' -> Json.Bool true
      | 'f' -> Json.Bool false
      | 'i' ->
          need 8 "integer";
          let v = String.get_int64_be s !pos in
          pos := !pos + 8;
          let n = Int64.to_int v in
          if Int64.of_int n <> v then bad (!pos - 8) "integer out of range";
          Json.Int n
      | 'd' ->
          need 8 "float";
          let v = Int64.float_of_bits (String.get_int64_be s !pos) in
          pos := !pos + 8;
          Json.Float v
      | 's' ->
          let n = read_len "string" in
          Json.Str (read_bytes n "string body")
      | 'l' ->
          let n = read_len "list" in
          (* Each element is at least one tag byte: an element count
             beyond the remaining bytes is hostile, not huge. *)
          if n > len - !pos then bad (!pos - 4) "list length %d overruns frame" n;
          Json.List (List.init n (fun _ -> value (depth + 1)))
      | 'o' ->
          let n = read_len "object" in
          if n > len - !pos then
            bad (!pos - 4) "object length %d overruns frame" n;
          Json.Obj
            (List.init n (fun _ ->
                 let kn = read_len "key" in
                 let k = read_bytes kn "key body" in
                 (k, value (depth + 1))))
      | c -> bad (!pos - 1) "unknown tag 0x%02x" (Char.code c)
    in
    match value 0 with
    | v ->
        if !pos <> len then
          Error (Printf.sprintf "byte %d: trailing garbage after value" !pos)
        else Ok v
    | exception Bad (p, m) -> Error (Printf.sprintf "byte %d: %s" p m)

  let frame v =
    let payload = to_bytes v in
    let buf = Buffer.create (String.length payload + header_bytes) in
    Buffer.add_char buf magic;
    Buffer.add_int32_be buf (Int32.of_int (String.length payload));
    Buffer.add_string buf payload;
    Buffer.contents buf

  let frame_length header =
    if String.length header < header_bytes then Error "short frame header"
    else if header.[0] <> magic then
      Error
        (Printf.sprintf "bad frame magic 0x%02x (want 0x%02x)"
           (Char.code header.[0]) (Char.code magic))
    else
      let n = Int32.to_int (String.get_int32_be header 1) in
      if n < 0 then Error "negative frame length" else Ok n

  let decode_request ?(max_bytes = default_max_bytes) payload =
    if String.length payload > max_bytes then
      Error
        ( Json.Null,
          err Payload_too_large "binary frame is %d bytes (cap %d)"
            (String.length payload) max_bytes )
    else
      match of_bytes payload with
      | Error msg -> Error (Json.Null, err Parse_error "binary frame: %s" msg)
      | Ok envelope -> validate_request envelope
end
