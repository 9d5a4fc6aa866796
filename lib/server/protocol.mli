(** The solve service's wire protocol: newline-delimited JSON.

    One request per line, one response per line, in either direction of a
    byte stream (stdin/stdout or a Unix socket).  A request is

    {v {"id": <any>, "method": "reduce", "params": {...}} v}

    and every request — including malformed ones — produces exactly one
    response, either

    {v {"id": <echoed>, "ok": true,  "result": {...}}
       {"id": <echoed>, "ok": false, "error": {"code": "...", "message": "..."}} v}

    Responses may arrive out of order (jobs run on a worker pool); the
    echoed [id] is the correlation key.  Malformed input of any kind maps
    to a typed {!error} — parsing never raises on untrusted bytes.

    Methods: [reduce] and [certify] (Theorem 1.1 pipeline on an inline
    Hio hypergraph payload), [mis] and [decompose] (inline Gio edge-list
    payload), [ping], [stats].  The same result encoders back the CLI's
    [--json] mode, so one-shot and served output are byte-compatible. *)

type error_code =
  | Parse_error        (** line is not a JSON value *)
  | Invalid_request    (** JSON fine; envelope, params or payload invalid *)
  | Unknown_method
  | Payload_too_large  (** request line exceeds the configured byte cap *)
  | Overloaded         (** per-tenant quota exhausted *)
  | Timeout            (** per-job deadline expired *)
  | Shutting_down      (** submitted to, or aborted by, a closing server *)
  | Internal           (** handler raised: a bug, reported not crashed *)

type error = { code : error_code; message : string }

val error_code_string : error_code -> string
(** Lower-snake wire names: ["parse_error"], ["overloaded"], ... *)

(** What a validated request asks for.  Inline payloads arrive already
    parsed: Hio/Gio rejection (negative ids, out-of-range vertices,
    malformed headers) happens at validation time and surfaces as
    {!Invalid_request}. *)

type solve_params = {
  hypergraph : Ps_hypergraph.Hypergraph.t;
  spec : Ps_core.Solve_spec.t;  (** decoded by {!solve_spec} *)
  detail : bool;        (** include per-phase records and the multicoloring *)
}

type mis_algo = Mis_greedy | Mis_luby | Mis_slocal | Mis_derandomized | Mis_all

(** What the [check] method certifies: a claimed conflict-free
    multicoloring against an inline Hio hypergraph, or vertex-set
    certificates (independent / dominating) against an inline Gio graph
    (the graph's CSR representation is audited either way).  Semantic
    failures — an unhappy edge, an internal edge, an out-of-range id —
    are {e results} (positioned diagnostics with [valid: false]), not
    protocol errors. *)
type check_target =
  | Check_multicoloring of {
      hypergraph : Ps_hypergraph.Hypergraph.t;
      multicoloring : Ps_cfc.Multicolor.t;
    }
  | Check_graph_sets of {
      graph : Ps_graph.Graph.t;
      independent_set : int list option;
      dominating_set : int list option;
    }

(** One [mis] result row: set size, and the cost in rounds (LOCAL) or
    locality (SLOCAL); neither for the centralized greedy. *)
type mis_row = {
  algo : mis_algo;
  size : int;
  rounds : int option;
  locality : int option;
}

(** One MaxIS solve on a graph ({!Service.maxis}). *)
type maxis_outcome = {
  set : Ps_maxis.Independent_set.t;  (** on the input graph's ids *)
  solver : string;
      (** the effective solver name, or ["portfolio (winner: NAME)"] *)
  entries : (string * int) list;
      (** set size per solver run: one entry, or one per portfolio lane *)
  kernel : Ps_maxis.Kernel.stats option;  (** [None] without a kernel *)
  certified : bool;  (** independent and maximal on the input graph *)
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
  id : Json.t;               (** echoed verbatim; [Null] when absent *)
  timeout_ms : int option;   (** per-job deadline, measured from accept *)
  tenant : string option;
      (** quota accounting key ([params.tenant]); requests without one
          share the anonymous bucket.  Ignored unless the serving tier
          has per-tenant quotas configured ({!Ps_shard.Quota}). *)
  call : call;
}

val default_max_bytes : int
(** Request-line size cap when none is configured: 4 MiB. *)

val parse_request : ?max_bytes:int -> string -> (request, Json.t * error) result
(** Validate one request line.  On error the returned [Json.t] is the
    request id if one could be recovered from the line ([Null] otherwise)
    so the error response still correlates. *)

val validate_request : Json.t -> (request, Json.t * error) result
(** Envelope validation alone (everything after the line is a
    {!Json.t}): the shared second half of {!parse_request}, and the whole
    story for the binary codec, whose frames decode straight to a
    {!Json.t} without touching the JSON text parser. *)

val method_name : call -> string
(** Wire name of the method a call came from ("reduce", "ping", ...). *)

val solvers : (string * Ps_maxis.Approx.solver) list
(** The one solver registry, in documentation order: greedy, caro-wei,
    caro-wei-x8, adversarial, exact, clique-removal, portfolio.  The
    CLI's [--solver] docs list these names. *)

val solver_of_name : string -> Ps_maxis.Approx.solver option
(** Lookup in {!solvers}. *)

val solve_spec :
  ?solver:string ->
  ?presolve:string ->
  ?k:int ->
  ?seed:int ->
  unit ->
  (Ps_core.Solve_spec.t, error) result
(** The one decoder of solve options, shared by the [reduce] and
    [certify] params and by the CLI's [reduce], [audit] and
    [mis --solver]: defaults are solver ["greedy"], presolve
    ["kernel"], derived [k] and seed [0].  An unknown solver or presolve
    name and a non-positive [k] are {!Invalid_request} errors whose
    messages the CLI prints verbatim. *)

val check_spec :
  Ps_core.Solve_spec.t -> Ps_hypergraph.Hypergraph.t -> (unit, error) result
(** The spec against the instance it will solve: a fixed [k] whose
    [G_k] has more triples than int32 ids
    ({!Ps_core.Conflict_graph.check_k}) is an {!Invalid_request}, found
    before anything is built.  The
    [reduce] and [certify] params run it after decoding; the CLI runs it
    after reading the hypergraph. *)

val presolve_of_name : string -> Ps_maxis.Kernel.choice option
(** ["kernel"] or ["none"] — the wire/CLI names of the presolve knob. *)

val mis_algo_of_name : string -> mis_algo option
val mis_algo_name : mis_algo -> string

(** {1 Response construction} *)

val ok_response : id:Json.t -> Json.t -> Json.t
val error_response : id:Json.t -> error -> Json.t

val response_to_line : Json.t -> string
(** Compact encoding, no trailing newline (the transport adds it). *)

(** {1 Result encoders} (shared with [pslocal --json]) *)

val reduce_result : detail:bool -> Ps_core.Pipeline.result -> Json.t
val certificate_json : Ps_core.Certify.t -> Json.t

val mis_result : mis_row list -> Json.t
(** [{"algorithms": [{"algorithm", "size", "rounds"?, "locality"?}, ...]}]. *)

val maxis_result : maxis_outcome -> Json.t
(** [{"solver", "size", "certified", "entries": [{"solver", "size"}],
    "kernel"?}] — [pslocal mis --solver --json]; no served method
    carries it yet. *)

val decompose_result :
  Ps_slocal.Decomposition.t -> verified:bool -> Json.t

val diagnostic_json : Ps_check.Diagnostic.t -> Json.t
(** [{"rule", "where": {"kind", "at"}, "position", "message"}] — the wire
    form of a positioned audit diagnostic. *)

val check_result : checks:string list -> Ps_check.Diagnostic.t list -> Json.t
(** [{"valid", "checks", "diagnostics"}]; [valid] iff no diagnostics.
    [checks] names the certifiers that ran ("csr", "multicoloring",
    "independent_set", "dominating_set").  Shared by the served [check]
    method and [pslocal audit --json]. *)

(** {1 Binary framing}

    The hot-path alternative to JSON lines: one length-prefixed frame
    per message ([0xB5] · u32 big-endian payload length · payload), the
    payload a tagged binary encoding of exactly the {!Json} value the
    JSON codec would emit.  The two codecs carry the same request and
    response surface — the qcheck suite pins [of_bytes ∘ to_bytes = id]
    and cross-codec payload equality — but the binary decoder replaces
    character-level JSON scanning with fixed-width reads, and inline
    Hio/Gio payload strings arrive verbatim with no escape decoding.
    JSON stays the compatibility protocol; [pslocal serve --binary]
    switches a shard tier to frames. *)
module Binary : sig
  val magic : char
  (** First byte of every frame, [0xB5] — distinguishable from any JSON
      line (which starts with whitespace or a printable ASCII byte), so
      JSON sent to a binary port is rejected with a typed error, not
      misparsed. *)

  val header_bytes : int
  (** Frame header size: magic + u32 length = 5. *)

  val to_bytes : Json.t -> string
  (** Payload encoding of one value (no frame header). *)

  val of_bytes : ?max_depth:int -> string -> (Json.t, string) result
  (** Total decoder: truncated values, bad tags, negative or over-long
      lengths, out-of-range integers, over-deep nesting (default cap
      256) and trailing garbage are positioned [Error]s — never
      exceptions.  Inverse of {!to_bytes} on every value. *)

  val frame : Json.t -> string
  (** Header + payload: the full wire form of one message. *)

  val frame_length : string -> (int, string) result
  (** Parse a frame header (first {!header_bytes} bytes): the payload
      length, or why the header is unusable (short, wrong magic,
      negative length).  Length-cap enforcement is the reader's job —
      it knows its configured maximum. *)

  val decode_request : ?max_bytes:int -> string -> (request, Json.t * error) result
  (** One frame payload through decode + {!validate_request}: the
      binary analogue of {!parse_request}, with the same typed-error
      contract ([parse_error] for undecodable bytes,
      [payload_too_large] over the cap). *)
end
