(** Minimal JSON for the wire protocol.

    The container intentionally carries no JSON library, and the solve
    server needs only the newline-delimited subset of RFC 8259: one value
    per line, UTF-8, no streaming.  This module is that subset — a strict
    recursive-descent parser that never raises on untrusted input (every
    failure is a positioned [Error]), and a compact single-line printer
    whose output re-parses to the same value.

    Integers that fit in OCaml's [int] parse as {!Int}; other numeric
    literals (fractions, exponents, magnitudes beyond [max_int]) parse as
    {!Float}.  Object member order is preserved; duplicate keys are kept
    as written (accessors return the first). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : ?max_depth:int -> string -> (t, string) result
(** Parse exactly one JSON value spanning the whole input (surrounding
    whitespace allowed).  Trailing garbage, truncation, bad escapes,
    malformed numbers and nesting deeper than [max_depth] (default 256)
    all yield [Error] with a byte offset — never an exception. *)

val to_string : t -> string
(** Compact single-line encoding.  Strings are emitted as UTF-8 with the
    mandatory escapes; non-finite floats (which JSON cannot represent)
    are emitted as strings, matching {!Ps_util.Telemetry}'s convention. *)

val to_buffer : Buffer.t -> t -> unit

(** {1 Accessors} — total, for picking requests apart. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]; [None] otherwise. *)

val to_int_opt : t -> int option
(** [Int n] only — no silent float truncation. *)

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option

val equal : t -> t -> bool
(** Structural; object member order and duplicates are significant. *)
