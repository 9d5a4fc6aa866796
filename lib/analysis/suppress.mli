(** Suppression comments, scanned from raw source text with a real
    comment lexer.

    A comment containing ["pslint: allow <rule> [<rule>...]"] suppresses
    those rules on every line the comment spans {e plus the following
    line}, so both

    {[
      x := 1 (* pslint: allow race *)
    ]}

    and

    {[
      (* Deliberate: an idle worker parks here between jobs.
         pslint: allow blocking *)
      Condition.wait t.nonempty t.mutex
    ]}

    work — including comments whose [(* ... *)] spans multiple lines,
    which the pre-analyzer pslint only honoured on the closing line.

    ["pslint: allow-file <rule>"] anywhere suppresses the rules for the
    whole file.  Nested comments and string literals (plain, [{|...|}]
    quoted, and inside comments, as OCaml lexes them) are handled. *)

type t

val empty : t
(** No suppressions (used when the source text is unavailable). *)

val scan : string -> t
(** [scan text] extracts every suppression comment from [text]. *)

val suppressed : t -> rule:string -> line:int -> bool
(** Is [rule] suppressed at [line] (1-based)? *)
