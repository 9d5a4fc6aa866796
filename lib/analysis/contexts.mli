(** Classification tables for the interprocedural analyzer: which
    primitives spawn parallel contexts, which block, which raise, which
    guard — and how typedtree [Path.t]s are canonicalised so that the
    same function has one name everywhere.

    Canonical names: dune's module wrapping compiles
    [lib/server/engine.ml] as the unit [Ps_server__Engine]; we rewrite
    the ["__"] separator to ["."], so a cross-module reference and the
    definition site both name [Ps_server.Engine.submit].  Primitives are
    matched by dot-separated {e suffix} ([Parallel.fork_join] matches
    [Ps_util.Parallel.fork_join]; [Domain.spawn] matches
    [Stdlib.Domain.spawn]) so tables stay stable across [Stdlib]
    re-exports and library wrappers. *)

val canonical_unit : string -> string
(** [canonical_unit "Ps_server__Engine"] is ["Ps_server.Engine"]. *)

val suffix_matches : pattern:string -> string -> bool
(** Does canonical name [name] equal [pattern] or end with
    ["." ^ pattern]? *)

val find_suffix : string -> string list -> string option
(** First pattern in the list that suffix-matches the name. *)

val spawners : string list
(** Call heads whose functional arguments run in another domain or
    thread: these arguments become {e parallel roots} (race rule) and,
    for the domain/thread spawners, {e escape roots} (an exception
    escaping the entry point kills the domain or thread silently). *)

val thread_spawners : string list
(** The subset of {!spawners} whose argument runs on a bare domain or
    thread, where an escaping exception is lost (escape roots). *)

val signal_installers : string list
(** [Sys.signal]/[Sys.set_signal] — a [Signal_handle f] argument makes
    [f] a root for all three rules (handlers run on whatever thread is
    interrupted, must not block, must not raise). *)

val guard_wrappers : string list
(** Call heads whose functional argument runs under a lock
    ([Mutex.protect]).  Repo-local wrappers qualify structurally: any
    node that itself takes a lock guards the lambdas passed to it. *)

val lock_prims : string list
(** Lock acquisitions ([Mutex.lock], [Mutex.protect]): a node containing
    one is treated as lock-holding for the race rule's guard check. *)

val blocking_prim : string -> string option
(** [blocking_prim name] is [Some description] when a call to canonical
    [name] may park the calling thread: mutex/condition primitives,
    thread join/delay, channel I/O, and [Unix.*] syscalls minus an
    allowlist of memory-only operations. *)

val raising_prim : string -> string list
(** Exceptions a call to canonical [name] may raise, for a curated table
    of partial stdlib functions ([Hashtbl.find] → [Not_found], channel
    reads → [End_of_file]/[Sys_error], [Unix.*] → [Unix_error], ...).
    Deliberately small: total-in-practice functions ([Queue.pop] after
    an emptiness check) are excluded to keep the escape rule quiet. *)

val write_prims : string list
(** Call heads whose first positional argument is mutated in place
    ([:=], [incr], [Hashtbl.replace], [Buffer.add_string], ...).  A
    write fact is recorded when that argument resolves to module-level
    mutable state. *)

val mutable_makers : string list
(** Allocation heads that make a module-level binding count as shared
    mutable state ([ref], [Hashtbl.create], ...).  [Atomic.make],
    [Mutex.create] and [Domain.DLS.new_key] are deliberately absent —
    they are the sanctioned synchronised forms. *)

(** Function-level attribute names (written [let[@pslint.nonblocking] f]
    or on the binding). *)

val attr_blocking_ok : string
(** Barrier: this function's blocking is audited; the blocking rule
    neither reports its primitives nor traverses past it. *)

val attr_shared_ok : string
(** Barrier for the race rule, same shape. *)

val attr_nonblocking : string
(** Root: this function runs on a hot path that must never park
    (submit-path cache consults, coalescing writers). *)

val attr_no_escape : string
(** Root: no exception may escape this function (reply boundaries). *)

val has_attr : string -> Typedtree.attributes -> bool
(** Is the named attribute present (exact match on the dotted name)? *)
