(** Plain-text hypergraph I/O.

    Format: header line ["n m"], then [m] lines each ["s v1 ... vs"] where
    [s] is the edge size. Comment lines start with ['#'].

    {!read_file} and {!write_file} stream: reading parses line by line
    straight into member arrays ({!Hypergraph.of_member_arrays}) with no
    intermediate line or token lists, writing drains a 64 KiB window of
    {!Ps_graph.Gio.Writer} — neither direction materializes the file as
    one string.  {!to_text} and {!write_file} write digits straight into
    the writer's window and read members in place, allocating nothing
    per line. *)

val to_text : Hypergraph.t -> string
val of_text : string -> Hypergraph.t
(** Raises [Failure] with a line-numbered message on malformed input,
    including a header vertex count that is at least
    [Sys.max_array_length] or whose incidence lists do not fit in
    memory (reported on the header's line, not as [Out_of_memory]). *)

val write_file : string -> Hypergraph.t -> unit
val read_file : string -> Hypergraph.t
