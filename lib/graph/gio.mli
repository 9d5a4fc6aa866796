(** Plain-text graph I/O.

    The edge-list format is one header line ["n m"] followed by [m] lines
    ["u v"]; comments start with ['#'].  DOT export exists for eyeballing
    small instances.

    Both directions stream.  Both readers run one byte scanner over a
    window of the input: {!read_file} refills it from the channel in
    64 KiB chunks (growing it only for a line longer than the buffer),
    and {!of_edge_list} scans the whole string as a single window.  The
    scanner parses each plain ["u v"] line in place, allocating nothing
    per line, straight into endpoint scratch arrays, and finishes
    through {!Graph.of_unnormalized_pairs} — so peak memory is the
    endpoint arrays plus the CSR being built.  Any other line (hex or
    [_]-separated ids, malformed text) goes through a tokenizer with the
    same rules.  {!write_file} and
    {!write_edges_file} format through a fixed-size buffer flushed to
    the channel, never materializing the file as one string. *)

val to_edge_list : Graph.t -> string
val of_edge_list : string -> Graph.t
(** Raises [Failure] with a line-numbered message on malformed input:
    a bad header or edge line, an id that does not fit an [int] (it is
    rejected, never wrapped), an id out of [[0, n)], a self-loop, a
    header edge count that the lines do not match, or a header vertex
    count past the int32 id limit {!Graph.max_vertices} (rejected on
    line 1 before anything is allocated) or whose arrays do not fit in
    memory (also reported on line 1, not as [Out_of_memory]). *)

val to_dot : ?name:string -> ?labels:(int -> string) -> Graph.t -> string
(** Undirected DOT; [labels] overrides vertex labels (default: the id). *)

val write_file : string -> Graph.t -> unit
val read_file : string -> Graph.t
(** Same format and errors as {!of_edge_list}, read in chunks. *)

val write_edges_file :
  string -> n:int -> m:int -> ((int -> int -> unit) -> unit) -> unit
(** [write_edges_file path ~n ~m emit] writes the ["n m"] header, then
    calls [emit add]; every [add u v] appends one edge line through the
    streaming sink.  This is how generators write 10^7–10^8-edge
    instances without ever materializing a graph or a string: the caller
    promises [emit] produces exactly [m] edges (the header is not
    back-patched). *)
