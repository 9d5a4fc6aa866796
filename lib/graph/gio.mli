(** Plain-text graph I/O.

    The edge-list format is one header line ["n m"] followed by [m] lines
    ["u v"]; comments start with ['#'].  DOT export exists for eyeballing
    small instances.

    {b Reading.}  Both readers parse the header on the calling domain,
    then cut the body into byte ranges and parse one range per domain.
    A range owns the lines whose first byte lies in it, whichever range
    they end in.  Each domain streams its range through a byte scanner
    over a window of the input — {!read_file} gives each domain its own
    channel, refilled in 64 KiB chunks and grown only for a line longer
    than the buffer; {!of_edge_list} scans the string in place.  The
    scanner parses each plain ["u v"] line with no allocation, straight
    into that domain's int32 endpoint buffer ({!Graph.Pairs}); the
    commonest form, two short ids, one space and a newline, in a single
    pass over its bytes.  Any other line (hex or [_]-separated ids,
    malformed text) goes through a tokenizer with the same rules.  The
    buffers then go, in file order, to {!Graph.of_pair_chunks}, which
    fills the CSR's int32 store directly: peak memory is the endpoint
    buffers plus the CSR.  The
    graph, and every error message and line number, are the same for
    every domain count: a range's first bad line is reported at its
    line within the range plus the line counts of the ranges before it,
    and the first range in file order wins.

    {b Domains.}  {!read_file} uses a second domain once the body
    reaches 1.5 MiB (1 572 864 bytes) and the host has a second core
    (through {!Ps_util.Parallel.effective_domains}); input it cannot
    measure (a pipe) is read by one.  {!of_edge_list} uses one domain
    unless told otherwise: it parses the inline payloads of the served
    protocol, whose workers already hold the cores.  The [?domains]
    arguments exist for tests.

    {b Writing.}  Every text writer, here and in {!Ps_hypergraph.Hio},
    goes through {!Writer}, which writes decimal digits straight into a
    byte window.  {!write_file} and {!write_edges_file} drain a 64 KiB
    window to the channel, never materializing the file as one string,
    and allocate nothing per line. *)

(** Decimal text output into a byte window: the one digit writer behind
    every edge-list and hypergraph writer. *)
module Writer : sig
  type t

  val int : t -> int -> unit
  (** [int w v] appends the text of [string_of_int v] without making
      that string: a non-negative [v] is written digit by digit into the
      window. *)

  val char : t -> char -> unit

  val to_channel : out_channel -> (t -> unit) -> unit
  (** [to_channel oc f] runs [f] on a writer whose 64 KiB window is
      written to [oc] whenever it fills, and once more after [f]
      returns. *)

  val to_string : (t -> unit) -> string
  (** [to_string f] is the text [f] writes, gathered in a window of
      1 KiB that doubles whenever it fills. *)
end

val to_edge_list : Graph.t -> string
val of_edge_list : ?domains:int -> string -> Graph.t
(** Raises [Failure] with a line-numbered message on malformed input:
    a bad header or edge line, an id that does not fit an [int] (it is
    rejected, never wrapped), an id out of [[0, n)], a self-loop, a
    header edge count that the lines do not match, or a header vertex
    count past the int32 id limit {!Graph.max_vertices} (rejected on
    line 1 before anything is allocated) or whose arrays do not fit in
    memory (also reported on line 1, not as [Out_of_memory]).
    [domains] (default 1) as for {!read_file}. *)

val to_dot : ?name:string -> ?labels:(int -> string) -> Graph.t -> string
(** Undirected DOT; [labels] overrides vertex labels (default: the id). *)

val write_file : string -> Graph.t -> unit
val read_file : ?domains:int -> string -> Graph.t
(** Same format and errors as {!of_edge_list}, read in chunks.
    [domains] (default 0) is the number of body ranges: [0] picks it
    from the body's size and the host's cores, any other value is used
    as given, and either way it is at most the body's byte count.
    Under [PSLOCAL_TRACE] the read is a [gio.read] span with fields
    [gio.bytes] (the input's length) and [gio.domains_effective]. *)

val write_edges_file :
  string -> n:int -> m:int -> ((int -> int -> unit) -> unit) -> unit
(** [write_edges_file path ~n ~m emit] writes the ["n m"] header, then
    calls [emit add]; every [add u v] appends one edge line through the
    streaming sink.  This is how generators write 10^7–10^8-edge
    instances without ever materializing a graph or a string: the caller
    promises [emit] produces exactly [m] edges (the header is not
    back-patched). *)
