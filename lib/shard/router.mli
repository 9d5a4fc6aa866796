(** The front-end acceptor: one public socket, connections sharded
    round-robin across the solver children by byte splicing.

    The router is deliberately codec-blind — it parses nothing it
    relays, so JSON lines and binary frames (and a mixed population of
    clients) flow through the same two pump threads per connection.
    All protocol work (framing, quotas, admission, solving) happens in
    the shard a connection lands on; connection affinity means a
    client's pipelined requests keep their single-shard ordering
    semantics.

    Failover: a connect refused by the chosen shard (typically the
    crash-to-restart window) falls through to the next, so a dying
    shard drops only its established connections, never new arrivals. *)

type t

type stats = {
  accepted : int;   (** connections accepted at the front socket *)
  active : int;     (** currently spliced connections *)
  failovers : int;  (** shard connect attempts that failed over *)
  unrouted : int;   (** connections dropped with every shard refusing *)
}

val create : shard_sockets:string array -> t

val accept_loop :
  t -> listen_fd:Unix.file_descr -> should_stop:(unit -> bool) -> unit
(** Accept until [should_stop]; each connection gets a relay thread
    pair.  Established relays keep running after this returns — see
    {!await_drained}. *)

val await_drained : ?timeout_s:float -> t -> bool
(** Block until every active relay has finished (clients have received
    everything the draining shards wrote), or [false] on timeout
    (default 30 s). *)

val stats : t -> stats

(**/**)

val handle : t -> Unix.file_descr -> unit
(** Route one already-accepted client fd (exposed for tests). *)
