(** Fixed-capacity bitsets over the universe [0 .. capacity-1].

    Used throughout for independent sets, visited marks and neighborhood
    masks: membership tests and set algebra over dense integer universes
    are the inner loop of every graph algorithm in this repository. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [0..n-1]. *)

val capacity : t -> int

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit

val cardinal : t -> int
(** Population count; O(capacity/64). *)

val is_empty : t -> bool

val clear : t -> unit
(** Remove every element. *)

val fill : t -> unit
(** Add every element of the universe. Word-wise (O(capacity/62)); never
    sets stray bits above the capacity, so [equal]/[subset]/[cardinal]
    stay exact on filled sets. *)

val copy : t -> t

val equal : t -> t -> bool
(** Equality as sets; capacities must match. *)

val union_into : t -> t -> unit
(** [union_into dst src] sets [dst := dst ∪ src]. *)

val inter_into : t -> t -> unit
(** [dst := dst ∩ src]. *)

val diff_into : t -> t -> unit
(** [dst := dst \ src]. *)

val disjoint : t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is [true] iff [a ⊆ b]. *)

val iter : (int -> unit) -> t -> unit
(** Iterate members in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val to_list : t -> int list
(** Members in increasing order. *)

val of_list : int -> int list -> t
(** [of_list n elts] builds a set over [0..n-1]. *)

val of_mask : Bytes.t -> t
(** [of_mask m] is the set, over [0 .. Bytes.length m - 1], of the
    positions where [m] holds a non-zero byte; built a word at a time. *)

val choose_opt : t -> int option
(** Smallest member, if any. *)

val pp : Format.formatter -> t -> unit
