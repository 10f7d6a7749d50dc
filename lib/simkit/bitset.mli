(** Growable sets of non-negative ints, one bit per element.

    For sets whose elements come from a dense counter: the cost is one
    bit per value the counter has minted up to the largest member, not a
    table entry per member. The set is never iterated. *)

type t

val create : int -> t
(** An empty set with room for elements below the given size; it grows
    past that on demand. *)

val mem : t -> int -> bool
(** [false] for a negative int and for anything past the end. *)

val add : t -> int -> unit
(** Idempotent. @raise Invalid_argument on a negative int. *)
