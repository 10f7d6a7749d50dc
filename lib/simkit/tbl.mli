(** Monomorphic hash tables for the simulator's hot paths.

    Stdlib's polymorphic [Hashtbl] compares keys with the generic
    structural equality ([compare_val]) on every probe. These instances
    compare keys with a monomorphic [equal] instead. Their [hash] is
    {!Hashtbl.hash}, and the table code is Stdlib's own, so for the same
    sequence of operations every bucket holds the same keys in the same
    order as a [Hashtbl.create]d table would: [iter], [fold] and every
    other order-sensitive read return exactly what the polymorphic
    table returns. Swapping one for the other cannot move a simulated
    event. *)

module Int : Hashtbl.S with type key = int

module Pair : Hashtbl.S with type key = int * int
(** Keyed by two ints, e.g. a transaction's [(origin, seq)]. *)

module String : Hashtbl.S with type key = string
