(** Transaction identity and outcomes.

    A transaction is one distributed namespace operation in flight. Its
    id is the coordinating server's slot plus a sequence number. *)

type id = { origin : int;  (** coordinator's server slot *) seq : int }
(** The cluster mints [seq] from one counter for every origin, reads
    included, starting at 0: two distinct transactions of one cluster
    never share a [seq], so [seq] alone is a key, and a dense one. A
    server's hardened set is a bitset indexed by it. L1PC's owner-scoped
    recovery messages carry no id ({!Wire.txn}). *)

type outcome =
  | Committed
  | Aborted of string  (** human-readable reason *)

type t = { id : id; plan : Mds.Plan.t }
(** What the coordinator holds when a transaction starts. *)

val id_equal : id -> id -> bool
val id_compare : id -> id -> int

val key : id -> int * int
(** The id as a {!Simkit.Tbl.Pair} key: the protocols' per-transaction
    tables and the cluster's reply routing are keyed by it. *)

val owner_token : id -> int
(** Dense injective encoding of an id for use as a lock-manager owner.
    Supports up to 2{^20} servers and 2{^42} transactions per server. *)

val pp_id : Format.formatter -> id -> unit
val pp_outcome : Format.formatter -> outcome -> unit
val is_committed : outcome -> bool
