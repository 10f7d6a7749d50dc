(** Named counters.

    A ledger is a flat registry of integer counters identified by string
    keys (["msg.prepare"], ["log.sync"], ...). Protocol code bumps
    counters unconditionally; experiments snapshot and difference ledgers
    to attribute costs to phases of a run. *)

type t

val create : unit -> t
val incr : t -> string -> unit
val add : t -> string -> int -> unit
val get : t -> string -> int
(** 0 for a never-bumped key. *)

type counter
(** One key of one ledger, bound once for a hot path: the key is looked
    up on the first {!bump} only (and again after a {!reset}), so later
    bumps neither hash nor compare a string. *)

val counter : t -> string -> counter
(** Bind a key. Creating a counter does not touch the ledger: the key
    appears in {!keys} only once it is bumped. *)

val bump : counter -> unit
(** [bump (counter t key)] is [incr t key]. *)

val keys : t -> string list
(** All keys ever bumped, sorted. *)

val snapshot : t -> (string * int) list
(** Sorted association list of all counters. *)

val diff : after:t -> before:(string * int) list -> (string * int) list
(** Per-key difference between a live ledger and an earlier {!snapshot}.
    Keys absent from [before] count from zero. *)

val reset : t -> unit
val pp : Format.formatter -> t -> unit
