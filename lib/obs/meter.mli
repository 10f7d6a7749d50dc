(** Message-conservation ledger: per-tag counters over every message
    copy a network accepts, classified at the delivery event. The
    books balance exactly per tag at any instant:

    {[ sent = delivered + dup_delivered + dropped + in_flight ]}

    [in_flight] is maintained at the schedule / delivery-callback
    boundaries while the other right-hand terms come from the
    classification branches, so a delivery-side code path that forgets
    to classify breaks the law instead of drifting silently. Send-time
    refusals (source down, partitioned link, random loss) are counted
    as [rejected] and never enter the law. The meter is passive: no
    allocation, no engine interaction, one flag load and one branch per
    send when disabled.

    {!Netsim.Network} keeps the books (it re-exports this module as
    [Network.Meter]); the payload-to-tag map is its [tag_of]. *)

type t

val create : tags:int -> t
(** Counters for tags [0 .. tags-1].
    @raise Invalid_argument if [tags] is not positive. *)

val disabled : unit -> t
val is_recording : t -> bool

val tags : t -> int

val sent : t -> int -> int
(** Copies accepted for transmission (a duplicated message counts
    twice — the fabric really carries two copies). *)

val delivered : t -> int -> int
(** Primary copies handed to the destination endpoint. *)

val dup_delivered : t -> int -> int
(** Duplicate copies handed to the destination endpoint (the
    receiver's dedup logic suppresses them above this layer). *)

val dropped : t -> int -> int
(** Copies dropped in flight: destination down or link partitioned at
    the delivery instant. *)

val rejected : t -> int -> int
(** Messages refused at send time, before entering the fabric. *)

val in_flight : t -> int -> int
(** Copies accepted but not yet classified at a delivery event. *)

val imbalance : t -> int -> int
(** [sent - (delivered + dup_delivered + dropped + in_flight)] for
    one tag; [0] iff the tag's books balance. *)

val check : t -> (int * int) list
(** All [(tag, imbalance)] pairs with a nonzero imbalance — the empty
    list is the conservation law holding exactly (tolerance 0). *)

(** {1 Bookkeeping}

    The network's notes, one per classification branch. A negative tag
    is the network's "meter off": it computes tags only while the meter
    records, so the notes need no enabled check. *)

val note_rejected : t -> int -> unit
val note_sent : t -> int -> unit
val note_arrival : t -> int -> unit
val note_dropped : t -> int -> unit
val note_delivered : t -> int -> dup:bool -> unit
