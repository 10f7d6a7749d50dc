(** Flight recorder: a bounded ring of the most recent observable events.

    The recorder keeps the last [capacity] records — dispatched engine
    events, delivered network messages, journal entries and gauge
    samples — in flat, preallocated integer arrays: recording one event
    is a few array stores and never boxes a payload. Like the other
    collectors it is passive (no scheduling, no clock reads into
    simulation state, no randomness), so an enabled recorder leaves
    every simulated metric bit-identical — guarded by the golden tests.
    The disabled path of every entry point is one load and one branch.

    {!Sink} feeds it: the engine observer it installs records each
    dispatch, and its journal and sampler paths mirror journal entries
    and gauge rows. The network records each delivery through
    {!record_delivery}. When a run fails, {!Autopsy} dumps the ring's
    tail — the last things the system did before the verdict — into
    the incident bundle. *)

type t

(** What one ring slot describes. Field meaning depends on the kind:
    - [Dispatch]: [a] = {!Simkit.Label.id} of the event's label;
    - [Delivery]: [a] = source node index, [b] = destination index;
    - [Journal]: [a] = {!journal_tag} of the entry's kind, [b] = node,
      [c] = the kind's integer payload (peer, victim, target, origin or
      schedule index; [0] when the kind has none);
    - [Gauge]: [a] = gauge column index, [b] = sampled value. *)
type kind = Dispatch | Delivery | Journal | Gauge

type record = {
  time : Simkit.Time.t;
  kind : kind;
  a : int;
  b : int;
  c : int;
}

val create : ?capacity:int -> unit -> t
(** A recording ring holding the last [capacity] (default 1024) records.
    @raise Invalid_argument if [capacity] is not positive. *)

val disabled : unit -> t
(** A recorder that drops everything in O(1). *)

val is_recording : t -> bool

val capacity : t -> int

val recorded : t -> int
(** Total records ever pushed; the ring retains the last
    [min (recorded t) (capacity t)] of them. *)

val length : t -> int
(** Records currently retained. *)

(** {1 Recording}

    Each is a no-op, one load and one branch, when disabled. *)

val record_dispatch : t -> time:Simkit.Time.t -> Simkit.Label.t -> unit
(** One dispatched event, recorded before its callback runs — so after
    a crash the last entry names the event that was executing. *)

val record_delivery : t -> time:Simkit.Time.t -> src:int -> dst:int -> unit
(** One delivered message, by source and destination node index. *)

val record_journal :
  t -> time:Simkit.Time.t -> node:int -> Journal.kind -> unit
(** One journal entry. *)

val record_gauges : t -> time:Simkit.Time.t -> int array -> unit
(** One gauge row, one record per column. *)

val iter_tail : (record -> unit) -> t -> unit
(** The retained records, oldest first. *)

val journal_tag : Journal.kind -> int
(** Stable small integer for a journal kind, the [a] field of a
    [Journal] record. *)

val journal_tag_name : int -> string
(** Inverse rendering of {!journal_tag} ({!Journal.event_name} of the
    kind), or ["?"] for an unknown tag. *)

val to_file : ?gauge_columns:string array -> string -> t -> unit
(** Write the tail as JSONL, oldest first, creating parent directories
    as needed: one self-describing JSON object per record. Dispatch
    labels are rendered through {!Simkit.Label.of_id}; gauge column
    indices through [gauge_columns] when given. *)
