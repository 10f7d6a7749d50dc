(** Flight recorder: a bounded ring of the most recent observable events.

    The recorder keeps the last [capacity] records — dispatched engine
    events, delivered network messages, journal entries and gauge
    samples — in flat, preallocated integer arrays: recording one event
    is a few array stores and never boxes a payload. Like the other
    collectors it is passive (no scheduling, no clock reads into
    simulation state, no randomness), so an enabled recorder leaves
    every simulated metric bit-identical — guarded by the golden tests.
    The disabled path of every entry point is one load and one branch.

    Wiring follows the observer idiom: [attach] installs the engine's
    dispatch tap ({!Simkit.Engine.set_dispatch_tap}), [tap_journal] and
    [tap_timeseries] mirror those collectors' appends, and the network
    calls {!record_delivery} from its delivery path. When a run fails,
    {!Autopsy} dumps the ring's tail — the last things the system did
    before the verdict — into the incident bundle. *)

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
(** A recorder that drops everything in O(1); [attach] and the taps
    install nothing. *)

val is_recording : t -> bool
(** Guard for call sites (the network's delivery path) so a disabled
    recorder costs one load and one branch. *)

val capacity : t -> int

val recorded : t -> int
(** Total records ever pushed; the ring retains the last
    [min (recorded t) (capacity t)] of them. *)

val length : t -> int
(** Records currently retained. *)

val attach : t -> Simkit.Engine.t -> unit
(** Install the engine dispatch tap so every dispatched event lands in
    the ring. No-op when disabled. *)

val tap_journal : t -> Journal.t -> unit
(** Mirror every journal append into the ring (via {!Journal.set_tap}).
    No-op when either side is disabled. *)

val tap_timeseries : t -> Timeseries.t -> unit
(** Mirror every materialized gauge row into the ring, one record per
    column (via {!Timeseries.set_tap}). Call before
    {!Timeseries.attach} to capture the initial row. No-op when either
    side is disabled. *)

val record_delivery : t -> time:Simkit.Time.t -> src:int -> dst:int -> unit
(** Record one delivered message. Called by the network on its delivery
    path; a no-op when disabled. *)

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
