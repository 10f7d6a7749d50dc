(** Cluster interconnect model.

    The network delivers opaque payloads between registered endpoints with
    one fixed one-way latency, optional random loss and duplication, link
    partitions, and per-endpoint up/down state (a crashed node neither
    sends nor receives).

    Delivery is an engine event: the destination's handler runs at
    [send time + latency]. With one latency for every message, per
    ordered pair of endpoints delivery is FIFO by the engine's
    same-instant order, matching a TCP-like transport: a message never
    overtakes an earlier message on the same link. Messages to a down or
    partitioned destination are silently dropped (counted in {!stats}) —
    exactly the behaviour the commit protocols must tolerate. *)

type 'msg envelope = {
  src : Address.t;
  sent_at : Simkit.Time.t;
  payload : 'msg;
}
(** What a handler receives. A message has one envelope, built once and
    handed to every copy of it — each destination of a {!multicast} and
    each duplicate — so a handler must not expect a fresh value per
    delivery. It carries no destination: a handler is registered for
    one address. *)

type config = {
  latency : Simkit.Time.span;  (** fixed one-way latency *)
  drop_probability : float;  (** independent loss per message, in [0, 1] *)
  duplicate_probability : float;
      (** probability a delivered message arrives twice (back to back on
          the FIFO link) — retransmission artifacts the protocols must
          deduplicate *)
}

val default_config : config
(** 100 µs latency — the paper's simulation parameter — no loss, no
    duplication. *)

type 'msg t

module Meter = Obs.Meter
(** The message-conservation ledger the network keeps in its sink's
    [meter]. *)

type stats = {
  sent : int;  (** accepted for transmission *)
  delivered : int;  (** including duplicate deliveries *)
  duplicated : int;
  dropped_loss : int;  (** lost to [drop_probability] *)
  dropped_down : int;  (** destination (or source) down at send/delivery *)
  dropped_partition : int;  (** link cut by a partition *)
}

val create :
  engine:Simkit.Engine.t ->
  rng:Simkit.Rng.t ->
  ?sink:Obs.Sink.t ->
  ?span_of:('msg -> (string * int * bool) option) ->
  ?tag_of:('msg -> int) ->
  config ->
  'msg t
(** [sink] (default {!Obs.Sink.disabled}) takes what the network
    observes: [trace] gets deliveries and drops; [spans] one
    {!Obs.Span.Network} transit span per accepted message copy, from
    send to scheduled delivery; [journal] one cluster-wide [Heal] entry
    whenever {!heal} or {!heal_pair} actually removes a cut; the
    flight recorder one record per delivered message; and [meter] the
    per-tag conservation ledger. [span_of] maps a payload to
    [(name, txn token, baseline)] — [baseline] marks messages the
    paper's cost model charges to the baseline rather than the commit
    protocol; [None] (and the default) records nothing for that
    payload. [tag_of] maps a payload to its meter tag in
    [0 .. Meter.tags - 1]. Each is consulted only while its collector
    records, so it may allocate freely.
    @raise Invalid_argument if a probability in [config] is outside
    [0, 1] or [nan]. *)

val register : 'msg t -> name:string -> ('msg envelope -> unit) -> Address.t
(** Register an endpoint with its delivery handler. Handlers run from
    engine events with the clock at the delivery instant. *)

val endpoints : 'msg t -> Address.t list
(** All registered endpoints, in registration order. *)

val address_at : 'msg t -> int -> Address.t
(** [address_at t i] is the [i]-th registered endpoint (from 0), in O(1).
    @raise Invalid_argument if fewer than [i + 1] endpoints exist. *)

val send : 'msg t -> src:Address.t -> dst:Address.t -> 'msg -> unit
(** Queue a message. Loss, partitions and down-state are evaluated at both
    send time and delivery time (a node that crashes while a message is in
    flight does not receive it). Self-sends are delivered with the same
    latency as any other message. *)

val multicast :
  'msg t -> src:Address.t -> dsts:Address.t array -> 'msg -> unit
(** [multicast t ~src ~dsts m] behaves as
    [Array.iter (fun dst -> send t ~src ~dst m) dsts]: each destination
    is admitted in order with the same checks and draws, and books the
    same stats, meter notes and transit spans. The copies it admits —
    a duplicate right behind its original — share one
    {!Simkit.Engine.schedule_batch} and one envelope, so a fan-out
    costs one engine handle, one closure and one envelope, not one of
    each per copy; each copy is still its own dispatched event.

    When every destination is admitted exactly once (no loss, refusal
    or duplicate), the copies are delivered straight from [dsts]: the
    array is read until the last copy lands, so the caller must not
    change it before then. A fan-out that lost or duplicated a copy
    records the admitted destinations itself.
    @raise Invalid_argument if [src] or a destination is foreign, before
    anything is sent. *)

val set_up : 'msg t -> Address.t -> unit
val set_down : 'msg t -> Address.t -> unit
(** Mark an endpoint crashed: it no longer receives, and [send] from it is
    dropped. In-flight messages *to* it are dropped at delivery time;
    in-flight messages *from* it (sent before the crash) still arrive, as
    on a real network. *)

val is_up : 'msg t -> Address.t -> bool

val partition : 'msg t -> Address.t list -> Address.t list -> unit
(** [partition t left right] cuts every link between a node in [left] and
    a node in [right], both directions. Cumulative with previous cuts. *)

val heal : 'msg t -> unit
(** Remove all partitions. *)

val heal_pair : 'msg t -> Address.t -> Address.t -> unit
(** Remove the cut between two specific nodes, if any. *)

val reachable : 'msg t -> Address.t -> Address.t -> bool
(** No partition between the two nodes (ignores up/down state). *)

(** {2 Runtime fault knobs}

    Loss and duplication rates start at the {!config} values and can be
    re-armed while the simulation runs — the vocabulary of transient
    fault bursts (a flaky switch, a retransmission storm). They apply to
    messages sent after the change; messages already in flight keep the
    fate they were dealt at send time. *)

val set_drop_probability : 'msg t -> float -> unit
(** @raise Invalid_argument outside [0, 1] or [nan]. *)

val set_duplicate_probability : 'msg t -> float -> unit
(** @raise Invalid_argument outside [0, 1] or [nan]. *)

val drop_probability : 'msg t -> float
val duplicate_probability : 'msg t -> float
(** The currently armed rates. *)

val stats : 'msg t -> stats

val in_flight : 'msg t -> int
(** Messages accepted but not yet delivered or dropped. *)
