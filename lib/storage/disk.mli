(** Stable-storage device model.

    Models the paper's shared storage: a single device whose write/read
    latency is the transferred size divided by a configured bandwidth
    (the paper uses 400 KB/s, chosen for highly random shared-storage
    access patterns), rounded up to whole blocks. Requests from all
    initiators are serviced one at a time in FIFO order, so concurrent
    transactions queue behind each other at the device — the effect that
    dominates the paper's Figure 6.

    Each request carries an [initiator] (a small integer identifying the
    submitting node). {!expel} models fencing at the device: queued
    requests from the expelled initiator are discarded and later requests
    rejected, while the request currently being serviced still completes
    (it is already past the switch). *)

type t

type config = {
  bandwidth_bytes_per_s : int;  (** sustained transfer rate *)
  block_bytes : int;  (** transfer granularity; sizes round up *)
}

val default_config : config
(** 400 KB/s (the paper's parameter, with KB = 1000 bytes) and 4 KiB
    blocks. *)

val create : engine:Simkit.Engine.t -> ?sink:Obs.Sink.t -> config -> t
(** [sink] (default {!Obs.Sink.disabled}): [trace] gets each request's
    service start and end; [spans] a {!Obs.Span.Disk_queue} span per
    request from submission to service start, and a service span from
    service start to completion in the category the submitter passed —
    the raw material for the latency breakdown's queue-wait vs.
    service-time split. *)

val transfer_span : t -> bytes:int -> Simkit.Time.span
(** Pure service time for a request of [bytes] (no queueing), including
    the current {!slowdown} factor. *)

val set_slowdown : t -> float -> unit
(** Scale all subsequent service times by [factor] ([> 1] slows the
    device, [< 1] speeds it up, [1.0] restores nominal bandwidth) —
    transient bandwidth degradation for fault injection. Requests
    already in service keep their original completion time.
    @raise Invalid_argument if the factor is not positive and finite. *)

val slowdown : t -> float
(** The currently armed service-time multiplier (1.0 = nominal). *)

val submit :
  t ->
  initiator:int ->
  bytes:int ->
  ?label:string ->
  ?txn:int ->
  ?category:Obs.Span.category ->
  on_complete:(unit -> unit) ->
  unit ->
  [ `Accepted | `Rejected ]
(** Queue a request. [on_complete] runs when the transfer finishes.
    [`Rejected] (and no callback) if the initiator is expelled.
    [txn] (default [-1]) and [category] (default {!Obs.Span.Other})
    attribute the request's spans for the breakdown.
    @raise Invalid_argument if [bytes < 0]. *)

val expel : t -> initiator:int -> unit
(** Cut the initiator off the device (SCSI-3 persistent-reservation /
    fabric fencing). Its queued requests are dropped without their
    callbacks; an in-service request still completes. Idempotent. *)

val readmit : t -> initiator:int -> unit
(** Restore access for a previously expelled initiator. *)

val is_expelled : t -> initiator:int -> bool

val queue_depth : t -> int
(** Requests waiting or in service. *)

val busy_until : t -> Simkit.Time.t
(** Time at which the device drains, assuming no further submissions.
    Equals [now] when idle. *)

type stats = {
  requests_completed : int;
  bytes_transferred : int;
  requests_dropped : int;  (** discarded by {!expel} *)
  requests_rejected : int;  (** submitted while expelled *)
  busy_time : Simkit.Time.span;  (** total time spent servicing *)
}

val stats : t -> stats
