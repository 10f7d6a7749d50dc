(** Shared storage architecture (§III-A).

    The 1PC protocol assumes every MDS keeps its write-ahead log in a
    separate partition of a central storage device reachable by every
    other MDS. This module assembles exactly that: one shared {!Disk},
    one {!Wal} partition per registered owner, and a fencing mechanism
    that guarantees exclusive access to a partition before anyone reads a
    suspected-dead owner's log.

    Fencing semantics: fencing a victim expels it from the device (its
    queued writes are discarded, future writes rejected — SCSI-3
    persistent reservation / fabric fencing), and, after the configured
    fencing delay (e.g. a STONITH power cycle), the caller may read the
    victim's partition. Reading a partition whose owner is neither the
    reader nor fenced raises — that would be the split-brain bug the
    paper warns about, so the simulator treats it as a protocol error. *)

type 'r t

type config = {
  disk : Disk.config;
  fencing_delay : Simkit.Time.span;
      (** time for the fence to take effect (STONITH power-off
          confirmation or switch reconfiguration) *)
  header_bytes : int;  (** per-record framing charged by the WALs *)
  shared_device : bool;
      (** [true] (the paper's architecture): every partition lives on one
          device and all servers' writes queue together. [false]: each
          partition gets its own device of the same speed — an ablation
          isolating how much of the protocols' behaviour comes from
          device contention. Partitions remain remotely readable either
          way (the SAN reaches all of them), so fencing still works. *)
  group_commit : bool;
      (** enable the WALs' group-commit buffering (see {!Wal.create}) *)
}

val default_config : config
(** The paper's shared disk (400 KB/s), 10 ms fencing delay, 64-byte
    headers. *)

val create :
  engine:Simkit.Engine.t ->
  ?sink:Obs.Sink.t ->
  size:('r -> int) ->
  config ->
  'r t
(** [sink] (default {!Obs.Sink.disabled}) is threaded into every device
    (shared or per-partition) and every partition's log, so their trace
    entries and spans land in one place. Its [trace] gets fencing and
    rejected reads; its [journal] receives [Fence_begin]/[Fence_end]
    from {!fence} and [Mount]/[Scan_begin]/[Scan_end] from
    {!read_partition}. *)

val disk : 'r t -> Disk.t
(** The shared device. @raise Invalid_argument under
    [shared_device = false] — use {!devices}. *)

val devices : 'r t -> Disk.t list
(** Every device: a singleton when shared, one per partition
    otherwise. *)

val expel_everywhere : 'r t -> initiator:int -> unit
(** Drop the initiator's queued requests on every device (host crash:
    its in-flight I/O dies with it, wherever it was directed). *)

val readmit_everywhere : 'r t -> initiator:int -> unit

val device_for : 'r t -> Netsim.Address.t -> Disk.t
(** The device holding this owner's partition (the shared one, or its
    private one). *)

val add_partition : 'r t -> owner:Netsim.Address.t -> 'r Wal.t
(** Create the log partition for [owner]. One per owner.
    @raise Invalid_argument if the owner already has a partition. *)

val wal : 'r t -> Netsim.Address.t -> 'r Wal.t
(** The owner's own log handle.
    @raise Not_found if no partition was registered. *)

val fence : 'r t -> victim:Netsim.Address.t -> on_fenced:(unit -> unit) -> unit
(** Expel [victim] from the device immediately and run [on_fenced] after
    the fencing delay. Idempotent while already fenced (the callback still
    runs after the delay). While fencing is unavailable
    ({!set_fencing_available}) the request is dropped silently and
    [on_fenced] never runs. *)

val set_fencing_available : 'r t -> bool -> unit
(** Fault injection: [false] models an unreachable fencing controller
    (fabric management outage) — {!fence} requests are lost until
    availability is restored. Already-established fences and partition
    reads are unaffected; this only blocks {e new} fence operations,
    which is exactly the dependency logless recovery removes. *)

val unfence : 'r t -> Netsim.Address.t -> unit
(** Readmit a node (after it has properly rebooted and re-joined). *)

val is_fenced : 'r t -> Netsim.Address.t -> bool

val read_partition :
  'r t ->
  reader:Netsim.Address.t ->
  target:Netsim.Address.t ->
  on_read:('r list -> unit) ->
  unit
(** Read the durable records of [target]'s partition. Charged to the
    device as one read of the partition's durable size, attributed to
    [reader]. Requires [reader = target] or [target] fenced.
    @raise Invalid_argument on an unfenced foreign read (split-brain
    hazard — a protocol bug by construction). *)
