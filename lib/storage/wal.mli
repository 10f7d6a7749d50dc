(** Write-ahead log.

    One metadata server's log: an append-only sequence of typed records
    living in a partition of a (possibly shared) {!Disk}. Records become
    {e durable} when the device completes the corresponding write; the
    protocols' correctness arguments rest entirely on this boundary.

    Two append flavours mirror the paper's accounting:
    - {!force} — a synchronous log write: the caller continues only when
      the [on_durable] callback fires;
    - {!append_async} — an asynchronous write: submitted immediately, the
      caller does not wait (it still consumes device bandwidth).

    Crash semantics: when the owning node crashes, writes already
    submitted to the device still complete (they are in the fabric) and
    their records become durable, but pending [on_durable] callbacks are
    suppressed — the dead node cannot observe them. Writes the node would
    have issued later are simply never submitted. A write dropped or
    rejected because the owner was fenced never becomes durable.

    The record type is a type parameter; the WAL charges
    [size r + header_bytes] to the device for each record, batching the
    records of one call into a single device request. *)

type 'r t

type stats = {
  sync_writes : int;  (** {!force} calls accepted by the device *)
  async_writes : int;  (** {!append_async} calls accepted *)
  rejected_writes : int;  (** calls rejected because the owner is fenced *)
  records_durable : int;
  bytes_durable : int;
}

val create :
  engine:Simkit.Engine.t ->
  disk:Disk.t ->
  owner:string ->
  initiator:int ->
  size:('r -> int) ->
  ?header_bytes:int ->
  ?group_commit:bool ->
  ?sink:Obs.Sink.t ->
  unit ->
  'r t
(** [size] gives each record's payload footprint in bytes; [header_bytes]
    (default 64) is added per record for framing. [sink] (default
    {!Obs.Sink.disabled}): [trace] gets each write and crash.

    [group_commit] (default [false]) turns on the classic log-manager
    optimization: at most one device request is outstanding per log, and
    every append that arrives while it is in flight is coalesced into
    the next request — one transfer makes many transactions durable at
    once. Callers' accounting is unchanged ([stats] still counts their
    force/append calls); only the device sees fewer, larger writes.
    Appends still buffered (not yet handed to the device) are lost on a
    crash, exactly like a real group-commit buffer. *)

val owner : 'r t -> string

val force : ?txn:int -> 'r t -> 'r list -> on_durable:(unit -> unit) -> unit
(** Append the records with one synchronous device write. [on_durable]
    runs when the write completes, unless the owner crashed in between or
    the write was rejected (owner fenced). Records are empty-list safe:
    the callback still goes through the device queue with one header.
    [txn] (an [Acp.Txn.owner_token], default [-1]) attributes the
    device spans ({!Obs.Span.Log_force} + queue wait) for the latency
    breakdown. *)

val append_async :
  ?txn:int -> ?on_durable:(unit -> unit) -> 'r t -> 'r list -> unit
(** Append without waiting. The records become durable when the device
    gets to them; [on_durable], if given, fires at that point under the
    same crash-suppression rule as {!force}. [txn] attributes the
    {!Obs.Span.Log_append} device spans. *)

val durable : 'r t -> 'r list
(** Durable records in append order — what a recovery scan reads. *)

val unforced : 'r t -> int
(** Records handed to the log whose device write has not completed yet
    (buffered for group commit or queued/in service at the device). A
    pure gauge for telemetry; reset to zero by {!crash}. *)

val durable_bytes : 'r t -> int
(** Byte footprint of the durable records (payload + headers). *)

val crash : 'r t -> unit
(** The owner crashed: suppress all pending [on_durable] callbacks. The
    durable contents are untouched (this is stable storage). *)

val restart : 'r t -> unit
(** The owner restarted. New appends work again; old callbacks stay
    suppressed. *)

val gc : 'r t -> keep:('r -> bool) -> unit
(** Checkpoint: drop durable records for which [keep] is [false]. Modelled
    as free, matching the paper (checkpointing happens off the critical
    path and is never charged). One pass; it copies nothing when nothing
    is dropped. *)

val stats : 'r t -> stats
