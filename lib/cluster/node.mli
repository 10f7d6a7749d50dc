(** One metadata server.

    A node bundles the per-server moving parts — WAL partition, lock
    manager, metadata store, failure detector, heartbeat loop and the
    protocol engine(s) — and owns their lifecycle across crashes.

    A node whose primary protocol is 1PC also hosts a PrN fallback
    engine: the paper scopes 1PC to two-server operations, so wider
    plans (RENAMEs) run through classic 2PC on the same server. Incoming
    messages are routed to whichever engine owns the transaction.

    Crash semantics: {!crash} drops everything volatile — cache, locks,
    protocol state, timers (closures from the old incarnation are
    neutralized by an epoch check) — while the WAL partition, the durable
    store image, and the hardened-transaction set persist. {!restart}
    builds a fresh incarnation and runs protocol recovery before the
    heartbeat loop resumes. *)

type services = {
  engine : Simkit.Engine.t;
  sink : Obs.Sink.t;  (** the collectors every layer shares *)
  network : Msg.t Netsim.Network.t;
  san : Acp.Log_record.t Storage.San.t;
  ledger : Metrics.Ledger.t;
  config : Config.t;
  client_reply : Acp.Txn.id -> Acp.Txn.outcome -> unit;
  stonith : Netsim.Address.t -> unit;
      (** power-cycle a fenced peer (crash now, restart per policy) *)
  lock_hold : Metrics.Histogram.t;
      (** every coordinator's lock hold, booked at its first release *)
}

type t

val create : services -> server:int -> root:Mds.Update.ino option -> t
(** Registers the network endpoint and the SAN partition; [root] installs
    the filesystem root on this server. The node is {e not} serving yet —
    call {!boot} once the whole cluster exists (the failure detector
    needs every peer registered). *)

val boot : t -> unit
(** First start: instantiate protocol engines, start heartbeats. *)

val address : t -> Netsim.Address.t
val server : t -> int
val is_up : t -> bool

val is_serving : t -> bool
(** Up {e and} past recovery: a restarted node first reads its log
    partition back (a charged disk read) and resolves in-doubt
    transactions before accepting new work or protocol traffic. *)

val store : t -> Mds.Store.t
val locks : t -> Locks.Lock_manager.t
val wal : t -> Acp.Log_record.t Storage.Wal.t

val submit : t -> Acp.Txn.t -> unit
(** Run a distributed transaction with this node as coordinator. Routes
    to the primary engine, or to the PrN fallback when the primary
    cannot take the plan (1PC with more than one worker — counted under
    ledger key ["txn.fallback"]).
    @raise Invalid_argument if the node is down (callers check
    {!is_up}). *)

val run_local : t -> Acp.Txn.t -> unit
(** Commit a single-server plan without any ACP: lock, update, force one
    [Updates]+[Committed] write, reply. The no-ACP baseline, run by
    {!Acp.Common.commit_local} on this incarnation's context. Call it on
    a serving node only ({!is_serving}): the context's [harden] takes a
    not-yet-serving node's hardening for a recovery replay.
    @raise Invalid_argument if the node is down. *)

val run_read :
  t ->
  owner:int ->
  dir:Mds.Update.ino ->
  read:(Mds.State.t -> 'a) ->
  on_done:(('a, string) result -> unit) ->
  unit
(** Serve a namespace read: take the directory lock in {e shared} mode
    (concurrent reads proceed together; writers exclude them — the POSIX
    consistent-view semantics §VI mentions), charge one object-method
    latency, evaluate [read] against the volatile state, release, reply.
    [owner] must be a fresh lock-owner token. Reads never touch the log
    or the network. *)

val crash : t -> unit
(** Power off. Idempotent. *)

val restart : ?on_recovered:(unit -> unit) -> t -> unit
(** Power on after a crash: rejoin the SAN (unfence), recover from the
    log, resume heartbeats. Idempotent if already up. [on_recovered]
    fires once recovery has finished and the node is serving again —
    only then is the durable log fully scanned, so decisions that
    presume from its absence (the orphan sweep) must wait for it. It
    never fires if the node crashes again mid-recovery or the scan was
    fenced out; the next power-on supplies a fresh callback. *)

val outstanding : t -> int
(** Transactions the protocol engines still track (0 when down). *)

val suspect_count : t -> int
(** Peers this node's failure detector currently suspects (0 when
    down). A telemetry gauge. *)

val owns : t -> Acp.Txn.id -> bool
(** Either engine holds state for the transaction (used by the cluster
    to sweep client requests orphaned by a crash). *)
