(** Cluster assembly and experiment surface.

    Builds the whole simulated system of the paper's §IV: a deterministic
    event engine, the interconnect, the shared SAN with one log partition
    per server, [servers] metadata nodes (each with lock manager, store
    and protocol engines), a placement table and an operation planner.
    Exposes the client-side API (submit a namespace operation, get the
    outcome), fault injection, quiescence helpers and measurement
    accessors. This is what examples, tests and benchmarks drive. *)

type t

val create : Config.t -> t
(** Build and boot the cluster. The filesystem root lives on server 0.
    @raise Invalid_argument on an invalid configuration. *)

(** {1 Accessors} *)

val config : t -> Config.t
val engine : t -> Simkit.Engine.t
val sink : t -> Obs.Sink.t
(** The collectors the configuration's observation knobs switch on,
    shared by every layer; the rest are disabled:
    - [trace] with [record_trace];
    - [spans] with [record_spans], for the latency breakdown;
    - [journal] with [record_journal]: crashes, suspicions, fencing,
      scans, orphan resolution, heals, injected faults — feed it to
      {!Obs.Mttr.windows};
    - [sampler] with [sample_period]: per-node and cluster gauges;
    - [prof] with [record_prof]: call {!Obs.Prof.report} after the run;
    - [recorder] with [recorder_size]: the last dispatches, deliveries,
      journal entries and gauge rows, whose tail the autopsy dumps;
    - [coverage], sized for {!Acp.Edges.count}, and [meter], per wire
      tag with heartbeats on tag [Acp.Codec.tag_count], with
      [record_coverage]. *)

val obs : t -> Obs.Tracer.t
val prof : t -> Obs.Prof.t
val coverage : t -> Obs.Coverage.t

val meter : t -> Netsim.Network.Meter.t
(** The sink's [spans], [prof], [coverage] and [meter], under the names
    [benchmark/] calls; the library reads them off {!sink}. *)

val ledger : t -> Metrics.Ledger.t
val network : t -> Msg.t Netsim.Network.t
val san : t -> Acp.Log_record.t Storage.San.t
val placement : t -> Mds.Placement.t
val root : t -> Mds.Update.ino
val node : t -> int -> Node.t
val nodes : t -> Node.t array
val now : t -> Simkit.Time.t

(** {1 Namespace bootstrap} *)

val add_directory :
  t -> parent:Mds.Update.ino -> name:string -> ?server:int -> unit ->
  Mds.Update.ino
(** Install a directory directly in both durable and volatile state (on
    [server] or wherever placement puts it) — test/bench setup that
    bypasses the transaction machinery. Only sound before the simulation
    starts injecting failures. *)

(** {1 Client API} *)

val submit : t -> Mds.Op.t -> on_done:(Acp.Txn.outcome -> unit) -> unit
(** Plan and run a namespace operation. The parent directory's owner
    coordinates; single-server plans commit locally without an ACP.
    [on_done] fires exactly once, possibly only after crashed servers
    recover. Requests rejected before becoming a transaction (planning
    failure, coordinator down) invoke [on_done] synchronously. *)

val set_ingress_probe : t -> (unit -> int * int) -> unit
(** Install the [(queue length, in flight)] depth probe the
    ["ingress.queue"]/["ingress.inflight"] time-series gauges read.
    Called by {!Ingress.create}; the gauges report zero until then. *)

val plan : t -> Mds.Op.t -> (Mds.Plan.t, string) result
(** Plan an operation without running it (allocates/places new inodes
    as a side effect, exactly like {!submit} would). Building block for
    {!Batching}. *)

val submit_plan : t -> Mds.Plan.t -> on_done:(Acp.Txn.outcome -> unit) -> unit
(** Run an already-planned (possibly merged) transaction. *)

val lookup :
  t ->
  dir:Mds.Update.ino ->
  name:string ->
  on_done:((Mds.Update.ino option, string) result -> unit) ->
  unit
(** Resolve a name under a shared directory lock on the owning server.
    Purely local: no log writes, no protocol messages. Errors are
    routing/liveness problems (unknown or down directory server, lock
    timeout); an absent name is [Ok None]. *)

val readdir :
  t ->
  dir:Mds.Update.ino ->
  on_done:(((string * Mds.Update.ino) list, string) result -> unit) ->
  unit
(** List a directory under a shared lock, sorted by name. *)

(** {1 Fault injection} *)

val crash : t -> int -> unit
(** Crash a server now. With [auto_restart] it reboots after
    [restart_delay]. *)

val restart : t -> int -> unit
(** Restart a crashed server now (recovery runs immediately). No-op on a
    server that is already up — restarting implies a down->up
    transition, and only that transition may sweep orphaned client
    requests. *)

val partition : t -> int list -> int list -> unit
(** Cut the network between two server groups. *)

val heal : t -> unit

val heal_pair : t -> int -> int -> unit
(** Remove the cut between two specific servers, if any (finer-grained
    than {!heal} — the rest of a partition stays in force). *)

val set_drop_probability : t -> float -> unit
val set_duplicate_probability : t -> float -> unit
(** Re-arm the interconnect's loss/duplication rates mid-run (transient
    fault bursts). See {!Netsim.Network.set_drop_probability}. *)

val set_disk_slowdown : t -> float -> unit
(** Scale every log device's service time by the factor ([> 1] slows,
    [1.0] restores nominal bandwidth) — transient shared-storage
    degradation. *)

val set_fencing_available : t -> bool -> unit
(** Toggle the SAN's fencing controller ({!Storage.San.set_fencing_available});
    [false] silently drops new fence requests — the availability fault
    the L1PC differential test injects. *)

(** {1 Running} *)

val run_for : t -> Simkit.Time.span -> unit
(** Advance simulated time by the span, dispatching everything due. *)

type settle_outcome = Quiescent | Deadline_exceeded | Stuck

val settle : ?deadline:Simkit.Time.span -> t -> settle_outcome
(** Step the engine until the system is fully quiescent: every client
    reply delivered, no protocol state outstanding on any live node, no
    message in flight, the shared disk idle. [deadline] (default 10
    simulated minutes) bounds the wait; [Stuck] means the event queue
    drained without reaching quiescence (something is waiting on a node
    that will never return). *)

type node_diagnostics = {
  server : int;
  node_up : bool;
  node_serving : bool;  (** up {e and} past recovery *)
  outstanding : int;  (** transactions the protocol engines still track *)
  wal_records : int;  (** durable, un-checkpointed log records *)
}

type diagnostics = {
  pending_replies : int;
  pending_reads : int;
  in_flight_messages : int;
  engine_events : int;  (** scheduled, not-yet-dispatched events *)
  disk_queue_depths : int list;  (** one entry per log device *)
  per_node : node_diagnostics list;
}

val settle_diagnostics : t -> diagnostics
(** Snapshot of everything {!settle} waits on — what is still
    outstanding and where. The post-mortem for a [Stuck] or
    [Deadline_exceeded] verdict: whichever component is non-zero names
    the party that never let the system quiesce. *)

val pp_diagnostics : Format.formatter -> diagnostics -> unit

(** {1 Measurement} *)

val check_invariants : t -> Mds.Invariant.violation list
(** Global namespace invariants over the durable images (§II). *)

val txn_counts : t -> int * int
(** (committed, aborted) outcomes delivered so far. *)

val latency_committed : t -> Metrics.Histogram.t
(** Submit-to-reply time of every committed transaction. *)

val lock_hold : t -> Metrics.Histogram.t
(** Coordinator-side lock hold: for every transaction whose coordinator
    took all of its locks, the time from the last grant to the
    coordinator's first release — the quantity 1PC's early release
    shortens (Figure 6). A coordinator rebuilt by recovery books none. *)
