(** Reproduction runners for the paper's evaluation (§IV).

    Each function builds a fresh cluster, drives the paper's workload and
    returns the measured series; the benchmark harness prints them next
    to the published numbers. Everything is deterministic given the
    configuration's seed. *)

(** {1 Figure 6 — distributed namespace operations per second} *)

type fig6_point = {
  protocol : Acp.Protocol.kind;
  throughput : float;  (** committed distributed operations per second *)
  committed : int;
  aborted : int;
  mean_latency : Simkit.Time.span;
  mean_lock_hold : Simkit.Time.span;
      (** coordinator-side lock hold (locked -> released), averaged *)
}

val paper_fig6 : Acp.Protocol.kind -> float
(** The published series: PrN 15, PrC 15.06, EP 16, 1PC 24 ops/s.
    L1PC is not in the paper; it reuses the 1PC figure as its closest
    published reference point. *)

val fig6_config : Opc_cluster.Config.t
(** The §IV parameters: 1 µs methods, 100 µs network, 400 KB/s disk,
    [Spread] placement (every operation distributed), plus this
    reproduction's calibrated record sizing (see EXPERIMENTS.md). *)

val run_fig6_point :
  ?config:Opc_cluster.Config.t -> ?count:int -> Acp.Protocol.kind ->
  fig6_point
(** One bar of Figure 6: [count] (default 100) concurrent CREATEs in the
    same directory, coordinated by the directory's server. *)

val run_fig6 :
  ?config:Opc_cluster.Config.t -> ?count:int -> unit -> fig6_point list
(** All five protocols. *)

(** {1 Table I — protocol cost accounting} *)

type measured_costs = {
  kind : Acp.Protocol.kind;
  sync_writes_per_txn : float;
  async_writes_per_txn : float;
  acp_messages_per_txn : float;
}

val run_table1_measured :
  ?config:Opc_cluster.Config.t -> ?count:int -> Acp.Protocol.kind ->
  measured_costs
(** Run [count] (default 20) isolated distributed CREATEs (one at a
    time, so no batching blurs the accounting) and average the ledger's
    write/message counters per transaction. The totals must equal the
    analytic {!Acp.Cost_model.failure_free} columns — the test suite
    asserts it. *)

(** {1 Latency decomposition (critical-path breakdown)} *)

type breakdown_point = {
  kind : Acp.Protocol.kind;
  summary : Obs.Breakdown.summary;
  tracer : Obs.Tracer.t;
      (** the run's full span record, for Chrome-trace export *)
}

val run_breakdown :
  ?config:Opc_cluster.Config.t -> ?count:int -> Acp.Protocol.kind ->
  breakdown_point
(** Run [count] (default 20) isolated distributed CREATEs with span
    recording on and decompose each submit->reply window into the
    paper's critical-path categories ({!Obs.Breakdown}). In this
    one-at-a-time regime the walk's force and message counts must equal
    the critical-path columns of {!Acp.Cost_model.paper_table1} — the
    test suite asserts it for every protocol. *)

val run_abort_measured :
  ?config:Opc_cluster.Config.t -> ?count:int -> Acp.Protocol.kind ->
  measured_costs
(** Same accounting for the canonical abort: each measured CREATE
    collides with an existing name at the worker, which votes NO. Must
    equal {!Acp.Cost_model.worker_rejected} (the §II-D claim that PrC
    aborts cost exactly what PrN aborts cost is a test). *)

(** {1 Sweeps (ablation experiments)} *)

type sweep_point = { x : float; series : (Acp.Protocol.kind * float) list }

val sweep_disk_bandwidth :
  ?bandwidths:int list -> ?count:int -> unit -> sweep_point list
(** Figure-6 throughput as the shared disk speeds up;
    [x] = bandwidth in KB/s. *)

val sweep_network_latency :
  ?latencies_us:int list -> ?count:int -> unit -> sweep_point list

val sweep_concurrency : ?counts:int list -> unit -> sweep_point list
(** [x] = offered concurrent operations. *)

val sweep_colocation :
  ?probabilities:float list -> ?count:int -> unit -> sweep_point list
(** Locality ablation: probability that a file lands on its parent's
    server (0 = every operation distributed, as in Figure 6). *)

val run_batched_point :
  ?config:Opc_cluster.Config.t ->
  ?count:int ->
  batch:int ->
  Acp.Protocol.kind ->
  fig6_point
(** Figure-6 workload submitted through the §VI aggregation layer with
    batches of up to [batch] operations ([batch = 1] disables
    batching). *)

val sweep_batching :
  ?batch_sizes:int list -> ?count:int -> unit -> sweep_point list
(** Throughput vs batch size (the paper's future-work claim: aggregation
    amortizes log writes over blocks of requests). *)

val sweep_directories :
  ?dir_counts:int list -> ?count:int -> ?independent_disks:bool -> unit ->
  sweep_point list
(** Coordinator-scaling ablation: the 100-CREATE burst spread evenly
    over [x] directories, each owned by a different server. On the
    paper's shared device, adding coordinators barely helps — the single
    400 KB/s spindle is the global bottleneck; with
    [independent_disks = true] throughput scales with the directory
    count. *)

val compare_group_commit :
  ?count:int -> unit -> (Acp.Protocol.kind * float * float) list
(** Log-manager ablation: Figure-6 throughput without and with WAL
    group commit (many forces coalesced into one transfer while the
    device is busy). Returns (protocol, plain, grouped). Every protocol
    gains; 1PC gains the most — its single lock-held force per
    transaction coalesces across the whole burst, whereas the 2PC
    family's voting round trips keep interrupting the batchable
    windows. *)

(** {1 Scale campaign} *)

type scale_point = {
  protocol : Acp.Protocol.kind;
  servers : int;
  submitted : int;
  committed : int;
  aborted : int;
  events : int;  (** engine dispatches consumed by the whole run *)
  sim_elapsed : Simkit.Time.span;  (** first submit -> last reply *)
  ops_per_s : float;  (** committed operations per simulated second *)
  latency_p50 : Simkit.Time.span;
  latency_p95 : Simkit.Time.span;
  latency_p99 : Simkit.Time.span;
  profile : Obs.Prof.report option;
      (** host time/allocation attribution when the run's configuration
          sets [record_prof]; [None] otherwise. The report window spans
          cluster assembly through settle. *)
}

val scale_config : servers:int -> seed:int -> Opc_cluster.Config.t
(** The campaign's base configuration: {!fig6_config} with one log
    device per server ([San.shared_device = false]) and a 60 s
    transaction timeout. [bench check] re-derives its smoke point from
    this, so a baseline and its re-measurement share every parameter. *)

val run_scale_point :
  ?config:Opc_cluster.Config.t ->
  ?clients_per_server:int ->
  servers:int ->
  txns:int ->
  seed:int ->
  Acp.Protocol.kind ->
  scale_point
(** One point of the scale campaign: [servers] metadata servers with one
    log device each ([San.shared_device = false] — the sharded-store
    regime), one workload directory per server, and a seeded closed-loop
    create/delete/lookup mix of [clients_per_server] (default 2) clients
    per server issuing [txns / clients] operations each. Deterministic
    given [(servers, txns, seed, protocol)]. Host wall-clock and
    events/sec are the caller's to measure — this returns the simulated
    metrics and the engine's dispatch count. [config] (default
    {!scale_config}) overrides the base configuration — [protocol],
    [servers] and [seed] are reapplied on top — e.g. to turn sampling or
    the journal on for an overhead experiment. *)

(** {1 Recovery timeline — journal, gauges and MTTR for one crash} *)

type timeline_point = {
  kind : Acp.Protocol.kind;
  committed : int;
  aborted : int;
  crash_server : int;
  crash_time : Simkit.Time.t;  (** the injected crash instant *)
  journal : Obs.Journal.entry list;
  series : Obs.Timeseries.t;
      (** per-node and cluster gauges sampled every [sample_period] *)
  windows : Obs.Mttr.window list;
      (** closed unavailability windows decomposed into
          detect/fence/scan/resolve *)
}

val timeline_config : Opc_cluster.Config.t
(** {!Chaos.Runner.regime} (four servers on the §IV network and devices
    of {!fig6_config}, with the chaos harness's 300 ms transaction
    timeout, 20 ms heartbeats, 100 ms detector and auto-restart after
    50 ms), the lifecycle journal on, and a 5 ms gauge sampling
    cadence. *)

val crash_run :
  ?config:Opc_cluster.Config.t ->
  ?seed:int ->
  ?crash_server:int ->
  ?crash_at_ms:int ->
  ?before_crash:(Opc_cluster.Cluster.t -> Simkit.Time.t -> unit) ->
  Acp.Protocol.kind ->
  Opc_cluster.Cluster.t * Simkit.Time.t
(** The one crash run behind {!run_timeline} and {!Drill.run_one}. Under
    [config] (default {!timeline_config}) with [protocol] and [seed]
    applied, drive the chaos workload (6 clients x 15 operations of
    {!Chaos.Runner.chaos_mix} over one {!Chaos.Runner.layout} directory
    per server, drawn from {!Chaos.Runner.closed_loop_rng} as in a chaos
    run) while [crash_server] (default 1) crashes [crash_at_ms]
    (default 100) after the workload starts, then run the 600 ms fault
    window out and settle. [before_crash cluster at] (default: nothing)
    runs before the crash at [at] is injected, so an event it schedules
    at [at] runs before the crash. Returns the settled cluster and the
    crash instant.
    @raise Failure if the cluster fails to settle. *)

val run_timeline :
  ?config:Opc_cluster.Config.t ->
  ?seed:int ->
  ?crash_server:int ->
  ?crash_at_ms:int ->
  Acp.Protocol.kind ->
  timeline_point
(** One {!crash_run}. The returned journal, gauge series and MTTR
    windows are what [bench timeline] renders and exports. Deterministic
    given [(config, seed, crash_server, crash_at_ms, protocol)]. *)

val compare_shared_vs_independent :
  ?count:int -> unit -> (Acp.Protocol.kind * float * float) list
(** Architecture ablation: Figure-6 throughput on the paper's single
    shared device vs one equally fast device per server
    ([San.shared_device = false]). Returns (protocol, shared,
    independent). With private devices the coordinator's and worker's
    forces overlap and every protocol speeds up; 1PC's client-visible
    burst rate gains the most because its only lock-held force gets a
    dedicated device and its coordinator-side commits drain off the
    client path. *)

(** {1 Crash-point matrix} *)

val fault_grid_ms : int list
(** The crash instants of {!run_fault_matrix}: 0, 2, ..., 60 ms. *)

val run_fault_matrix : unit -> (Acp.Protocol.kind * int * string) list
(** One distributed CREATE on two servers per cell, with server 0 (the
    coordinator) or server 1 (the worker) crashed at each instant of
    {!fault_grid_ms}. Returns, for every protocol and crashed server in
    that order, one letter per instant: [C] committed, [A] aborted.
    Raises [Failure] if a run does not settle, breaks an invariant or
    never replies. *)
