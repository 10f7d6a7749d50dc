(** Chaos campaign runner.

    One chaos run = one freshly built cluster + a seeded random
    namespace workload + a seeded fault schedule, driven to quiescence
    and judged by {!Oracle.check}. Everything is derived
    deterministically from [(spec, protocol, seed)] — and the schedule
    value itself — so any run replays bit-identically, which is what
    makes {!shrink} sound and failures debuggable. *)

type spec = {
  servers : int;
  dir_count : int;  (** workload directories, spread over the servers *)
  clients : int;
  ops_per_client : int;
  window_ms : int;  (** fault-injection window *)
  settle_deadline_ms : int;
}

val default_spec : spec
(** 4 servers, 4 directories, 6 clients x 15 operations, a 600 ms fault
    window, a 120 s settle deadline. *)

val chaos_mix : Workload.mix
(** 55/20/15 create/delete/rename plus 10% shared-lock lookups. *)

(** One wire tag's row of the message-conservation ledger. The law
    [sent = delivered + dup_delivered + dropped + in_flight] is checked
    by the oracle at tolerance zero; [rejected] counts send-time
    refusals that never entered the fabric and sits outside the law. *)
type tag_stats = {
  tag : string;  (** {!Acp.Codec.tag_name}, or ["HEARTBEAT"] *)
  sent : int;
  delivered : int;
  dup_delivered : int;
  dropped : int;
  rejected : int;
  in_flight : int;
}

type outcome = {
  seed : int;
  protocol : Acp.Protocol.kind;
  schedule : Schedule.t;
  origin : Simkit.Time.t;
      (** instant the schedule was armed — pass to
          {!Schedule.crash_times} to get expected window starts *)
  violations : Oracle.violation list;  (** [] = pass *)
  committed : int;
  aborted : int;
  trace : Simkit.Trace.entry list;
      (** [] unless the cluster config sets [record_trace] (run it
          through {!execute_config}) *)
  journal : Obs.Journal.entry list;
      (** [] unless the cluster config sets [record_journal]: crashes,
          fencing, scans, injected faults with schedule indices, for
          {!Obs.Mttr.windows} *)
  edge_hits : int array;
      (** traversal counters indexed by {!Acp.Edges} id — chaos runs
          always record coverage, so this is never empty *)
  fault_phases : (int * string * string) list;
      (** per fired fault: schedule index, description, and the
          protocol phase it landed in (the destination state of the
          newest coverage edge; ["idle"] before any transition) *)
  meter : tag_stats list;
      (** per-wire-tag conservation ledger at quiescence *)
}

val passed : outcome -> bool
val pp_outcome : Format.formatter -> outcome -> unit

val generate_schedule : spec -> seed:int -> Schedule.t
(** The schedule {!execute} derives from [seed] when none is given. *)

val execute :
  ?schedule:Schedule.t -> spec -> protocol:Acp.Protocol.kind -> seed:int ->
  outcome
(** Run once. [schedule] overrides the seed-derived one (replay,
    shrinking, frozen repros) — the workload stream is derived from
    [seed] independently of schedule generation, so editing the schedule
    never perturbs the operations. Exceptions escaping the simulation
    are caught and reported as {!Oracle.Run_exception}.
    @raise Invalid_argument if an explicit schedule fails
    {!Schedule.validate}. *)

val config_of :
  spec -> protocol:Acp.Protocol.kind -> seed:int -> Opc_cluster.Config.t
(** The cluster config {!execute} derives from [(spec, protocol, seed)]
    — chaos timeouts, spread placement, auto-restart, coverage
    recording on. *)

val execute_config :
  ?schedule:Schedule.t ->
  spec ->
  config:Opc_cluster.Config.t ->
  seed:int ->
  outcome
(** {!execute} with an explicit cluster config. Coverage campaigns use
    it to stress rare edges (tiny tombstone TTL/cap, duplicate storms)
    the default chaos config cannot reach; start from {!config_of} and
    override fields so [servers], [protocol] and [seed] stay consistent
    with the [spec] and [seed] given here. *)

(** {1 Campaigns} *)

type campaign = { spec : spec; outcomes : outcome list }

val campaign :
  ?protocols:Acp.Protocol.kind list ->
  ?first_seed:int ->
  seeds:int ->
  spec ->
  campaign
(** [seeds] runs per protocol (default: all five), seeded
    [first_seed .. first_seed + seeds - 1] — the same seeds, hence the
    same schedules and workloads, for every protocol. *)

val failures : campaign -> outcome list

val table : campaign -> Metrics.Table.t
(** Per-protocol pass/fail/commit/abort summary. *)

(** {1 Shrinking} *)

val shrink : ?max_attempts:int -> spec -> outcome -> Shrink.result
(** Minimise a failing outcome's schedule by deterministic replay
    (same spec, protocol and seed; only the schedule varies). *)

val repro_snippet :
  spec -> protocol:Acp.Protocol.kind -> seed:int -> Schedule.t -> string
(** A self-contained OCaml fragment that re-runs the given schedule —
    paste into a test to freeze a counterexample. *)

(** {1 Observed replay and incident autopsy} *)

val repro_command : spec -> protocol:Acp.Protocol.kind -> seed:int -> string
(** The verbatim shell command that reproduces this run through
    [bin/chaos] (assumes the spec's [dir_count] is the default — the
    CLI does not expose it). *)

val hosted_protocols : Acp.Protocol.kind -> Acp.Protocol.kind list
(** The protocol maps a cluster running this primary actually hosts:
    the primary itself, plus the PrN fallback when the primary is 1PC
    or L1PC. *)

val coverage_summaries :
  protocol:Acp.Protocol.kind ->
  int array ->
  Obs.Autopsy.coverage_summary list
(** Digest an outcome's [edge_hits] into per-hosted-protocol coverage
    summaries (declared/hit/never-hit); [[]] for an empty array. *)

val observed_config :
  spec -> protocol:Acp.Protocol.kind -> seed:int -> Opc_cluster.Config.t
(** {!config_of} with every collector enabled: spans, journal, 5 ms
    gauge sampling, host profiling and a 4096-slot flight recorder.
    Collectors are passive, so the run's verdict and every simulated
    metric are bit-identical to the unobserved replay. *)

val execute_observed :
  ?schedule:Schedule.t ->
  spec ->
  protocol:Acp.Protocol.kind ->
  seed:int ->
  outcome * Obs.Autopsy.source
(** Replay a run under {!observed_config} and package everything the
    collectors saw — plus the verdict, schedule literal, settle
    diagnostics and {!repro_command} — as an autopsy source. *)

val autopsy : ?max_attempts:int -> dir:string -> spec -> outcome -> string
(** Condense a failing outcome into an incident bundle: shrink its
    schedule ({!shrink}), replay the minimal schedule observed, write
    [dir/INCIDENT_<protocol>_<seed>/] via {!Obs.Autopsy.write} and
    re-parse it through {!Obs.Autopsy.validate}. Returns the bundle
    directory. A passing outcome skips the shrink and bundles its own
    schedule.
    @raise Failure if the freshly written bundle fails validation. *)
