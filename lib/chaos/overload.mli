(** Overload-survival chaos: retry storms against graceful-degradation
    oracles.

    Each seed runs the same cluster twice through an
    {!Opc_cluster.Ingress} front door driven by
    {!Workload.Open_loop}:

    - a {b reference} run at [reference_rate] (below the capacity knee,
      fault-free) — the goodput yardstick;
    - a {b storm} run at [reference_rate * storm_multiplier] — an
      open-loop retry storm past the knee, optionally with a seeded
      crash/partition/loss schedule riding along.

    Both runs face {!Oracle.check_open_loop} (every request resolved,
    exactly-once execution per idempotency key, replay-cache coherence,
    namespace atomicity, shed-leaves-no-state), and the pair faces
    {!Oracle.check_goodput_floor}: goodput past the knee must hold
    [goodput_floor] of the reference. Deterministic end to end — the
    same (seed, protocol, spec) triple always yields the same verdict,
    so failing storm schedules shrink with the standard machinery. *)

type spec = {
  servers : int;
  dir_count : int;
  reference_rate : float;  (** requests/s, below the knee *)
  storm_multiplier : float;  (** storm offered load vs reference *)
  duration_ms : int;  (** arrival window of each run *)
  max_inflight : int;  (** ingress admission bound *)
  queue_capacity : int;  (** ingress queue bound (0 = shed at once) *)
  goodput_floor : float;  (** storm goodput >= floor * reference *)
  settle_deadline_ms : int;
  window_ms : int;  (** fault-schedule window (storm run) *)
  with_faults : bool;  (** inject a generated schedule into the storm *)
}

val default_spec : spec

val policy : Workload.Open_loop.policy
(** The retry policy overload runs use (500 ms patience, 60 ms backoff
    doubling with 20 % jitter, 4 attempts). *)

type run = {
  stats : Workload.Open_loop.stats;
  ingress : Opc_cluster.Ingress.stats;
  p50 : Simkit.Time.span;  (** committed-request client latency *)
  p95 : Simkit.Time.span;
  p99 : Simkit.Time.span;
  violations : Oracle.violation list;
}

type outcome = {
  seed : int;
  protocol : Acp.Protocol.kind;
  schedule : Schedule.t option;  (** faults injected into the storm run *)
  reference : run;
  storm : run;
  violations : Oracle.violation list;
      (** both runs' violations plus the goodput-floor verdict *)
}

val passed : outcome -> bool

val run :
  spec ->
  protocol:Acp.Protocol.kind ->
  seed:int ->
  rate:float ->
  schedule:Schedule.t option ->
  run
(** One open-loop run: a {!Runner.regime} cluster with the spec's
    servers, directories ({!Runner.layout}) and ingress bounds, offered
    Poisson arrivals at [rate] requests/s for [duration_ms] over the
    directories with Zipf(1.1) skew and {!policy} retries, drawn from
    {!Runner.open_loop_rng}, with [schedule], if any, injected through
    {!Runner.arm}; then settled and judged by {!Oracle.check_open_loop}.
    Exceptions escaping the simulation are reported as
    {!Oracle.Run_exception}. *)

val execute :
  ?schedule:Schedule.t -> spec -> protocol:Acp.Protocol.kind -> seed:int ->
  outcome
(** Run the reference/storm pair. [schedule] overrides the generated
    storm-run schedule (shrinking replays). *)

val pp_outcome : Format.formatter -> outcome -> unit

type campaign = { spec : spec; outcomes : outcome list }

val campaign :
  ?protocols:Acp.Protocol.kind list ->
  ?first_seed:int ->
  seeds:int ->
  spec ->
  campaign
(** [seeds] pairs per protocol (default: all five). *)

val failures : campaign -> outcome list

val table : campaign -> Metrics.Table.t
(** Per-protocol pass/fail with mean reference/storm goodput, total
    shed count and total given-up requests. *)

val shrink : ?max_attempts:int -> spec -> outcome -> Shrink.result option
(** Minimize a failing outcome's storm schedule ([None] when the run
    had no fault schedule to shrink). *)

val repro_command : spec -> protocol:Acp.Protocol.kind -> seed:int -> string
(** The verbatim shell command that reproduces this overload pair
    through [bin/chaos] (assumes the spec's non-CLI fields are the
    defaults). *)
