(** Recovery drills: crash-and-recover campaigns with MTTR SLOs.

    A drill crashes one server under the chaos workload, waits for the
    cluster to settle, and measures the unavailability window's
    {!Obs.Mttr} decomposition (detect / fence / scan / resolve). A
    campaign repeats this across seeds and aggregates per-segment
    percentiles; {!check} compares them against the per-protocol
    recovery SLOs committed in {!slo_for} — the gate [bench drill]
    enforces in CI.

    The SLOs encode the protocols' structural recovery differences:
    L1PC is logless, so its fence budget is {e zero} — any SAN fencing
    during an L1PC drill is a regression — while the logged protocols
    carry a detect+fence+scan budget dominated by the failure detector
    and the log-partition scan. *)

type status = {
  committed : int;
  aborted : int;
  serving : int;  (** nodes up *)
}

type run = {
  seed : int;
  crash_server : int;
  servers : int;
  before : status;  (** sampled at the crash instant, pre-crash *)
  after : status;  (** after the cluster settled *)
  windows : Obs.Mttr.window list;
}

type segment = { p50_ns : int; p99_ns : int }
(** Nearest-rank percentiles over a campaign's windows, in ns. *)

type stats = {
  protocol : Acp.Protocol.kind;
  runs : run list;
  windows : int;  (** measured (closed) unavailability windows *)
  detect : segment;
  fence : segment;
  scan : segment;
  resolve : segment;
  total : segment;
  dfs_p99_ns : int;
      (** p99 of per-window detect+fence+scan — time to reach the
          point where the survivor can serve the victim's partition *)
}

type slo = {
  fence_p99_ns : int;  (** 0 for L1PC: logless recovery never fences *)
  dfs_p99_ns : int;
  total_p99_ns : int;
}

val slo_for : Acp.Protocol.kind -> slo
(** The committed per-protocol recovery budgets (see EXPERIMENTS.md,
    "Recovery drills & incident autopsy"). *)

val impossible_slo : slo
(** An unmeetable budget (every field 0) — the CI negative test proving
    the gate actually trips. *)

val run_one : ?seed:int -> ?crash_server:int -> Acp.Protocol.kind -> run
(** One {!Experiment.crash_run} with a 300 ms restart delay — long
    enough that the 100 ms detector sweep fires and the survivor walks
    the whole takeover path (suspect, fence, scan) instead of the victim
    outracing detection as in the timeline experiment — snapshotting
    service status at the crash instant and after settling.
    Deterministic given [(protocol, seed, crash_server)].
    @raise Failure if the cluster fails to settle — a drill that cannot
    recover is itself an incident. *)

val campaign : ?seeds:int -> ?first_seed:int -> Acp.Protocol.kind -> stats
(** [seeds] (default 5) drills, seeded [first_seed] (default 1)
    onwards, aggregated into per-segment percentiles. *)

val check : ?slo:slo -> stats -> string list
(** Failure messages ([[]] = pass) against [slo] (default
    {!slo_for}): every segment budget, plus structural checks — at
    least one window per run, full service before the crash and after
    recovery. Messages contain the phrase ["FAILS recovery SLO"]. *)
