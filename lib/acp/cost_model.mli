(** Analytic protocol costs — the paper's Table I.

    For a failure-free two-server transaction (one coordinator, one
    worker), counts per protocol of: forced (synchronous) and
    asynchronous log writes, in total and on the critical path, and
    {e additional} messages (beyond the UPDATE REQ/UPDATED round trip a
    distributed operation needs even with no ACP), in total and on the
    critical path.

    "Critical path" is the paper's: everything the coordinator waits for
    before returning the result to the client. The counts are derived
    step by step in the implementation (each contribution is commented),
    and the test suite checks the totals against instrumented simulation
    runs — the analytic table and the executable protocols must agree. *)

type costs = {
  total_sync : int;
  total_async : int;
  critical_sync : int;
  critical_async : int;
  total_messages : int;
  critical_messages : int;
}

val failure_free : Protocol.kind -> costs

val worker_rejected : Protocol.kind -> costs
(** Costs of the canonical abort: the worker's updates fail validation
    and it votes NO with its UPDATED reply. §II-D says PrC "behaves in
    the same way as the PrN" here, and indeed their rows are equal. EP
    pays one extra forced write — its coordinator already prepared
    eagerly before the vote arrived — and 1PC aborts with {e no}
    additional messages at all (the worker kept nothing). Critical path
    = until the client hears the abort. *)

val paper_table1 : Protocol.kind -> costs
(** The values printed in the paper (plus our derived L1PC row, which
    postdates it). Identical to {!failure_free} — kept as a separate
    literal table so a regression in the derivation cannot silently
    rewrite the reference. *)

val predicted_storm_throughput :
  bandwidth_bytes_per_s:int -> block_bytes:int -> Protocol.kind -> float
(** Closed-form prediction of the Figure 6 experiment from the cost
    table alone. Under a saturating same-directory burst on one shared
    device, with every log write fitting one block, the device is the
    bottleneck and steady-state throughput is

    {[ bandwidth / (block * (total_sync + total_async)) ]}

    — PrN 6 writes, PrC/EP 5, 1PC 4. The simulator must land within a
    few percent of this (a test asserts it): the mechanism and the
    arithmetic agree, which is the strongest check that the measured
    Figure 6 is the cost table and nothing else. L1PC writes no log at
    all, so the disk is never its bottleneck: the prediction is
    [infinity] (the network, not this formula, limits it). *)

val table : unit -> Metrics.Table.t
(** Rendered Table I, one row per protocol. *)
