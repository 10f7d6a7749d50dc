(** Logless One Phase Commit (L1PC): vote before decide, no WAL.

    Same two-server shape as 1PC, but the coordinator collects the
    worker's vote {e before} deciding, and nothing is ever forced to a
    log. The worker makes its YES vote crash-survivable by parking it —
    updates and all — in the volatile memory of a small {b replica
    group} (ring successors, {!Context.t.replicas}): REP_STORE out, vote
    on the first REP_ACK. The coordinator, holding a yes vote plus its
    own hardened half, replies to the client and releases locks with
    {b zero} log forces on the critical path, then finalizes the worker
    with a resent-until-acked DECIDE.

    Recovery replaces 1PC's fence-and-scan with a {b quorum read}: a
    restarted worker asks its replica group for every vote parked on its
    behalf (RECOVER_REQ/RECOVER_RESP), re-acquires locks, replays, and
    re-votes — no SAN fencing, so the MTTR fence segment is identically
    zero and recovery is immune to fencing-controller outages.
    Undecided coordinator transactions are presumed abort: a stateless
    coordinator answers a resent vote from its durable image (hardened
    means commit, otherwise abort). *)

val instantiate : Context.t -> Common.instance
(** A fresh L1PC engine with no in-flight state.

    - [submit]: coordinator entry point; the plan must have exactly one
      worker ([Invalid_argument] otherwise).
    - [recover]: the quorum-read restart procedure. Call once on a fresh
      instance while the node is {e not yet serving} (peers answer
      RECOVER_REQ in that window — see {!Wire.is_recovery}). [on_done]
      fires when every parked vote has been resurrected (synchronously
      when the replica group is empty); the node should only start
      serving then. Members that never answer are given up on after
      [max_soft_retries] rounds — sound, because a vote was quorum-held
      before it was cast, and votes the coordinator never saw are
      presumed abort regardless.
    - [on_suspect]: heartbeat detector verdict — presumed-abort every
      transaction still waiting on a vote from that worker (with a
      fire-and-forget DECIDE(abort) so the worker can shed its entry).
    - [outstanding]: live coordinator/worker state. Passive
      replica-store entries are excluded: they carry no liveness
      obligation.
    - [owns]: this engine holds state for the transaction in any role,
      including a passive replica copy (message-routing hook). *)
