(** The paper's One Phase Commit protocol (§III).

    Two-server transactions only (CREATE/DELETE; the cluster layer routes
    wider plans to 2PC). The voting phase is gone: the coordinator forces
    a STARTED+REDO record, performs its update, and asks the worker to
    update {e and commit} in one shot. When the worker's UPDATED arrives
    the coordinator replies to the client and releases its locks
    immediately — its own commit is forced off the client's critical path
    — then acknowledges so the worker can finalize (ENDED, asynchronous)
    and garbage-collect.

    Recovery leans on the shared-storage architecture: a coordinator that
    cannot reach its worker {b fences} it (STONITH via the cluster) and
    reads the worker's log partition — COMMITTED there means commit, an
    empty partition means abort. A restarted coordinator re-executes
    in-doubt transactions from the REDO record; a restarted worker with
    COMMITTED but no ENDED asks the coordinator to resend the
    acknowledgement. *)

val instantiate : Context.t -> Common.instance
(** A fresh 1PC engine with no in-flight state.

    - [submit]: coordinator entry point; the plan must have exactly one
      worker ([Invalid_argument] otherwise).
    - [recover]: the §III-C restart procedure, finished before
      [on_done] is called. Call once on a fresh instance. In-doubt
      coordinator transactions are re-executed in original log order,
      which realizes the paper's rule that a rebooted coordinator
      completes outstanding requests in arrival order before serving new
      ones.
    - [on_suspect]: heartbeat detector verdict — start fence-and-read
      recovery for every transaction currently waiting on that worker.
    - [owns]: this engine currently holds state for the transaction, in
      either role (message-routing hook for servers hosting two
      engines). *)
