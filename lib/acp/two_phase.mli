(** The two-phase commit family: PrN, PrC and EP (§II-A–II-E).

    One engine implements all three; the {!Kind.t} selects the two
    orthogonal optimizations the paper describes:

    - presume commit (PrC and EP): the coordinator finalizes its log
      right after deciding commit, drops the ACKNOWLEDGE round, and
      answers a recovering worker's outcome query with "commit" when it
      no longer has a log entry. The worker's COMMITTED write becomes
      asynchronous. The abort path falls back to full PrN cost.
    - early prepare (EP only): PREPARE is piggybacked on the update
      request and the worker's UPDATED reply is its PREPARED vote,
      removing both voting-phase messages.

    PrN has neither: the baseline 2PC ("presume nothing").

    Transactions have one coordinator and any number of workers (RENAME
    uses up to three), matching the paper's description of 2PC as the
    general-purpose protocol. *)

val instantiate : Kind.t -> Context.t -> Common.instance
(** A fresh engine of the given 2PC kind with no in-flight state — what
    a server has right after boot. All volatile protocol state lives
    inside, so a crash is modelled by dropping the instance.

    - [submit]: coordinator entry point, runs the distributed
      transaction. The plan must have at least one worker.
    - [recover]: the restart procedure (§II-C) — scan the durable log,
      finish or abort every in-doubt transaction, then call [on_done].
      Call exactly once, on a fresh instance, before the server resumes
      service.
    - [on_suspect]: the 2PC family relies on timeouts alone, so this is
      a no-op; present for interface uniformity.
    - [outstanding]: transactions this engine still holds state for
      (both roles).
    - [owns]: this engine currently holds state for the transaction, in
      either role (message-routing hook for servers hosting two
      engines).

    @raise Invalid_argument for 1PC or L1PC. *)
