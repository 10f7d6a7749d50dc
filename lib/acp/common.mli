(** The skeleton every commit path shares.

    The protocol engines ({!Two_phase}, {!One_phase}, {!Logless}) keep
    only their protocol's decisions: what to force, whom to wait for and
    how to recover. What they all do — take locks, apply and roll back
    updates, track each transaction's lifetime, release a coordinator's
    locks, replay the log on restart — lives here, on the {!Context}
    services, and so does the zero-worker commit ({!commit_local}). *)

(** One engine instance, as each engine's [instantiate] builds it (the
    engines document each field). *)
type instance = {
  kind : Kind.t;
  submit : Txn.t -> unit;
  on_message : src:Netsim.Address.t -> Wire.t -> unit;
  recover : on_done:(unit -> unit) -> unit;
      (** Replay durable state after a reboot. Logged protocols finish
          synchronously and call [on_done] before returning; L1PC must
          first read back its replica group over the network, so
          [on_done] fires later — the node stays non-serving until
          then. *)
  on_suspect : Netsim.Address.t -> unit;
  outstanding : unit -> int;
  owns : Txn.id -> bool;
      (** currently holds state for this transaction in either role
          (routing hook for servers hosting a 1PC engine plus its 2PC
          fallback) *)
}

(** {1 Locks and updates} *)

val acquire_locks :
  ?check_alive:bool ->
  Context.t ->
  txn:Txn.id ->
  oids:int list ->
  on_granted:(unit -> unit) ->
  on_timeout:(unit -> unit) ->
  unit
(** Acquire exclusive locks on [oids] in order, each with the context's
    timeout. [on_granted] once all are held; [on_timeout] if any times
    out (already-granted locks stay held — the caller releases through
    {!release}, normally as part of its abort path). With [check_alive]
    (default [false]) each grant takes the next lock, or calls
    [on_granted], only while {!Context.t.alive} holds. *)

val release : Context.t -> Txn.id -> unit
(** Release every local lock of the transaction. *)

val apply_updates :
  Context.t ->
  Mds.Update.t list ->
  k:((Mds.Update.t list, Mds.State.error) result -> unit) ->
  unit
(** Charge one object-method latency per update, then apply them to the
    volatile store. [Ok inverses] has the undo list (newest first); on
    the first validation error the already-applied prefix is rolled back
    and the state is untouched. *)

val undo : Context.t -> Mds.Update.t list -> unit
(** Roll back with an inverse list from {!apply_updates}. *)

val replay : Context.t -> Mds.Update.t list -> Mds.Update.t list
(** Recovery: re-apply known-valid updates to the volatile store and
    return their inverses (newest first). *)

val cancel_timer : Context.t -> Simkit.Engine.handle ref -> unit
(** Cancel the timer a slot holds, if armed ({!Context.t.set_timer}
    arms one), and clear the slot to {!Simkit.Engine.none}. *)

(** {1 Transaction lifetimes}

    Each engine keeps its coordinators and workers in tables keyed by
    {!Txn.key}; a role's lifetime is a {!Obs.Span.Phase} span. *)

val track :
  Context.t -> 'a Simkit.Tbl.Pair.t -> Txn.id -> 'a -> name:string -> int
(** Enter a coordinator or worker into its table and open its lifetime
    span; returns the span ([-1] when not recording). *)

val drop : Context.t -> 'a Simkit.Tbl.Pair.t -> Txn.id -> span:int -> unit
(** Close a coordinator's or worker's lifetime span and remove it from
    its table. Each role is dropped once. *)

val release_coordinator :
  Context.t -> Txn.id -> locked_at:Simkit.Time.t option -> unit
(** A coordinator's first release: release its locks and, if it had
    taken them all at [locked_at], book the lock hold
    ({!Context.t.lock_hold}). A coordinator releases once. *)

(** A coordinator with exactly one worker — 1PC's and L1PC's; the phase
    type is the engine's. *)
type 'phase pair_coord = {
  id : Txn.id;
  worker : int;
  worker_updates : Mds.Update.t list;
  own_updates : Mds.Update.t list;
  own_lock_oids : int list;
  mutable phase : 'phase;
  mutable undo_list : Mds.Update.t list;
  mutable retries : int;
  mutable locked_at : Simkit.Time.t option;  (** until the first release *)
  mutable ospan : int;  (** open lifetime span, [-1] = none *)
  timer : Simkit.Engine.handle ref;
}

val pair_coord : Kind.t -> Txn.t -> 'phase -> 'phase pair_coord
(** The coordinator of a one-worker plan, in the given phase, holding no
    locks, no undo list and no timer.
    @raise Invalid_argument unless the plan has exactly one worker. *)

(** {1 Log recovery} *)

val recover_log :
  Context.t ->
  owns:(Log_scan.image -> bool) ->
  coordinator:(Log_scan.image -> unit) ->
  worker:(Log_scan.image -> unit) ->
  unit
(** The logged protocols' restart scan: read this server's own log,
    harden every committed image's updates, then hand each image the
    engine [owns] to its [coordinator] resume (this server originated
    the transaction) or its [worker] resume, in log order. *)

(** {1 The zero-worker commit} *)

val commit_local : Context.t -> Txn.t -> unit
(** Commit a single-server plan without any ACP — the paper's baseline:
    lock, update, force one [Updates]+[Committed] write, harden, release
    (booking the hold), reply, drop the records. A failed update or a
    lock timeout releases and replies aborted. *)
