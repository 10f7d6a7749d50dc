(** Machinery shared by the protocol implementations. *)

val acquire_locks :
  Context.t ->
  txn:Txn.id ->
  oids:int list ->
  on_granted:(unit -> unit) ->
  on_timeout:(unit -> unit) ->
  unit
(** Acquire exclusive locks on [oids] in order, each with the context's
    timeout. [on_granted] once all are held; [on_timeout] if any times
    out (already-granted locks stay held — the caller releases through
    {!release}, normally as part of its abort path). *)

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

val cancel_timer : Simkit.Engine.handle option ref -> unit
(** Cancel and clear a timer slot, if armed. *)

val lock_oids_of_updates : Mds.Update.t list -> int list
(** Deduped, sorted lock set for a worker that only knows its updates. *)
