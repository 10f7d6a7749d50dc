(** Idempotent ingress with bounded admission.

    The overload-survival front door of a metadata server cluster. Every
    client request carries an {e idempotency key} — stable across
    retries of the same logical operation — and passes through three
    gates:

    - {b Replay cache}: a key whose operation already completed is
      answered from the cache, byte-for-byte the original reply, without
      re-executing anything. A retry racing the original (same key still
      queued or in flight) is {e coalesced} onto it: both callers get the
      one reply when it completes.
    - {b Bounded admission}: at most [max_inflight] operations run in the
      cluster at once; up to [queue_capacity] more wait in FIFO order.
    - {b Load shedding}: past both bounds the request is answered
      [Busy] synchronously. A shed request never reaches the planner, so
      it allocates no inodes, takes no locks, writes no log records —
      zero trace in the MDS.

    Everything is plain data structure work at submit/completion time —
    no timers, no randomness — so an ingress-fronted run is exactly as
    deterministic as the cluster under it. *)

type t

type key = { client : int; request : int }
(** Client-chosen idempotency key: [client] identifies the logical
    client, [request] its per-client request number. Retries of one
    logical operation reuse the key unchanged. *)

type reply =
  | Busy  (** shed at admission; retry after a backoff *)
  | Done of Acp.Txn.outcome

val create : ?max_inflight:int -> ?queue_capacity:int -> Cluster.t -> t
(** Front the cluster. Defaults: [max_inflight = 64],
    [queue_capacity = 256]. Registers the ingress depth probe on the
    cluster's time-series gauges (when sampling is enabled).
    @raise Invalid_argument if either bound is negative or
    [max_inflight] is zero. *)

val submit : t -> key:key -> Mds.Op.t -> on_reply:(reply -> unit) -> unit
(** Admit, coalesce, replay or shed. [on_reply] fires exactly once:
    synchronously for a shed or a replay hit, at completion otherwise.
    @raise Invalid_argument if [key] was seen before with a structurally
    different operation (a client bug the simulation surfaces loudly). *)

val find_reply : t -> key:key -> reply option
(** The cached reply for a completed key, physically the value every
    waiter received; [None] while unknown, queued or in flight. *)

val executions : t -> key:key -> int
(** Times the key's operation was actually handed to the cluster —
    the exactly-once oracle checks this never exceeds 1. *)

val completed_in_order : t -> (key * Mds.Op.t * Acp.Txn.outcome) list
(** Every completed operation in completion order — the replay schedule
    for the namespace-reconstruction oracle. *)

type stats = {
  submitted : int;  (** calls to {!submit} *)
  admitted : int;  (** entered the queue or started directly *)
  started : int;  (** handed to the cluster *)
  completed : int;
  replayed : int;  (** answered from the replay cache *)
  coalesced : int;  (** joined a queued/in-flight twin *)
  shed : int;  (** answered [Busy] *)
  queue_len : int;  (** current *)
  inflight : int;  (** current *)
}

val stats : t -> stats
