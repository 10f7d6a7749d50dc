(** Lock manager (§II-B).

    One lock manager serves one metadata server, protecting its metadata
    objects. Transactions acquire locks before updating (two-phase
    locking: all acquires precede all releases) and the commit protocols
    decide when to release — the single behavioural difference the paper
    exploits in 1PC's early coordinator-side release.

    Grants are FIFO per object: a request waits behind every earlier
    incompatible request, so writers cannot starve. Compatible prefixes
    are granted together (multiple shared holders). Re-acquiring a held
    lock in the same or weaker mode grants immediately; a shared holder
    requesting exclusive waits until it is the sole holder and then
    upgrades ahead of later arrivals.

    To avoid distributed deadlocks the paper uses timeouts rather than a
    wait-for graph; [acquire] takes an optional timeout after which the
    request is abandoned and [on_timeout] fires (the protocol then aborts
    the transaction).

    Grant callbacks are deferred through the engine (same simulated
    instant, later event), so callers never re-enter the manager from
    inside their own [acquire]. Lock table operations are free in
    simulated time, matching the paper's model where only object methods,
    messages and log writes carry latency. *)

type t

type mode = Shared | Exclusive

val pp_mode : Format.formatter -> mode -> unit

type stats = {
  acquired : int;  (** grants, excluding re-entrant no-ops *)
  waited : int;  (** grants that had to queue first *)
  timeouts : int;
  total_wait : Simkit.Time.span;  (** summed queue time of all grants *)
  max_queue : int;  (** high-water waiting-queue length on any object *)
}

val create :
  engine:Simkit.Engine.t -> ?sink:Obs.Sink.t -> name:string -> unit -> t
(** [sink] (default {!Obs.Sink.disabled}): [trace] gets grants, waits,
    timeouts and releases; [spans] one {!Obs.Span.Lock_wait} span per
    request that had to queue, from enqueue to grant, timeout or
    cancellation, keyed by the requesting owner token. Immediate grants
    record nothing — they cost nothing. *)

val acquire :
  t ->
  owner:int ->
  oid:int ->
  mode:mode ->
  ?timeout:Simkit.Time.span ->
  on_grant:(unit -> unit) ->
  ?on_timeout:(unit -> unit) ->
  unit ->
  unit
(** Request [oid] in [mode] for transaction [owner]. Exactly one of
    [on_grant] / [on_timeout] eventually fires (on_grant possibly at the
    same instant, via a deferred event). A re-entrant request by a holder
    in a compatible mode is granted without counting as a new
    acquisition. *)

val release : t -> owner:int -> oid:int -> unit
(** Drop [owner]'s hold on [oid] (no-op if it holds nothing) and grant
    the next compatible requests. Also cancels any waiting request by
    [owner] on [oid]. *)

val release_all : t -> owner:int -> unit
(** Release every hold and cancel every waiting request of [owner] —
    crash cleanup and end-of-transaction in one call. *)

val holds : t -> owner:int -> oid:int -> mode option
val holders : t -> oid:int -> (int * mode) list
val queue_length : t -> oid:int -> int

val live_waiters : t -> int
(** Total live (not yet granted, timed out or cancelled) waiters across
    every object — the telemetry gauge for lock contention. *)

val stats : t -> stats
