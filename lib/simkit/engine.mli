(** Discrete-event simulation engine.

    An engine owns a virtual clock and a priority queue of pending events.
    [run] repeatedly pops the earliest event, advances the clock to its
    timestamp and executes its callback; callbacks schedule further events.
    Events with equal timestamps execute in scheduling (FIFO) order, so a
    run is a deterministic function of the initial schedule and the
    callbacks — there is no hidden nondeterminism anywhere in the kernel.

    Callbacks must not raise: an escaping exception aborts the run and is
    re-raised to the caller of [run] wrapped in [Event_failure] with the
    event's label, because a half-dispatched simulation has no meaningful
    state to continue from.

    Events scheduled back to back for one instant — a heartbeat burst,
    say — form a run: a FIFO that takes a single entry of the queue's
    heap. Only the run's first enqueue and its last exit sift the heap;
    every other enqueue, dispatch or cancel in it is O(1). Runs show to
    callers in those costs only.

    A batch ({!schedule_batch}) goes further for a fan-out whose copies
    share a callback: its members share one handle and one slot, yet each
    is still dispatched, counted and observed as an event of its own.

    Events live in slots of per-engine arrays, reused once their event
    has left the queue, so scheduling allocates nothing beyond the
    caller's callback. The slots grow to the peak of queued events and
    never shrink. *)

type t

type handle [@@immediate]
(** A cancellable reference to a scheduled event: the event's slot and
    the slot's generation, packed in an int. A handle belongs to the
    engine that issued it. Once its event has been dispatched or
    cancelled it names nothing — {!cancel} ignores it and {!is_pending}
    reads [false] — even after its slot holds another event, because a
    slot's generation moves on each time it is freed. Slot indices take
    31 bits and generations 31 more, of a 63-bit int. A slot freed
    [2^31 - 1] times is retired, never reused, and an enqueue that would
    need more than [2^31] slots raises [Failure]: no handle is issued
    that could alias another. *)

val none : handle
(** A handle that names no event, for a timer slot with nothing armed:
    {!cancel} ignores it and {!is_pending} reads [false]. *)

exception Event_failure of string * exn
(** [Event_failure (label, exn)]: the callback of the event labelled
    [label] (the {!Label.name} of its label) raised [exn]. *)

val create : unit -> t
(** A fresh engine with the clock at {!Time.zero} and no pending events. *)

val now : t -> Time.t
(** Current simulated time. *)

val schedule :
  t -> ?label:Label.t -> after:Time.span -> (unit -> unit) -> handle
(** [schedule t ~after f] runs [f] at [now t + after]. [label] names the
    event in error reports, debugging dumps and profiles (default
    {!Label.event}); call sites bind their interned label once, not per
    call. *)

val schedule_at : t -> ?label:Label.t -> at:Time.t -> (unit -> unit) -> handle
(** [schedule_at t ~at f] runs [f] at absolute time [at].
    @raise Invalid_argument if [at] is in the past. *)

val schedule_batch :
  t -> ?label:Label.t -> at:Time.t -> count:int -> (unit -> unit) -> handle
(** [schedule_batch t ~at ~count f] enqueues [count] events at [at] that
    each call [f] — one call per member, in order, so [f] can keep its
    own cursor over what the members carry. It is observably [count]
    back-to-back [schedule_at t ~at f] calls:
    - dispatch order, {!dispatched}, {!pending} and
      {!pending_high_water} count every member, as they would count the
      separate events;
    - each member gets its own observer bracket;
    - [run ~max_events] may stop between two members, and a later [run]
      or {!step} resumes with the next one;
    - an event enqueued for [at] from inside a member's callback runs
      after the last member.

    The handle stands for the members not yet dispatched: {!cancel}
    drops them all, also from inside a member's callback, and
    {!is_pending} holds while one remains. A member that raises leaves
    the rest queued, as separate events would.
    @raise Invalid_argument if [count < 1] or [at] is in the past. *)

val defer : t -> ?label:Label.t -> (unit -> unit) -> handle
(** [defer t f] schedules [f] at the current instant, after all events
    already scheduled for this instant. Useful to break call cycles. *)

val cancel : t -> handle -> unit
(** Cancel the event if it has not been dispatched yet — for a batch,
    every member not yet dispatched; otherwise a no-op. Idempotent.
    The event leaves the queue at once and its slot drops the callback,
    so nothing the callback reaches stays alive through the engine or
    the handle. That costs O(1) for a run's member, or for its head
    while it has followers, and O(log n) for [n] runs otherwise. *)

val is_pending : t -> handle -> bool
(** Whether the event is still scheduled (neither dispatched nor
    cancelled); for a batch, whether a member is. *)

type outcome =
  | Drained  (** the event queue became empty *)
  | Reached_limit  (** stopped after dispatching [max_events] events *)
  | Reached_until  (** the next event lies beyond [until] *)

val run : ?until:Time.t -> ?max_events:int -> t -> outcome
(** Run events in order. With [until], stops (without dispatching) when the
    next event's timestamp exceeds [until] and advances the clock to
    [until]. With [max_events], stops after that many dispatches. A stopped
    engine can be [run] again to continue. The clock never moves
    backwards: an [until] before {!now} dispatches nothing and leaves the
    clock where it is. *)

val step : t -> bool
(** Dispatch exactly one event. [false] if the queue was empty. *)

val pending : t -> int
(** Number of scheduled, not-yet-cancelled events, every member of a
    run or batch included. *)

val dispatched : t -> int
(** Total events dispatched since creation. *)

val pending_high_water : t -> int
(** High-water mark of {!pending} — live events, run and batch members
    included and no tombstones, since [cancel] leaves none — since creation or
    the last {!reset_pending_high_water}. *)

val reset_pending_high_water : t -> unit
(** Reset the high-water mark to the current occupancy, so periodic
    samplers can read per-interval maxima. *)

val observe :
  t ->
  ?clock:(Time.t -> unit) ->
  ?before:(Time.t -> Label.t -> unit) ->
  ?after:(Label.t -> unit) ->
  unit ->
  unit
(** Fill the engine's one observer slot, replacing what an earlier call
    put there; an omitted hook is not called.
    - [clock] gets the target instant just before every forward clock
      move (an event's dispatch or [run ~until]'s idle advance), while
      {!now} still reads the previous instant.
    - [before] gets the event's instant and label just before its
      callback runs.
    - [after] gets the label just after the callback returns — also
      when it raises, before the exception is re-raised as
      {!Event_failure}.

    An observer must be passive: it must not schedule, cancel or run
    events, read the simulated clock into simulation state or consume
    randomness, so an observed run dispatches exactly the events of an
    unobserved one. The clock site costs one load and one branch while
    [clock] is omitted, and the dispatch site while [before] and
    [after] both are. {!Obs.Sink.install} fills the hooks of the
    collectors that record, and only those. *)
