(** Simulated-time periodic gauge sampler.

    A timeseries samples a fixed set of integer gauges at a regular
    simulated-time cadence. It is driven by the engine observer's clock
    hook (installed by {!Sink.install}) rather than by scheduled
    events, so an enabled sampler is invisible to the
    simulation: the event count, event order and every simulated metric
    are bit-identical with sampling on or off. Samples land at exact
    multiples of the period; because simulated state only changes inside
    event callbacks, reading the gauges between events yields the exact
    state at each sampling instant.

    Usage: [register] every gauge, then {!start} once. The gauge set is
    frozen then, an initial row is taken at the current instant, and
    subsequent rows appear as {!advance} sees the clock cross period
    boundaries. *)

type t

val create : period:Simkit.Time.span -> t
(** @raise Invalid_argument if [period] is not positive. *)

val disabled : unit -> t
(** A sampler that records nothing and never reads a gauge. *)

val is_recording : t -> bool

val register : t -> name:string -> (unit -> int) -> unit
(** Add a gauge. Gauges are sampled in registration order.
    @raise Invalid_argument if called after [start]. *)

val start : t -> now:Simkit.Time.t -> unit
(** Freeze the gauge set and take the initial row at [now]. No-op when
    disabled or already started. *)

val advance : t -> Simkit.Time.t -> unit
(** The clock is about to move to the given instant: take one row per
    period boundary up to it. No-op before {!start}. *)

val columns : t -> string array
(** Gauge names in sampling order (empty before [start]). *)

val length : t -> int
(** Number of rows recorded so far. *)

val get : t -> int -> Simkit.Time.t * int array
(** [get t i] is row [i]: the sampling instant and one value per column.
    The array is the stored row; do not mutate it. *)

val iter : (Simkit.Time.t -> int array -> unit) -> t -> unit
