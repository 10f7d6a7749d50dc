(** Deterministic pseudo-random numbers for simulations.

    Simulation runs must be reproducible from a single integer seed, and
    independent components (each client, each fault injector) must draw from
    independent streams so that adding a consumer does not perturb the draws
    seen by the others. This module provides a splittable generator built on
    SplitMix64, plus the distributions the workloads need.

    This module never touches the global [Stdlib.Random] state. *)

type t
(** A mutable generator. *)

val create : seed:int -> t
(** A generator deterministically derived from [seed]. Equal seeds yield
    equal streams. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]. Streams of
    the parent and the child are statistically independent. *)

val bits64 : t -> int64
(** 64 uniformly random bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive).
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. [p] outside [0,1] is
    clamped. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean (> 0). Used for
    Poisson inter-arrival times. *)

val exponential_span : t -> mean:Time.span -> Time.span
(** Exponentially distributed duration with the given mean. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] draws a rank in [\[0, n)] from a Zipf distribution with
    exponent [s >= 0]. Rank 0 is the most popular. O(1) per draw after an
    O(n) table build cached per (n, s) inside the generator.
    @raise Invalid_argument if [n <= 0] or [s < 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element. @raise Invalid_argument on an empty array. *)
