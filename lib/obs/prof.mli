(** Host profiler: self-time on the host monotonic clock and minor-heap
    allocation per (subsystem, event label).

    Self-time is elapsed host time, not process CPU time: a dispatch
    the scheduler stalls is booked the stall too. The [cpu_ns] names
    below are kept for the artifacts that read them.

    {!enter} and {!leave} bracket every engine dispatch — {!Sink.install}
    puts them in the engine's observer — stamping the host monotonic
    clock and [Gc.minor_words], and {!leave} books the deltas to the
    dispatched event's interned {!Simkit.Label} — so a profile says
    which of netsim / storage / locks / acp / cluster the host time went
    to, not just that a run got slower. Purely passive with respect to
    the simulation: no events are added, no simulated clock is read, no
    randomness is consumed, and golden digits are bit-identical with
    profiling on (the test suite pins this).

    The unattributed remainder — heap maintenance, the dispatch loop,
    observer overhead — lands in an explicit residual, so
    [total_cpu_ns = sum of bucket cpu_ns + residual_cpu_ns] holds
    exactly (tolerance zero; also a pinned test). *)

type t

val create : unit -> t
(** A recording profiler. Its run window opens now, so create it before
    assembling what it should cover. *)

val disabled : unit -> t
(** Never records; {!enter} and {!leave} cost one load and one branch. *)

val is_recording : t -> bool

val enter : t -> unit
(** Stamp the start of one dispatch: called just before the event's
    callback. *)

val leave : t -> Simkit.Label.t -> unit
(** Book the dispatch {!enter} opened to [label]: called just after the
    callback, also when it raised. *)

(** {1 Reports} *)

type bucket = {
  subsystem : string;  (** {!Simkit.Label.subsystem_name} *)
  label : string;
  dispatches : int;
  cpu_ns : int;  (** summed per-dispatch self time, monotonic-clock ns *)
  minor_words : int;  (** summed per-dispatch minor-heap allocation *)
  max_cpu_ns : int;  (** the single most expensive dispatch *)
}

type report = {
  total_cpu_ns : int;  (** whole run window: {!create} -> {!report} *)
  total_minor_words : int;
  total_dispatches : int;
  buckets : bucket list;  (** sorted by [cpu_ns] descending *)
  residual_cpu_ns : int;
      (** [total_cpu_ns - sum cpu_ns]: engine overhead between
          callbacks. Exact by construction. *)
  residual_minor_words : int;
}

val report : t -> report
(** Snapshot the aggregation. The end-of-window stamps are taken before
    any report bookkeeping, so building the report never pollutes it.
    @raise Invalid_argument if disabled. *)

val by_subsystem : report -> (string * int * int) list
(** [(subsystem, cpu_ns, minor_words)] rollup, residual included under
    ["engine"], sorted by self-time descending — the split [bench check]
    records in its baseline. *)

val residual_subsystem : string
(** ["engine"] — where {!by_subsystem} books the residual. *)

val residual_label : string
(** ["(residual)"] — the residual's label row in table/speedscope
    output. *)

val to_table : ?top:int -> report -> Metrics.Table.t
(** Top-[top] (default 15) buckets by self-time ("host ms", "host %"),
    a rollup row for the rest, then separator, residual and total
    rows. *)

val speedscope_to_file : path:string -> name:string -> report -> unit
(** Write the profile to [path] (creating parent directories as needed)
    as a speedscope "sampled" document: one
    [subsystem > subsystem/label] stack per bucket weighted by its self
    cpu_ns, plus the residual stack, so the flame graph's root spans
    exactly [total_cpu_ns]. Open at https://www.speedscope.app or with
    [speedscope <file>]. *)
