(** The observation handle: every collector a run can switch on, in one
    record.

    A cluster builds one sink from its configuration and hands it to
    every layer it assembles — network, SAN, disks, logs, lock managers
    and the protocol engines' contexts — so there is one way to
    observe a run. Layers read the collector they feed straight off
    the record. The set is fixed when the sink is built, so a disabled
    collector costs its call site one load and one branch and allocates
    nothing. Every collector is passive: a run with any of them on
    reproduces every simulated digit of a run with all of them off
    (the golden suite pins this).

    The sink also does the wiring between collectors: {!install} puts
    the engine observer in place, and {!journal} and the sampler's rows
    feed the flight recorder. *)

type t = {
  trace : Simkit.Trace.t;  (** event trace (timelines, sequence tests) *)
  spans : Tracer.t;  (** causal spans for the latency breakdown *)
  journal : Journal.t;  (** lifecycle journal; emit through {!journal} *)
  sampler : Timeseries.t;  (** simulated-time gauge sampler *)
  prof : Prof.t;  (** host profiler *)
  recorder : Recorder.t;  (** flight-recorder ring *)
  coverage : Coverage.t;  (** protocol state-machine edge counters *)
  meter : Meter.t;  (** per-tag message-conservation ledger *)
}

val disabled : unit -> t
(** Every collector off. Build a partly enabled sink from it:
    [{ (Obs.Sink.disabled ()) with spans = Obs.Tracer.create () }]. *)

val install : t -> Simkit.Engine.t -> unit
(** Start the sampler — its gauge set freezes and the initial row is
    taken at the engine's current instant — and fill the engine's
    observer slot ({!Simkit.Engine.observe}) with the hooks of the
    collectors that record, and no others: a recording sampler sees
    each clock move; each dispatch is recorded in the ring, then
    bracketed by the profiler. Call it once, after every gauge is
    registered and before the engine runs. *)

val journal : t -> time:Simkit.Time.t -> node:int -> Journal.kind -> unit
(** Append a journal entry and mirror it into the flight recorder.
    Guard call sites whose [kind] allocates with
    [Journal.is_recording sink.journal]. *)
