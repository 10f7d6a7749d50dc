(** Chrome trace-event export.

    Serializes a tracer's spans to the Trace Event Format's JSON object
    form ([{"traceEvents": [...]}]) so a run can be opened in
    [chrome://tracing] / Perfetto. Each track becomes a named thread
    (one ["M"]/["thread_name"] metadata event per track), each closed
    span a complete ["X"] event with microsecond timestamps measured
    from simulation start; the transaction token and category ride in
    ["args"]. Open spans (e.g. cut short by a crash) are skipped. *)

val to_string : Tracer.t -> string

val to_file : string -> Tracer.t -> unit
(** Creates missing parent directories. *)
