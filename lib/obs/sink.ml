type t = {
  trace : Simkit.Trace.t;
  spans : Tracer.t;
  journal : Journal.t;
  sampler : Timeseries.t;
  prof : Prof.t;
  recorder : Recorder.t;
  coverage : Coverage.t;
  meter : Meter.t;
}

let disabled () =
  {
    trace = Simkit.Trace.disabled ();
    spans = Tracer.disabled ();
    journal = Journal.disabled ();
    sampler = Timeseries.disabled ();
    prof = Prof.disabled ();
    recorder = Recorder.disabled ();
    coverage = Coverage.disabled ();
    meter = Meter.disabled ();
  }

let journal t ~time ~node kind =
  if Journal.is_recording t.journal then begin
    Journal.emit t.journal ~time ~node kind;
    Recorder.record_journal t.recorder ~time ~node kind
  end

(* The sampler's rows from index [first] on, into the ring: each row
   lands there as soon as it is taken, before anything else can. *)
let mirror_rows t first =
  for i = first to Timeseries.length t.sampler - 1 do
    let time, values = Timeseries.get t.sampler i in
    Recorder.record_gauges t.recorder ~time values
  done

let sample t at =
  let first = Timeseries.length t.sampler in
  Timeseries.advance t.sampler at;
  mirror_rows t first

let install t engine =
  Timeseries.start t.sampler ~now:(Simkit.Engine.now engine);
  mirror_rows t 0;
  let prof = Prof.is_recording t.prof
  and ring = Recorder.is_recording t.recorder in
  let clock =
    if Timeseries.is_recording t.sampler then Some (sample t) else None
  in
  (* The ring's entry first, so the profiler's stamps do not count it
     against the event. *)
  let before =
    match (ring, prof) with
    | false, false -> None
    | true, false ->
        Some (fun time label -> Recorder.record_dispatch t.recorder ~time label)
    | false, true -> Some (fun _ _ -> Prof.enter t.prof)
    | true, true ->
        Some
          (fun time label ->
            Recorder.record_dispatch t.recorder ~time label;
            Prof.enter t.prof)
  in
  let after = if prof then Some (Prof.leave t.prof) else None in
  Simkit.Engine.observe engine ?clock ?before ?after ()
