type gauge = { name : string; read : unit -> int }

type row = { at : Simkit.Time.t; values : int array }

let dummy_row = { at = Simkit.Time.zero; values = [||] }

type t = {
  enabled : bool;
  period : Simkit.Time.span;
  mutable gauges : gauge list;  (* reversed during registration *)
  mutable started : bool;
  mutable frozen : gauge array;  (* fixed at [start] *)
  mutable next_at : Simkit.Time.t;
  mutable rows : row array;
  mutable len : int;
}

let create ~period =
  if Simkit.Time.span_to_ns period <= 0 then
    invalid_arg "Obs.Timeseries.create: period must be positive";
  {
    enabled = true;
    period;
    gauges = [];
    started = false;
    frozen = [||];
    next_at = Simkit.Time.zero;
    rows = Array.make 256 dummy_row;
    len = 0;
  }

let disabled () =
  {
    enabled = false;
    period = Simkit.Time.span_ns 1;
    gauges = [];
    started = false;
    frozen = [||];
    next_at = Simkit.Time.zero;
    rows = [||];
    len = 0;
  }

let is_recording t = t.enabled

let register t ~name read =
  if t.enabled then begin
    if t.started then invalid_arg "Obs.Timeseries.register: already started";
    t.gauges <- { name; read } :: t.gauges
  end

let columns t = Array.map (fun g -> g.name) t.frozen

let push_row t row =
  if t.len = Array.length t.rows then begin
    let grown = Array.make (max 256 (2 * t.len)) dummy_row in
    Array.blit t.rows 0 grown 0 t.len;
    t.rows <- grown
  end;
  t.rows.(t.len) <- row;
  t.len <- t.len + 1

let sample t ~time =
  let n = Array.length t.frozen in
  let values = Array.make n 0 in
  for i = 0 to n - 1 do
    values.(i) <- (t.frozen.(i)).read ()
  done;
  push_row t { at = time; values }

(* Materialize one row for every whole sampling period the clock is
   about to cross. The sampler reads inter-event state, which is exact —
   simulated state only changes inside event callbacks, so the gauges at
   instant [k * period] are whatever the last dispatched event left
   behind. Never schedules anything. *)
let advance t at =
  if t.started then
    while Simkit.Time.( <= ) t.next_at at do
      sample t ~time:t.next_at;
      t.next_at <- Simkit.Time.add t.next_at t.period
    done

let start t ~now =
  if t.enabled && not t.started then begin
    t.started <- true;
    t.frozen <- Array.of_list (List.rev t.gauges);
    t.gauges <- [];
    sample t ~time:now;
    t.next_at <- Simkit.Time.add now t.period
  end

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then
    invalid_arg "Obs.Timeseries.get: index out of bounds";
  let r = t.rows.(i) in
  (r.at, r.values)

let iter f t =
  for i = 0 to t.len - 1 do
    let r = t.rows.(i) in
    f r.at r.values
  done
