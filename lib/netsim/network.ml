let label_deliver = Simkit.Label.v Net "net.deliver"

module Meter = Obs.Meter

type 'msg envelope = {
  src : Address.t;
  sent_at : Simkit.Time.t;
  payload : 'msg;
}

type config = {
  latency : Simkit.Time.span;
  drop_probability : float;
  duplicate_probability : float;
}

let default_config =
  {
    latency = Simkit.Time.span_us 100;
    drop_probability = 0.0;
    duplicate_probability = 0.0;
  }

type stats = {
  sent : int;
  delivered : int;
  duplicated : int;
  dropped_loss : int;
  dropped_down : int;
  dropped_partition : int;
}

type 'msg endpoint = {
  address : Address.t;
  handler : 'msg envelope -> unit;
  mutable up : bool;
}

type 'msg t = {
  engine : Simkit.Engine.t;
  rng : Simkit.Rng.t;
  sink : Obs.Sink.t;
  (* Maps a payload to (name, txn token, baseline) for its transit span;
     [None] payloads (heartbeats) record nothing. Only consulted when
     spans are recorded. *)
  span_of : 'msg -> (string * int * bool) option;
  (* Maps a payload to its meter tag; only consulted while the meter
     records. *)
  tag_of : 'msg -> int;
  config : config;
  (* Live loss/duplication rates, initialized from [config] and adjustable
     at runtime (fault-injection bursts arm and disarm them mid-run). *)
  mutable drop_probability : float;
  mutable duplicate_probability : float;
  mutable eps : 'msg endpoint array;
  mutable n : int;
  (* Partition cuts: a [cut_width] x [cut_width] byte matrix indexed
     by {!Address.index}, set in both orders, grown on the first cut
     that needs it. [cuts] counts the cut links, so a healthy fabric
     answers [reachable] on one load. *)
  mutable cut : Bytes.t;
  mutable cut_width : int;
  mutable cuts : int;
  (* Reused buffer for [multicast]: the copies it admits, as
     [(endpoint index lsl 1) lor dup]. *)
  mutable fanout : int array;
  mutable sent : int;
  mutable delivered : int;
  mutable duplicated : int;
  mutable dropped_loss : int;
  mutable dropped_down : int;
  mutable dropped_partition : int;
  mutable in_flight : int;
}

(* [what] names the value for the error: "Network.<what> outside [0, 1]". *)
let check_probability ~what p =
  if p < 0.0 || p > 1.0 || Float.is_nan p then
    invalid_arg (Printf.sprintf "Network.%s outside [0, 1]" what)

let create ~engine ~rng ?(sink = Obs.Sink.disabled ())
    ?(span_of = fun _ -> None) ?(tag_of = fun _ -> 0) (config : config) =
  check_probability ~what:"create: drop_probability" config.drop_probability;
  check_probability ~what:"create: duplicate_probability"
    config.duplicate_probability;
  {
    engine;
    rng;
    sink;
    span_of;
    tag_of;
    config;
    drop_probability = config.drop_probability;
    duplicate_probability = config.duplicate_probability;
    eps = [||];
    n = 0;
    cut = Bytes.empty;
    cut_width = 0;
    cuts = 0;
    fanout = [||];
    sent = 0;
    delivered = 0;
    duplicated = 0;
    dropped_loss = 0;
    dropped_down = 0;
    dropped_partition = 0;
    in_flight = 0;
  }

let register t ~name handler =
  let address = Address.unsafe_make ~index:t.n ~name in
  let ep = { address; handler; up = true } in
  if t.n = Array.length t.eps then begin
    let bigger = Array.make (max 8 (2 * t.n)) ep in
    Array.blit t.eps 0 bigger 0 t.n;
    t.eps <- bigger
  end;
  t.eps.(t.n) <- ep;
  t.n <- t.n + 1;
  address

let endpoints t =
  List.init t.n (fun i -> t.eps.(i).address)

let address_at t i =
  if i < 0 || i >= t.n then invalid_arg "Network.address_at: no such endpoint";
  t.eps.(i).address

let endpoint t a =
  let i = Address.index a in
  if i < 0 || i >= t.n then invalid_arg "Network: foreign address";
  t.eps.(i)

let is_cut t ia ib =
  ia < t.cut_width && ib < t.cut_width
  && Bytes.unsafe_get t.cut ((ia * t.cut_width) + ib) <> '\000'

let reachable t a b =
  t.cuts = 0 || not (is_cut t (Address.index a) (Address.index b))

(* Mark the link between [ia] and [ib] cut ('\001') or whole ('\000'),
   in both orders. *)
let set_cut t ia ib v =
  let top = max ia ib in
  if top >= t.cut_width then begin
    let w = max (top + 1) (2 * t.cut_width) in
    let m = Bytes.make (w * w) '\000' in
    for r = 0 to t.cut_width - 1 do
      Bytes.blit t.cut (r * t.cut_width) m (r * w) t.cut_width
    done;
    t.cut <- m;
    t.cut_width <- w
  end;
  Bytes.unsafe_set t.cut ((ia * t.cut_width) + ib) v;
  Bytes.unsafe_set t.cut ((ib * t.cut_width) + ia) v

let set_up t a = (endpoint t a).up <- true
let set_down t a = (endpoint t a).up <- false
let is_up t a = (endpoint t a).up

let partition t left right =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let ia = Address.index a and ib = Address.index b in
          if ia <> ib && not (is_cut t ia ib) then begin
            set_cut t ia ib '\001';
            t.cuts <- t.cuts + 1
          end)
        right)
    left

let journal_heal t =
  Obs.Sink.journal t.sink ~time:(Simkit.Engine.now t.engine) ~node:(-1)
    Obs.Journal.Heal

let heal t =
  if t.cuts > 0 then begin
    journal_heal t;
    Bytes.fill t.cut 0 (Bytes.length t.cut) '\000';
    t.cuts <- 0
  end

let heal_pair t a b =
  let ia = Address.index a and ib = Address.index b in
  if is_cut t ia ib then begin
    journal_heal t;
    set_cut t ia ib '\000';
    t.cuts <- t.cuts - 1
  end

let set_drop_probability t p =
  check_probability ~what:"set_drop_probability: probability" p;
  t.drop_probability <- p

let set_duplicate_probability t p =
  check_probability ~what:"set_duplicate_probability: probability" p;
  t.duplicate_probability <- p

let drop_probability t = t.drop_probability
let duplicate_probability t = t.duplicate_probability

let trace_drop t ~src ~dst reason =
  if Simkit.Trace.is_recording t.sink.trace then
    Simkit.Trace.emitf t.sink.trace
      ~time:(Simkit.Engine.now t.engine)
      ~source:(Address.name src) ~kind:"net.drop" "%s -> %a (%s)"
      (Address.name src) Address.pp dst reason

(* Send-time admission of one message, checked in this order: source
   up, link reachable, the loss draw, then the duplication draw. Books
   the refusal, or the accepted copies (stats, meter, transit spans), and
   returns how many copies go on the wire: 0, 1, or 2 when the
   duplication draw hits. *)
let admit t src_ep ~src ~dst ~mtag ~sent_at ~at payload =
  if not src_ep.up then begin
    t.dropped_down <- t.dropped_down + 1;
    Meter.note_rejected t.sink.meter mtag;
    trace_drop t ~src ~dst "source down";
    0
  end
  else if not (reachable t src dst) then begin
    t.dropped_partition <- t.dropped_partition + 1;
    Meter.note_rejected t.sink.meter mtag;
    trace_drop t ~src ~dst "partitioned";
    0
  end
  else if
    t.drop_probability > 0.0
    && Simkit.Rng.bernoulli t.rng t.drop_probability
  then begin
    t.dropped_loss <- t.dropped_loss + 1;
    Meter.note_rejected t.sink.meter mtag;
    trace_drop t ~src ~dst "loss";
    0
  end
  else begin
    t.sent <- t.sent + 1;
    let copies =
      if
        t.duplicate_probability > 0.0
        && Simkit.Rng.bernoulli t.rng t.duplicate_probability
      then begin
        t.duplicated <- t.duplicated + 1;
        2
      end
      else 1
    in
    t.in_flight <- t.in_flight + copies;
    for _ = 1 to copies do
      Meter.note_sent t.sink.meter mtag;
      if Obs.Tracer.is_recording t.sink.spans then
        match t.span_of payload with
        | None -> ()
        | Some (name, txn, baseline) ->
            Obs.Tracer.span t.sink.spans ~start:sent_at ~stop:at ~txn ~baseline
              ~category:Obs.Span.Network ~track:"net" ~name
    done;
    copies
  end

(* Delivery of one copy, at its instant: the destination down or the
   link cut since the send drop it, otherwise its handler gets the
   message's envelope. The first copy of a message is the logical one;
   a [dup] copy is the duplication fault, classified apart so the
   conservation law stays exact under duplicate bursts. *)
let deliver t dst_ep ~mtag ~dup env =
  let src = env.src and dst = dst_ep.address in
  t.in_flight <- t.in_flight - 1;
  Meter.note_arrival t.sink.meter mtag;
  if not dst_ep.up then begin
    t.dropped_down <- t.dropped_down + 1;
    Meter.note_dropped t.sink.meter mtag;
    trace_drop t ~src ~dst "destination down"
  end
  else if not (reachable t src dst) then begin
    t.dropped_partition <- t.dropped_partition + 1;
    Meter.note_dropped t.sink.meter mtag;
    trace_drop t ~src ~dst "partitioned in flight"
  end
  else begin
    t.delivered <- t.delivered + 1;
    Meter.note_delivered t.sink.meter mtag ~dup;
    let time = Simkit.Engine.now t.engine in
    if Obs.Recorder.is_recording t.sink.recorder then
      Obs.Recorder.record_delivery t.sink.recorder ~time
        ~src:(Address.index src) ~dst:(Address.index dst);
    if Simkit.Trace.is_recording t.sink.trace then
      Simkit.Trace.emitf t.sink.trace ~time ~source:(Address.name dst)
        ~kind:"net.recv" "from %a" Address.pp src;
    dst_ep.handler env
  end

(* One flag load + branch when the meter is off; the negative tag turns
   every note into a no-op without further checks. *)
let meter_tag t payload =
  if Meter.is_recording t.sink.meter then t.tag_of payload else -1

(* Every copy arrives one latency after its send, so a link stays FIFO
   by the engine's (time, sequence) order. *)
let send t ~src ~dst payload =
  let src_ep = endpoint t src and dst_ep = endpoint t dst in
  let mtag = meter_tag t payload in
  let sent_at = Simkit.Engine.now t.engine in
  let at = Simkit.Time.add sent_at t.config.latency in
  let copies = admit t src_ep ~src ~dst ~mtag ~sent_at ~at payload in
  if copies > 0 then begin
    let env = { src; sent_at; payload } in
    for copy = 1 to copies do
      let dup = copy > 1 in
      ignore
        (Simkit.Engine.schedule_at t.engine ~label:label_deliver ~at
           (fun () -> deliver t dst_ep ~mtag ~dup env))
    done
  end

(* [send] to each destination in turn, with the admitted copies queued
   as one engine batch whose members deliver them in admission order,
   all with one envelope. When every destination was admitted exactly
   once the members walk [dsts] itself; only a fan-out that lost or
   duplicated a copy keeps its own list of the admitted ones. *)
let multicast t ~src ~dsts payload =
  let src_ep = endpoint t src in
  let n = Array.length dsts in
  for i = 0 to n - 1 do
    ignore (endpoint t dsts.(i))
  done;
  if Array.length t.fanout < 2 * n then t.fanout <- Array.make (2 * n) 0;
  let mtag = meter_tag t payload in
  let sent_at = Simkit.Engine.now t.engine in
  let at = Simkit.Time.add sent_at t.config.latency in
  let k = ref 0 and each_once = ref true in
  for i = 0 to n - 1 do
    let dst = dsts.(i) in
    let copies = admit t src_ep ~src ~dst ~mtag ~sent_at ~at payload in
    if copies <> 1 then each_once := false;
    for dup = 0 to copies - 1 do
      t.fanout.(!k) <- (Address.index dst lsl 1) lor dup;
      incr k
    done
  done;
  if !k > 0 then begin
    let env = { src; sent_at; payload } in
    let next = ref 0 in
    let member =
      if !each_once then fun () ->
        let dst = dsts.(!next) in
        incr next;
        deliver t t.eps.(Address.index dst) ~mtag ~dup:false env
      else
        let copies = Array.sub t.fanout 0 !k in
        fun () ->
          let c = copies.(!next) in
          incr next;
          deliver t t.eps.(c lsr 1) ~mtag ~dup:(c land 1 = 1) env
    in
    ignore
      (Simkit.Engine.schedule_batch t.engine ~label:label_deliver ~at
         ~count:!k member)
  end

let stats t =
  {
    sent = t.sent;
    delivered = t.delivered;
    duplicated = t.duplicated;
    dropped_loss = t.dropped_loss;
    dropped_down = t.dropped_down;
    dropped_partition = t.dropped_partition;
  }

let in_flight t = t.in_flight
