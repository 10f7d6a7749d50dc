let label_complete = Simkit.Label.v Storage "disk.complete"

type config = { bandwidth_bytes_per_s : int; block_bytes : int }

let default_config = { bandwidth_bytes_per_s = 400_000; block_bytes = 4096 }

type request = {
  initiator : int;
  bytes : int;
  label : string;
  txn : int;
  category : Obs.Span.category;
  (* Open queue-wait span, -1 when none; closed when service starts or
     the request is purged by [expel]. *)
  mutable qspan : int;
  on_complete : unit -> unit;
}

type stats = {
  requests_completed : int;
  bytes_transferred : int;
  requests_dropped : int;
  requests_rejected : int;
  busy_time : Simkit.Time.span;
}

type t = {
  engine : Simkit.Engine.t;
  sink : Obs.Sink.t;
  config : config;
  (* Service-time multiplier (1.0 = nominal bandwidth). Fault injection
     arms transient degradations (> 1 slows the device) at runtime. *)
  mutable slowdown : float;
  (* FIFO of waiting requests as a circular buffer over [ring]:
     [count] live entries starting at [head]. Vacated slots are reset to
     [no_request] so completed closures don't outlive their request. *)
  mutable ring : request array;
  mutable head : int;
  mutable count : int;
  mutable in_service : request option;
  mutable service_done_at : Simkit.Time.t;
  expelled : (int, unit) Hashtbl.t;
  mutable requests_completed : int;
  mutable bytes_transferred : int;
  mutable requests_dropped : int;
  mutable requests_rejected : int;
  mutable busy_time : Simkit.Time.span;
}

let no_request =
  {
    initiator = -1;
    bytes = 0;
    label = "";
    txn = -1;
    category = Obs.Span.Other;
    qspan = -1;
    on_complete = ignore;
  }

let ring_push t req =
  let cap = Array.length t.ring in
  if t.count = cap then begin
    let bigger = Array.make (max 16 (2 * cap)) no_request in
    for i = 0 to t.count - 1 do
      bigger.(i) <- t.ring.((t.head + i) mod cap)
    done;
    t.ring <- bigger;
    t.head <- 0
  end;
  let cap = Array.length t.ring in
  t.ring.((t.head + t.count) mod cap) <- req;
  t.count <- t.count + 1

(* Caller checks [t.count > 0]. *)
let ring_pop t =
  let req = t.ring.(t.head) in
  t.ring.(t.head) <- no_request;
  t.head <- (t.head + 1) mod Array.length t.ring;
  t.count <- t.count - 1;
  req

let ring_iter t f =
  let cap = Array.length t.ring in
  for i = 0 to t.count - 1 do
    f t.ring.((t.head + i) mod cap)
  done

let create ~engine ?(sink = Obs.Sink.disabled ()) config =
  if config.bandwidth_bytes_per_s <= 0 then
    invalid_arg "Disk.create: bandwidth <= 0";
  if config.block_bytes <= 0 then invalid_arg "Disk.create: block_bytes <= 0";
  {
    engine;
    sink;
    config;
    slowdown = 1.0;
    ring = [||];
    head = 0;
    count = 0;
    in_service = None;
    service_done_at = Simkit.Time.zero;
    expelled = Hashtbl.create 8;
    requests_completed = 0;
    bytes_transferred = 0;
    requests_dropped = 0;
    requests_rejected = 0;
    busy_time = Simkit.Time.zero_span;
  }

let transfer_span t ~bytes =
  if bytes < 0 then invalid_arg "Disk.transfer_span: negative size";
  let blocks = (bytes + t.config.block_bytes - 1) / t.config.block_bytes in
  let payload = blocks * t.config.block_bytes in
  (* ns = bytes * 1e9 / bandwidth; sizes in this simulator are far below
     the ~9.2e9-byte overflow point of this product. The nominal case
     stays pure integer arithmetic so runs without degradation are
     bit-for-bit identical to a build without the knob. *)
  let ns = payload * 1_000_000_000 / t.config.bandwidth_bytes_per_s in
  if t.slowdown = 1.0 then Simkit.Time.span_ns ns
  else Simkit.Time.span_ns (int_of_float ((float_of_int ns *. t.slowdown) +. 0.5))

let set_slowdown t factor =
  if not (Float.is_finite factor) || factor <= 0.0 then
    invalid_arg "Disk.set_slowdown: factor must be positive";
  t.slowdown <- factor

let slowdown t = t.slowdown

let is_expelled t ~initiator =
  Hashtbl.length t.expelled > 0 && Hashtbl.mem t.expelled initiator

let rec start_next t =
  if t.count = 0 then t.in_service <- None
  else begin
    let req = ring_pop t in
    if is_expelled t ~initiator:req.initiator then begin
      (* Dropped while waiting: skip without servicing. *)
      t.requests_dropped <- t.requests_dropped + 1;
      Obs.Tracer.finish t.sink.spans
        ~time:(Simkit.Engine.now t.engine)
        req.qspan;
      start_next t
    end
    else begin
        t.in_service <- Some req;
        let span = transfer_span t ~bytes:req.bytes in
        let now = Simkit.Engine.now t.engine in
        t.service_done_at <- Simkit.Time.add now span;
        t.busy_time <- Simkit.Time.add_span t.busy_time span;
        Obs.Tracer.finish t.sink.spans ~time:now req.qspan;
        Obs.Tracer.span t.sink.spans ~start:now ~stop:t.service_done_at
          ~txn:req.txn ~baseline:false ~category:req.category ~track:"disk"
          ~name:req.label;
        if Simkit.Trace.is_recording t.sink.trace then
          Simkit.Trace.emitf t.sink.trace ~time:now ~source:"disk"
            ~kind:"io.start" "%s (%dB, %a)" req.label req.bytes
            Simkit.Time.pp_span span;
        ignore
          (Simkit.Engine.schedule t.engine ~label:label_complete ~after:span
             (fun () ->
               t.in_service <- None;
               t.requests_completed <- t.requests_completed + 1;
               t.bytes_transferred <- t.bytes_transferred + req.bytes;
               if Simkit.Trace.is_recording t.sink.trace then
                 Simkit.Trace.emitf t.sink.trace
                   ~time:(Simkit.Engine.now t.engine)
                   ~source:"disk" ~kind:"io.done" "%s" req.label;
               req.on_complete ();
               start_next t))
    end
  end

let submit t ~initiator ~bytes ?(label = "io") ?(txn = -1)
    ?(category = Obs.Span.Other) ~on_complete () =
  if bytes < 0 then invalid_arg "Disk.submit: negative size";
  if is_expelled t ~initiator then begin
    t.requests_rejected <- t.requests_rejected + 1;
    `Rejected
  end
  else begin
    let qspan =
      Obs.Tracer.start t.sink.spans
        ~time:(Simkit.Engine.now t.engine)
        ~txn ~category:Obs.Span.Disk_queue ~track:"disk.queue" ~name:label
    in
    ring_push t { initiator; bytes; label; txn; category; qspan; on_complete };
    (match t.in_service with None -> start_next t | Some _ -> ());
    `Accepted
  end

let expel t ~initiator =
  if not (is_expelled t ~initiator) then begin
    Hashtbl.replace t.expelled initiator ();
    (* Queued requests from the victim are purged eagerly so that
       [queue_depth] reflects reality; the in-service request, if the
       victim's, still completes. *)
    let survivors = ref [] in
    let now = Simkit.Engine.now t.engine in
    ring_iter t (fun req ->
        if req.initiator = initiator then begin
          t.requests_dropped <- t.requests_dropped + 1;
          Obs.Tracer.finish t.sink.spans ~time:now req.qspan
        end
        else survivors := req :: !survivors);
    Array.fill t.ring 0 (Array.length t.ring) no_request;
    t.head <- 0;
    t.count <- 0;
    List.iter (ring_push t) (List.rev !survivors)
  end

let readmit t ~initiator = Hashtbl.remove t.expelled initiator

let queue_depth t =
  t.count + match t.in_service with Some _ -> 1 | None -> 0

let busy_until t =
  let now = Simkit.Engine.now t.engine in
  match t.in_service with
  | None -> now
  | Some _ ->
      (* The waiting queue extends beyond the in-service request. *)
      let finish = ref t.service_done_at in
      ring_iter t (fun req ->
          finish := Simkit.Time.add !finish (transfer_span t ~bytes:req.bytes));
      if Simkit.Time.( < ) !finish now then now else !finish

let stats t =
  {
    requests_completed = t.requests_completed;
    bytes_transferred = t.bytes_transferred;
    requests_dropped = t.requests_dropped;
    requests_rejected = t.requests_rejected;
    busy_time = t.busy_time;
  }
