type 'r batch = {
  b_records : 'r list;
  b_bytes : int;
  b_sync : bool;
  b_epoch : int;
  b_on_durable : unit -> unit;
}

type 'r t = {
  engine : Simkit.Engine.t;
  disk : Disk.t;
  owner : string;
  initiator : int;
  size : 'r -> int;
  header_bytes : int;
  group_commit : bool;
  pending : 'r batch Queue.t;  (* group-commit buffer *)
  mutable inflight : bool;  (* a group request is at the device *)
  (* Device labels, precomputed: submit runs once per log write and must
     not rebuild the same string each time. *)
  label_force : string;
  label_async : string;
  sink : Obs.Sink.t;
  mutable durable_records : 'r list;  (* reversed *)
  mutable durable_count : int;
  mutable durable_bytes : int;
  mutable epoch : int;  (* bumped by [crash]; stale callbacks are dropped *)
  mutable sync_writes : int;
  mutable async_writes : int;
  mutable rejected_writes : int;
  (* Records handed to the log (buffered or at the device) whose write
     has not completed yet — the gauge a sampler reads as "pending /
     unforced". Clamped at zero: a request that was in service when the
     owner crashed still completes and decrements after [crash] reset. *)
  mutable unforced : int;
}

type stats = {
  sync_writes : int;
  async_writes : int;
  rejected_writes : int;
  records_durable : int;
  bytes_durable : int;
}

let create ~engine ~disk ~owner ~initiator ~size ?(header_bytes = 64)
    ?(group_commit = false) ?(sink = Obs.Sink.disabled ()) () =
  if header_bytes < 0 then invalid_arg "Wal.create: negative header_bytes";
  {
    engine;
    disk;
    owner;
    initiator;
    size;
    header_bytes;
    group_commit;
    pending = Queue.create ();
    inflight = false;
    label_force = owner ^ ".log.force";
    label_async = owner ^ ".log.async";
    sink;
    durable_records = [];
    durable_count = 0;
    durable_bytes = 0;
    epoch = 0;
    sync_writes = 0;
    async_writes = 0;
    rejected_writes = 0;
    unforced = 0;
  }

let owner t = t.owner

let write_bytes t records =
  List.fold_left (fun acc r -> acc + t.size r + t.header_bytes) 0 records
  |> max t.header_bytes

(* [bytes] is the write's size: the records' footprints, or one header
   for an empty write, which leaves no record and so adds no bytes. *)
let commit_records t records bytes =
  let n = List.length records in
  List.iter (fun r -> t.durable_records <- r :: t.durable_records) records;
  t.durable_count <- t.durable_count + n;
  if n > 0 then t.durable_bytes <- t.durable_bytes + bytes;
  t.unforced <- max 0 (t.unforced - n)

let count_accepted (t : _ t) ~sync =
  if sync then t.sync_writes <- t.sync_writes + 1
  else t.async_writes <- t.async_writes + 1

(* Group commit: drain everything buffered into one device request. *)
let rec flush_group (t : _ t) =
  if Queue.is_empty t.pending then t.inflight <- false
  else begin
    let batches = List.of_seq (Queue.to_seq t.pending) in
    Queue.clear t.pending;
    let bytes = List.fold_left (fun acc b -> acc + b.b_bytes) 0 batches in
    let outcome =
      Disk.submit t.disk ~initiator:t.initiator ~bytes
        ~label:(Printf.sprintf "%s.log.group(%d)" t.owner (List.length batches))
        ~category:Obs.Span.Log_force
        ~on_complete:(fun () ->
          List.iter
            (fun b ->
              commit_records t b.b_records b.b_bytes;
              if t.epoch = b.b_epoch then b.b_on_durable ())
            batches;
          if Simkit.Trace.is_recording t.sink.trace then
            Simkit.Trace.emitf t.sink.trace
              ~time:(Simkit.Engine.now t.engine)
              ~source:t.owner ~kind:"log.group" "%d batch(es), %dB"
              (List.length batches) bytes;
          flush_group t)
        ()
    in
    match outcome with
    | `Accepted ->
        t.inflight <- true;
        List.iter (fun b -> count_accepted t ~sync:b.b_sync) batches
    | `Rejected ->
        t.rejected_writes <- t.rejected_writes + List.length batches;
        let n =
          List.fold_left
            (fun acc b -> acc + List.length b.b_records)
            0 batches
        in
        t.unforced <- max 0 (t.unforced - n);
        t.inflight <- false

  end

let submit_grouped t ~sync records ~on_durable =
  t.unforced <- t.unforced + List.length records;
  Queue.add
    {
      b_records = records;
      b_bytes = write_bytes t records;
      b_sync = sync;
      b_epoch = t.epoch;
      b_on_durable = on_durable;
    }
    t.pending;
  if Simkit.Trace.is_recording t.sink.trace then
    Simkit.Trace.emitf t.sink.trace
      ~time:(Simkit.Engine.now t.engine)
      ~source:t.owner
      ~kind:(if sync then "log.force" else "log.append")
      "%d record(s) (grouped)" (List.length records);
  if not t.inflight then flush_group t

let submit t ~sync ?(txn = -1) records ~on_durable =
  if t.group_commit then submit_grouped t ~sync records ~on_durable
  else
  let bytes = write_bytes t records in
  let epoch = t.epoch in
  let label = if sync then t.label_force else t.label_async in
  let category = if sync then Obs.Span.Log_force else Obs.Span.Log_append in
  let outcome =
    Disk.submit t.disk ~initiator:t.initiator ~bytes ~label ~txn ~category
      ~on_complete:(fun () ->
        commit_records t records bytes;
        if Simkit.Trace.is_recording t.sink.trace then
          Simkit.Trace.emitf t.sink.trace
            ~time:(Simkit.Engine.now t.engine)
            ~source:t.owner ~kind:"log.durable" "%d record(s), %dB"
            (List.length records) bytes;
        if t.epoch = epoch then on_durable ())
      ()
  in
  match outcome with
  | `Accepted ->
      t.unforced <- t.unforced + List.length records;
      if sync then t.sync_writes <- t.sync_writes + 1
      else t.async_writes <- t.async_writes + 1;
      if Simkit.Trace.is_recording t.sink.trace then
        Simkit.Trace.emitf t.sink.trace
          ~time:(Simkit.Engine.now t.engine)
          ~source:t.owner
          ~kind:(if sync then "log.force" else "log.append")
          "%d record(s), %dB" (List.length records) bytes
  | `Rejected ->
      t.rejected_writes <- t.rejected_writes + 1;
      if Simkit.Trace.is_recording t.sink.trace then
        Simkit.Trace.emitf t.sink.trace
          ~time:(Simkit.Engine.now t.engine)
          ~source:t.owner ~kind:"log.rejected" "%d record(s)"
          (List.length records)

let force ?txn t records ~on_durable = submit t ~sync:true ?txn records ~on_durable

let append_async ?txn ?(on_durable = fun () -> ()) t records =
  submit t ~sync:false ?txn records ~on_durable

let durable t = List.rev t.durable_records
let durable_bytes t = t.durable_bytes

let crash t =
  t.epoch <- t.epoch + 1;
  (* Buffered-but-unsubmitted group-commit appends die with the host,
     and so may a group request still queued at the device (the fencing/
     crash expel discards it without completing) — its completion will
     never re-arm the pump, so reset it here. A surviving in-service
     request completing later just pumps once more, which is harmless. *)
  Queue.clear t.pending;
  t.inflight <- false;
  (* Everything in flight either died with the host (expelled from the
     device queue) or will decrement through the clamped commit path. *)
  t.unforced <- 0
let restart t = ignore t

let unforced t = t.unforced

(* Drop the records [keep] rejects, taking each off the count and the
   footprint as it goes. The list after the last dropped record is
   shared, so nothing is copied when nothing is dropped. *)
let rec drop_unkept t keep = function
  | [] -> []
  | r :: rest as l ->
      if keep r then
        let rest' = drop_unkept t keep rest in
        if rest' == rest then l else r :: rest'
      else begin
        t.durable_count <- t.durable_count - 1;
        t.durable_bytes <- t.durable_bytes - t.size r - t.header_bytes;
        drop_unkept t keep rest
      end

let gc t ~keep =
  let count = t.durable_count in
  t.durable_records <- drop_unkept t keep t.durable_records;
  if t.durable_count < count && Simkit.Trace.is_recording t.sink.trace then
    Simkit.Trace.emitf t.sink.trace
      ~time:(Simkit.Engine.now t.engine)
      ~source:t.owner ~kind:"log.gc" "%d record(s) collected"
      (count - t.durable_count)

let stats (t : _ t) =
  {
    sync_writes = t.sync_writes;
    async_writes = t.async_writes;
    rejected_writes = t.rejected_writes;
    records_durable = t.durable_count;
    bytes_durable = t.durable_bytes;
  }
