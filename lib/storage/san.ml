let label_fenced = Simkit.Label.v Storage "san.fenced"

type config = {
  disk : Disk.config;
  fencing_delay : Simkit.Time.span;
  header_bytes : int;
  shared_device : bool;
  group_commit : bool;
}

let default_config =
  {
    disk = Disk.default_config;
    fencing_delay = Simkit.Time.span_ms 10;
    header_bytes = 64;
    shared_device = true;
    group_commit = false;
  }

type 'r t = {
  engine : Simkit.Engine.t;
  sink : Obs.Sink.t;
  config : config;
  shared : Disk.t option;  (* the single device, when shared *)
  mutable partition_devices : (int * Disk.t) list;  (* owner -> device *)
  size : 'r -> int;
  partitions : (int, 'r Wal.t) Hashtbl.t;
  fenced : (int, unit) Hashtbl.t;
  mutable fencing_available : bool;
}

let create ~engine ?(sink = Obs.Sink.disabled ()) ~size config =
  {
    engine;
    sink;
    config;
    shared =
      (if config.shared_device then Some (Disk.create ~engine ~sink config.disk)
       else None);
    partition_devices = [];
    size;
    partitions = Hashtbl.create 8;
    fenced = Hashtbl.create 8;
    fencing_available = true;
  }

let set_fencing_available t b = t.fencing_available <- b

let disk t =
  match t.shared with
  | Some d -> d
  | None -> invalid_arg "San.disk: no shared device (see San.devices)"

let devices t =
  match t.shared with
  | Some d -> [ d ]
  | None -> List.map snd t.partition_devices

let device_of t idx =
  match t.shared with
  | Some d -> d
  | None -> (
      match List.assoc_opt idx t.partition_devices with
      | Some d -> d
      | None -> invalid_arg "San: unknown partition")

let device_for t a = device_of t (Netsim.Address.index a)

let expel_everywhere t ~initiator =
  List.iter (fun d -> Disk.expel d ~initiator) (devices t)

let readmit_everywhere t ~initiator =
  List.iter (fun d -> Disk.readmit d ~initiator) (devices t)

let add_partition t ~owner =
  let idx = Netsim.Address.index owner in
  if Hashtbl.mem t.partitions idx then
    invalid_arg "San.add_partition: owner already registered";
  let device =
    match t.shared with
    | Some d -> d
    | None ->
        let d = Disk.create ~engine:t.engine ~sink:t.sink t.config.disk in
        t.partition_devices <- (idx, d) :: t.partition_devices;
        d
  in
  let wal =
    Wal.create ~engine:t.engine ~disk:device
      ~owner:(Netsim.Address.name owner) ~initiator:idx ~size:t.size
      ~header_bytes:t.config.header_bytes
      ~group_commit:t.config.group_commit ~sink:t.sink ()
  in
  Hashtbl.replace t.partitions idx wal;
  wal

let wal t owner = Hashtbl.find t.partitions (Netsim.Address.index owner)

let is_fenced t a = Hashtbl.mem t.fenced (Netsim.Address.index a)

let fence t ~victim ~on_fenced =
  if not t.fencing_available then
    (* The fencing controller is unreachable: the request is lost and the
       callback never fires — the caller's own retries (or a human) must
       get it unstuck. This is the availability hazard L1PC removes. *)
    Simkit.Trace.emitf t.sink.trace
      ~time:(Simkit.Engine.now t.engine)
      ~source:"san" ~kind:"fence.unavailable" "victim %a" Netsim.Address.pp
      victim
  else begin
  let idx = Netsim.Address.index victim in
  expel_everywhere t ~initiator:idx;
  Hashtbl.replace t.fenced idx ();
  Simkit.Trace.emitf t.sink.trace
    ~time:(Simkit.Engine.now t.engine)
    ~source:"san" ~kind:"fence" "victim %a" Netsim.Address.pp victim;
  if Obs.Journal.is_recording t.sink.journal then
    Obs.Sink.journal t.sink
      ~time:(Simkit.Engine.now t.engine)
      ~node:idx
      (Obs.Journal.Fence_begin { victim = idx });
  let on_fenced () =
    if Obs.Journal.is_recording t.sink.journal then
      Obs.Sink.journal t.sink
        ~time:(Simkit.Engine.now t.engine)
        ~node:idx
        (Obs.Journal.Fence_end { victim = idx });
    on_fenced ()
  in
  ignore
    (Simkit.Engine.schedule t.engine ~label:label_fenced
       ~after:t.config.fencing_delay on_fenced)
  end

let unfence t a =
  let idx = Netsim.Address.index a in
  Hashtbl.remove t.fenced idx;
  readmit_everywhere t ~initiator:idx

let read_partition t ~reader ~target ~on_read =
  let wal = wal t target in
  if not (Netsim.Address.equal reader target || is_fenced t target) then
    invalid_arg
      (Printf.sprintf
         "San.read_partition: %s reading %s's log without fencing \
          (split-brain hazard)"
         (Netsim.Address.name reader)
         (Netsim.Address.name target));
  let bytes = Wal.durable_bytes wal in
  let reader_idx = Netsim.Address.index reader in
  let target_idx = Netsim.Address.index target in
  let outcome =
    Disk.submit
      (device_of t target_idx)
      ~initiator:reader_idx
      ~bytes
      ~label:
        (Printf.sprintf "%s.read(%s)"
           (Netsim.Address.name reader)
           (Netsim.Address.name target))
      ~on_complete:(fun () ->
        if Obs.Journal.is_recording t.sink.journal then
          Obs.Sink.journal t.sink
            ~time:(Simkit.Engine.now t.engine)
            ~node:reader_idx
            (Obs.Journal.Scan_end
               { target = target_idx; records = (Wal.stats wal).records_durable });
        on_read (Wal.durable wal))
      ()
  in
  match outcome with
  | `Accepted ->
      if Obs.Journal.is_recording t.sink.journal then begin
        let time = Simkit.Engine.now t.engine in
        Obs.Sink.journal t.sink ~time ~node:reader_idx
          (Obs.Journal.Mount { target = target_idx });
        Obs.Sink.journal t.sink ~time ~node:reader_idx
          (Obs.Journal.Scan_begin { target = target_idx })
      end
  | `Rejected ->
      (* The reader itself is fenced: it is about to be power-cycled, so
         the read silently never completes — exactly what the victim of a
         STONITH observes. *)
      Simkit.Trace.emitf t.sink.trace
        ~time:(Simkit.Engine.now t.engine)
        ~source:"san" ~kind:"read.rejected" "%a reading %a"
        Netsim.Address.pp reader Netsim.Address.pp target
