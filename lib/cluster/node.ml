let label_compute = Simkit.Label.v Cluster "compute"
let label_read_compute = Simkit.Label.v Cluster "read.compute"
let label_heartbeat = Simkit.Label.v Cluster "heartbeat"

type services = {
  engine : Simkit.Engine.t;
  sink : Obs.Sink.t;
  network : Msg.t Netsim.Network.t;
  san : Acp.Log_record.t Storage.San.t;
  ledger : Metrics.Ledger.t;
  config : Config.t;
  client_reply : Acp.Txn.id -> Acp.Txn.outcome -> unit;
  stonith : Netsim.Address.t -> unit;
  lock_hold : Metrics.Histogram.t;
}

(* Ledger counters bumped once per message, log write or transaction. *)
type counters = {
  msg_total : Metrics.Ledger.counter;
  msg_acp : Metrics.Ledger.counter;
  (* Per wire tag, keyed "msg." ^ label; bound on the tag's first send,
     when a message names the label. *)
  msg_by_tag : Metrics.Ledger.counter option array;
  log_sync : Metrics.Ledger.counter;
  log_async : Metrics.Ledger.counter;
  txn_local : Metrics.Ledger.counter;
  txn_read : Metrics.Ledger.counter;
}

type t = {
  sv : services;
  server : int;
  address : Netsim.Address.t;
  wal : Acp.Log_record.t Storage.Wal.t;
  store : Mds.Store.t;
  (* The transactions whose updates reached the durable image, by
     [Txn.id.seq] (a key on its own: see {!Acp.Txn.id}); survives
     crashes. *)
  hardened : Simkit.Bitset.t;
  counters : counters;
  mutable up : bool;
  mutable serving : bool;  (* up and past recovery *)
  mutable epoch : int;
  mutable locks : Locks.Lock_manager.t;
  mutable detector : Netsim.Failure_detector.t option;
  mutable ctx : Acp.Context.t option;  (* this incarnation's; None when down *)
  mutable primary : Acp.Protocol.instance option;
  mutable fallback : Acp.Protocol.instance option;
}

let address t = t.address
let server t = t.server
let is_up t = t.up
let is_serving t = t.up && t.serving
let store t = t.store
let locks t = t.locks
let wal t = t.wal

let name t = Netsim.Address.name t.address

let trace_node t ~kind detail =
  Simkit.Trace.emit t.sv.sink.trace
    ~time:(Simkit.Engine.now t.sv.engine)
    ~source:(name t) ~kind detail

let journal_node t kind =
  Obs.Sink.journal t.sv.sink
    ~time:(Simkit.Engine.now t.sv.engine)
    ~node:t.server kind

(* Every registered endpoint is a metadata server; everyone but us is a
   peer (clients do not sit on the simulated interconnect). *)
let peers t =
  List.filter
    (fun a -> not (Netsim.Address.equal a t.address))
    (Netsim.Network.endpoints t.sv.network)

(* ------------------------------------------------------------------ *)
(* Message routing                                                     *)
(* ------------------------------------------------------------------ *)

(* With a 1PC primary and a PrN fallback on the same server, route each
   message to the engine that owns the transaction. Unknown transactions
   go by message shape: 1PC traffic to the primary, 2PC traffic to the
   fallback, whose unknown-transaction answers are the conservative
   ones. So do recovery messages, which name no transaction. *)
let by_shape p fb : Acp.Wire.t -> Acp.Protocol.instance = function
  | Acp.Wire.Update_req { one_phase; _ } -> if one_phase then p else fb
  | Acp.Wire.Ack_req _ -> p
  | Acp.Wire.Prepare _ | Acp.Wire.Prepared _ | Acp.Wire.Commit _
  | Acp.Wire.Abort _ | Acp.Wire.Decision _ | Acp.Wire.Decision_req _ ->
      fb
  | Acp.Wire.Updated _ | Acp.Wire.Ack _ -> p
  | Acp.Wire.Vote_req _ | Acp.Wire.Vote _ | Acp.Wire.Rep_store _
  | Acp.Wire.Rep_ack _ | Acp.Wire.Decide _ | Acp.Wire.Decide_ack _
  | Acp.Wire.Rep_drop _ | Acp.Wire.Recover_req _ | Acp.Wire.Recover_resp _ ->
      p

let dispatch t ~src (wire : Acp.Wire.t) =
  match (t.primary, t.fallback) with
  | Some p, None -> p.Acp.Protocol.on_message ~src wire
  | Some p, Some fb ->
      let target =
        if Acp.Wire.is_recovery wire then by_shape p fb wire
        else
          let id = Acp.Wire.txn wire in
          if p.Acp.Protocol.owns id then p
          else if fb.Acp.Protocol.owns id then fb
          else by_shape p fb wire
      in
      target.Acp.Protocol.on_message ~src wire
  | None, _ -> ()

let handle_envelope t (env : Msg.t Netsim.Network.envelope) =
  if t.up then begin
    (match t.detector with
    | Some d -> Netsim.Failure_detector.heard_from d env.src
    | None -> ());
    match env.payload with
    | Msg.Heartbeat -> ()
    | Msg.Acp wire ->
        (* A server still replaying its log does not serve protocol
           traffic; peers retransmit on their timers. Quorum-read
           recovery messages are the exception: a restarting L1PC node
           must be able to ask a peer that is itself mid-recovery (or
           vice versa), or two nodes felled by the same burst would
           deadlock waiting for each other to start serving. *)
        if t.serving || Acp.Wire.is_recovery wire then
          dispatch t ~src:env.src wire
  end

(* ------------------------------------------------------------------ *)
(* Protocol context                                                    *)
(* ------------------------------------------------------------------ *)

(* Attribute a log write to the transaction of its first record — every
   force/append in the protocols carries records of a single txn. *)
let txn_of_records = function
  | [] -> -1
  | r :: _ -> Acp.Txn.owner_token (Acp.Log_record.txn r)

let count_msg t wire =
  let c = t.counters in
  Metrics.Ledger.bump c.msg_total;
  let tag = Acp.Codec.tag wire in
  (match c.msg_by_tag.(tag) with
  | Some by_tag -> Metrics.Ledger.bump by_tag
  | None ->
      let by_tag =
        Metrics.Ledger.counter t.sv.ledger ("msg." ^ Acp.Wire.label wire)
      in
      c.msg_by_tag.(tag) <- Some by_tag;
      Metrics.Ledger.bump by_tag);
  if not (Acp.Wire.is_baseline wire) then Metrics.Ledger.bump c.msg_acp

let harden_once t (id : Acp.Txn.id) updates =
  let fresh = not (Simkit.Bitset.mem t.hardened id.seq) in
  if fresh then begin
    Simkit.Bitset.add t.hardened id.seq;
    Mds.Store.commit_durable t.store updates
  end;
  fresh

(* Every service of a dead incarnation is a no-op. The per-call
   services test [alive ()] inline rather than through a helper that
   takes the body as a closure, which would allocate on every call. *)
let make_context t =
  let epoch = t.epoch in
  let alive () = t.up && t.epoch = epoch in
  {
    Acp.Context.engine = t.sv.engine;
    self = t.address;
    self_server = t.server;
    address_of = Netsim.Network.address_at t.sv.network;
    send =
      (fun ~dst wire ->
        if alive () then begin
          count_msg t wire;
          if Simkit.Trace.is_recording t.sv.sink.trace then
            Simkit.Trace.emitf t.sv.sink.trace
              ~time:(Simkit.Engine.now t.sv.engine)
              ~source:(name t) ~kind:"send" "%a -> %a" Acp.Wire.pp wire
              Netsim.Address.pp dst;
          Netsim.Network.send t.sv.network ~src:t.address ~dst (Msg.Acp wire)
        end);
    force =
      (fun records ~on_durable ->
        if alive () then begin
          Metrics.Ledger.bump t.counters.log_sync;
          let txn = txn_of_records records in
          Storage.Wal.force ~txn t.wal records ~on_durable:(fun () ->
              if alive () then on_durable ())
        end);
    append_async =
      (fun ?on_durable records ->
        if alive () then begin
          Metrics.Ledger.bump t.counters.log_async;
          let on_durable =
            match on_durable with
            | None -> ignore
            | Some f -> fun () -> if alive () then f ()
          in
          let txn = txn_of_records records in
          Storage.Wal.append_async ~txn ~on_durable t.wal records
        end);
    log_gc =
      (fun txn ->
        Storage.Wal.gc t.wal ~keep:(fun r ->
            not (Acp.Txn.id_equal (Acp.Log_record.txn r) txn)));
    own_log = (fun () -> Storage.Wal.durable t.wal);
    fence_and_read =
      (fun ~target ~on_read ->
        (* The victim can reboot inside the fencing window — a restart
           already scheduled before we fenced readmits it (self-unfence
           in [bring_up]) and breaks our fence. Reading then would be
           the split-brain hazard the SAN guards against, so re-fence
           and try again; the STONITH power-off keeps the victim from
           bouncing back faster than the fencing delay. *)
        let rec attempt () =
          Storage.San.fence t.sv.san ~victim:target ~on_fenced:(fun () ->
              if alive () then begin
                t.sv.stonith target;
                if Storage.San.is_fenced t.sv.san target then
                  Storage.San.read_partition t.sv.san ~reader:t.address
                    ~target
                    ~on_read:(fun records ->
                      if alive () then on_read (Acp.Log_scan.scan records))
                else begin
                  if Simkit.Trace.is_recording t.sv.sink.trace then
                    trace_node t ~kind:"txn.fence"
                      (Printf.sprintf "%s rebooted mid-fence; fencing again"
                         (Netsim.Address.name target));
                  attempt ()
                end
              end)
        in
        if alive () then attempt ());
    locks = t.locks;
    store = t.store;
    harden =
      (fun txn updates ->
        (* During recovery the cache was rebuilt from the durable image
           *before* this transaction was applied to it, so the volatile
           view lacks these updates too; in normal operation the
           executing transaction already applied them. *)
        if harden_once t txn updates && not t.serving then
          Mds.Store.replay_durable_to_volatile t.store updates);
    is_hardened = (fun txn -> Simkit.Bitset.mem t.hardened txn.Acp.Txn.seq);
    compute =
      (fun ~n k ->
        let span = Simkit.Time.mul_span Config.method_latency n in
        ignore
          (Simkit.Engine.schedule t.sv.engine ~label:label_compute ~after:span
             (fun () -> if alive () then k ())));
    set_timer = Acp.Context.slot_timer t.sv.engine ~alive;
    timeout = t.sv.config.Config.txn_timeout;
    resend_interval =
      Option.value t.sv.config.Config.resend_interval
        ~default:t.sv.config.Config.txn_timeout;
    max_soft_retries = t.sv.config.Config.max_soft_retries;
    tombstone_ttl =
      Option.value t.sv.config.Config.tombstone_ttl
        ~default:(Simkit.Time.mul_span t.sv.config.Config.txn_timeout 8);
    tombstone_cap = t.sv.config.Config.tombstone_cap;
    replicas =
      (* L1PC's replica group: the two ring successors by server slot
         (fewer on tiny clusters). Deterministic, no discovery round,
         evenly spread. Two because the vote is cast on the first
         REP_ACK, and the second copy keeps the recovery quorum read
         answerable while one group member is down too. *)
      (let n = List.length (Netsim.Network.endpoints t.sv.network) in
       List.init (min 2 (max (n - 1) 0)) (fun i -> (t.server + i + 1) mod n));
    suspects =
      (fun peer ->
        match t.detector with
        | Some d -> Netsim.Failure_detector.is_suspected d peer
        | None -> false);
    ledger = t.sv.ledger;
    sink = t.sv.sink;
    client_reply =
      (fun txn outcome -> if alive () then t.sv.client_reply txn outcome);
    lock_hold =
      (fun ~locked_at ->
        if alive () then
          Metrics.Histogram.record t.sv.lock_hold
            (Simkit.Time.diff (Simkit.Engine.now t.sv.engine) locked_at));
    alive;
  }

(* The context's locks field is captured at build time, but the manager
   is replaced on restart — so contexts are rebuilt (with the new epoch)
   on every boot, never reused across incarnations. *)

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create sv ~server ~root =
  let holder = ref None in
  let address =
    Netsim.Network.register sv.network
      ~name:(Printf.sprintf "mds%d" server)
      (fun env ->
        match !holder with Some t -> handle_envelope t env | None -> ())
  in
  let wal = Storage.San.add_partition sv.san ~owner:address in
  let t =
    {
      sv;
      server;
      address;
      wal;
      store =
        Mds.Store.create ~name:(Netsim.Address.name address) ~root;
      hardened = Simkit.Bitset.create 256;
      counters =
        (let counter = Metrics.Ledger.counter sv.ledger in
         {
           msg_total = counter "msg.total";
           msg_acp = counter "msg.acp";
           msg_by_tag = Array.make Acp.Codec.tag_count None;
           log_sync = counter "log.sync";
           log_async = counter "log.async";
           txn_local = counter "txn.local";
           txn_read = counter "txn.read";
         });
      up = false;
      serving = false;
      epoch = 0;
      locks =
        Locks.Lock_manager.create ~engine:sv.engine ~sink:sv.sink
          ~name:(Netsim.Address.name address ^ ".locks")
          ();
      detector = None;
      ctx = None;
      primary = None;
      fallback = None;
    }
  in
  holder := Some t;
  t

(* The incarnation [epoch]'s heartbeat timer: one closure that beats
   and re-arms itself with itself. [peers] is built once per
   incarnation (the endpoint set is fixed once the cluster is
   assembled) and never changed, as [Network.multicast] reads it until
   the beat's copies land. *)
let heartbeat t epoch peers =
  let rec beat () =
    if t.up && t.epoch = epoch then begin
      if Storage.San.is_fenced t.sv.san t.address then begin
        (* Disk-lease check. Fencing assumes a STONITH follows, but when
           two nodes fence each other concurrently the loser's fencer
           can die (STONITH'd by us) before power-cycling us back —
           leaving a zombie: expelled from the SAN, every log write
           silently rejected, yet still heartbeating so no peer ever
           suspects or recovers us, and every transaction we touch is
           stuck forever (found via the seed-802 incident bundle; see
           EXPERIMENTS.md). Like a SAN file system losing its disk
           lease, a live node that finds itself fenced panics:
           power-cycle now and rejoin through the normal recovery path
           instead of serving without a log. *)
        trace_node t ~kind:"node.panic" "fenced while live; power-cycling";
        Metrics.Ledger.incr t.sv.ledger "node.self_fence";
        t.sv.stonith t.address
      end
      else begin
        Netsim.Network.multicast t.sv.network ~src:t.address ~dsts:peers
          Msg.Heartbeat;
        ignore
          (Simkit.Engine.schedule t.sv.engine ~label:label_heartbeat
             ~after:t.sv.config.Config.heartbeat_interval beat)
      end
    end
  in
  beat

let bring_up ?(on_recovered = fun () -> ()) t ~recover =
  t.up <- true;
  t.epoch <- t.epoch + 1;
  Netsim.Network.set_up t.sv.network t.address;
  Storage.San.unfence t.sv.san t.address;
  Storage.Wal.restart t.wal;
  t.locks <-
    Locks.Lock_manager.create ~engine:t.sv.engine ~sink:t.sv.sink
      ~name:(name t ^ ".locks")
      ();
  let ctx = make_context t in
  let primary = Acp.Protocol.instantiate t.sv.config.Config.protocol ctx in
  let fallback =
    match Acp.Protocol.max_workers t.sv.config.Config.protocol with
    | Some _ -> Some (Acp.Protocol.instantiate Acp.Protocol.Prn ctx)
    | None -> None
  in
  t.ctx <- Some ctx;
  t.primary <- Some primary;
  t.fallback <- fallback;
  let epoch = t.epoch in
  let peers = peers t in
  let on_suspect peer =
    if t.up && t.epoch = epoch then begin
      if Simkit.Trace.is_recording t.sv.sink.trace then
        trace_node t ~kind:"detector"
          (Printf.sprintf "suspecting %s" (Netsim.Address.name peer));
      if Obs.Journal.is_recording t.sv.sink.journal then
        journal_node t
          (Obs.Journal.Suspect { peer = Netsim.Address.index peer });
      primary.Acp.Protocol.on_suspect peer;
      match fallback with
      | Some fb -> fb.Acp.Protocol.on_suspect peer
      | None -> ()
    end
  in
  let detector =
    Netsim.Failure_detector.create ~engine:t.sv.engine
      ~timeout:t.sv.config.Config.detector_timeout
      ~peers ~on_suspect ()
  in
  t.detector <- Some detector;
  Netsim.Failure_detector.start detector;
  heartbeat t epoch (Array.of_list peers) ();
  if not recover then begin
    t.serving <- true;
    journal_node t Obs.Journal.Serving
  end
  else begin
    (* Recovery first reads the whole log partition back from the
       shared device — charged like any other I/O — and only then
       resolves in-doubt transactions and resumes service. *)
    t.serving <- false;
    let bytes = Storage.Wal.durable_bytes t.wal in
    let outcome =
      Storage.Disk.submit
        (Storage.San.device_for t.sv.san t.address)
        ~initiator:(Netsim.Address.index t.address)
        ~bytes
        ~label:(name t ^ ".recovery.scan")
        ~on_complete:(fun () ->
          if t.up && t.epoch = epoch then begin
            trace_node t ~kind:"node.recover" "running recovery";
            if Obs.Journal.is_recording t.sv.sink.journal then
              journal_node t
                (Obs.Journal.Scan_end
                   {
                     target = t.server;
                     records =
                       (Storage.Wal.stats t.wal).Storage.Wal.records_durable;
                   });
            (* Logged protocols recover synchronously (their [on_done]
               fires inline, preserving the historical event order);
               L1PC's quorum read completes asynchronously, and the node
               must not serve until the parked votes are re-installed. *)
            let finish () =
              if t.up && t.epoch = epoch then begin
                t.serving <- true;
                journal_node t Obs.Journal.Serving;
                on_recovered ()
              end
            in
            primary.Acp.Protocol.recover ~on_done:(fun () ->
                if t.up && t.epoch = epoch then
                  match fallback with
                  | Some fb -> fb.Acp.Protocol.recover ~on_done:finish
                  | None -> finish ())
          end)
        ()
    in
    match outcome with
    | `Accepted ->
        if Obs.Journal.is_recording t.sv.sink.journal then
          journal_node t (Obs.Journal.Scan_begin { target = t.server })
    | `Rejected ->
        (* Still fenced at the instant of reboot (our unfence raced a
           concurrent fence): come back through another power cycle. *)
        trace_node t ~kind:"node.recover" "recovery scan rejected (fenced)"
  end

let boot t =
  if not t.up then begin
    trace_node t ~kind:"node.boot" "first start";
    bring_up t ~recover:false
  end

let crash t =
  if t.up then begin
    trace_node t ~kind:"node.crash" "power off";
    Metrics.Ledger.incr t.sv.ledger "node.crash";
    journal_node t Obs.Journal.Crash;
    t.up <- false;
    t.serving <- false;
    t.epoch <- t.epoch + 1;
    Netsim.Network.set_down t.sv.network t.address;
    (* Host-queued I/O dies with the host: only the transfer already in
       service at the device completes. The restart path readmits us
       (via San.unfence). Without this, writes issued before the crash
       would surface in the log after recovery already scanned it. *)
    Storage.San.expel_everywhere t.sv.san
      ~initiator:(Netsim.Address.index t.address);
    Storage.Wal.crash t.wal;
    Mds.Store.crash t.store;
    (match t.detector with
    | Some d -> Netsim.Failure_detector.stop d
    | None -> ());
    t.detector <- None;
    t.ctx <- None;
    t.primary <- None;
    t.fallback <- None
  end

let restart ?on_recovered t =
  if not t.up then begin
    trace_node t ~kind:"node.restart" "power on";
    Metrics.Ledger.incr t.sv.ledger "node.restart";
    journal_node t Obs.Journal.Reboot;
    bring_up ?on_recovered t ~recover:true
  end

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

let submit t (txn : Acp.Txn.t) =
  if not t.up then invalid_arg "Node.submit: node is down";
  match (t.primary, t.fallback) with
  | Some p, None -> p.Acp.Protocol.submit txn
  | Some p, Some fb ->
      let workers = List.length txn.plan.Mds.Plan.workers in
      let fits =
        match Acp.Protocol.max_workers p.Acp.Protocol.kind with
        | None -> true
        | Some m -> workers <= m
      in
      if fits then p.Acp.Protocol.submit txn
      else begin
        Metrics.Ledger.incr t.sv.ledger "txn.fallback";
        fb.Acp.Protocol.submit txn
      end
  | None, _ -> assert false

let run_local t txn =
  match t.ctx with
  | Some ctx ->
      Metrics.Ledger.bump t.counters.txn_local;
      Acp.Common.commit_local ctx txn
  | None -> invalid_arg "Node.run_local: node is down"

(* Unlike the transaction paths, a read always answers its caller —
   even when the node crashes mid-read (the client of a real MDS would
   see its RPC fail). Lock-manager cleanups are skipped for a dead
   incarnation; its whole lock table was discarded. *)
let run_read t ~owner ~dir ~read ~on_done =
  if not t.up then invalid_arg "Node.run_read: node is down";
  let epoch = t.epoch in
  let alive () = t.up && t.epoch = epoch in
  let locks = t.locks in
  Metrics.Ledger.bump t.counters.txn_read;
  Locks.Lock_manager.acquire locks ~owner ~oid:dir
    ~mode:Locks.Lock_manager.Shared ~timeout:t.sv.config.Config.txn_timeout
    ~on_grant:(fun () ->
      ignore
        (Simkit.Engine.schedule t.sv.engine ~label:label_read_compute
           ~after:Config.method_latency (fun () ->
             if alive () then begin
               let result = read (Mds.Store.volatile t.store) in
               Locks.Lock_manager.release_all locks ~owner;
               on_done (Ok result)
             end
             else on_done (Error "server crashed during read"))))
    ~on_timeout:(fun () ->
      if alive () then Locks.Lock_manager.release_all locks ~owner;
      on_done (Error "read lock timeout"))
    ()

let suspect_count t =
  match t.detector with
  | Some d -> Netsim.Failure_detector.suspected_count d
  | None -> 0

let outstanding t =
  match (t.primary, t.fallback) with
  | Some p, Some fb -> p.Acp.Protocol.outstanding () + fb.Acp.Protocol.outstanding ()
  | Some p, None -> p.Acp.Protocol.outstanding ()
  | None, _ -> 0

let owns t id =
  match (t.primary, t.fallback) with
  | Some p, Some fb -> p.Acp.Protocol.owns id || fb.Acp.Protocol.owns id
  | Some p, None -> p.Acp.Protocol.owns id
  | None, _ -> false
