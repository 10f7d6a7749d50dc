type t = {
  engine : Simkit.Engine.t;
  self : Netsim.Address.t;
  self_server : int;
  address_of : int -> Netsim.Address.t;
  send : dst:Netsim.Address.t -> Wire.t -> unit;
  force : Log_record.t list -> on_durable:(unit -> unit) -> unit;
  append_async : ?on_durable:(unit -> unit) -> Log_record.t list -> unit;
  log_gc : Txn.id -> unit;
  own_log : unit -> Log_record.t list;
  fence_and_read :
    target:Netsim.Address.t -> on_read:(Log_scan.image list -> unit) -> unit;
  locks : Locks.Lock_manager.t;
  store : Mds.Store.t;
  harden : Txn.id -> Mds.Update.t list -> unit;
  is_hardened : Txn.id -> bool;
  compute : n:int -> (unit -> unit) -> unit;
  set_timer :
    Simkit.Engine.handle ref ->
    label:Simkit.Label.t ->
    after:Simkit.Time.span ->
    (unit -> unit) ->
    unit;
  timeout : Simkit.Time.span;
  resend_interval : Simkit.Time.span;
  max_soft_retries : int;
  tombstone_ttl : Simkit.Time.span;
  tombstone_cap : int;
  replicas : int list;
  suspects : Netsim.Address.t -> bool;
  ledger : Metrics.Ledger.t;
  sink : Obs.Sink.t;
  client_reply : Txn.id -> Txn.outcome -> unit;
  lock_hold : locked_at:Simkit.Time.t -> unit;
  alive : unit -> bool;
}

let slot_timer engine ~alive slot ~label ~after f =
  Simkit.Engine.cancel engine !slot;
  slot :=
    Simkit.Engine.schedule engine ~label ~after (fun () ->
        if alive () then begin
          slot := Simkit.Engine.none;
          f ()
        end)

let hit t id = Obs.Coverage.hit t.sink.coverage id

let obs_phase t txn name =
  if Obs.Tracer.is_recording t.sink.spans then
    Obs.Tracer.instant t.sink.spans
      ~time:(Simkit.Engine.now t.engine)
      ~txn:(Txn.owner_token txn)
      ~track:(Netsim.Address.name t.self)
      name

let obs_start t txn ~name =
  Obs.Tracer.start t.sink.spans
    ~time:(Simkit.Engine.now t.engine)
    ~txn:(Txn.owner_token txn)
    ~category:Obs.Span.Phase
    ~track:(Netsim.Address.name t.self)
    ~name

let obs_finish t id =
  Obs.Tracer.finish t.sink.spans ~time:(Simkit.Engine.now t.engine) id

let trace_txn t txn ~kind detail =
  if Simkit.Trace.is_recording t.sink.trace then
    Simkit.Trace.emitf t.sink.trace
      ~time:(Simkit.Engine.now t.engine)
      ~source:(Netsim.Address.name t.self)
      ~kind "%a %s" Txn.pp_id txn detail
