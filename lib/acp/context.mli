(** Services a protocol engine runs against.

    One context per metadata server, assembled by the cluster layer. The
    protocols only ever touch the world through these closures, which
    keeps them independent of the wiring (and lets tests drive them
    against miniature harnesses).

    Conventions:
    - [send] delivers asynchronously with network latency; messages to
      crashed or partitioned nodes vanish.
    - [force]/[append_async] target this server's own log partition;
      [force]'s callback fires at durability (never after a crash).
    - [harden txn updates] advances the durable metadata image exactly
      once per transaction (idempotent across recovery replays).
    - [lock_hold ~locked_at] reports a coordinator's first release of the
      locks it finished taking at [locked_at]; the cluster books the
      hold time for the Figure 6 lock-hold experiments.
    - [set_timer slot ~label ~after f] arms [slot], cancelling the timer
      it held; when the timer fires in a live incarnation, the slot is
      cleared to {!Simkit.Engine.none} and [f] runs.
    - [alive ()] turns false for good once this incarnation crashes. The
      services above already check it; a caller needs it only to stop
      work that touches no service, such as taking its next lock. *)

type t = {
  engine : Simkit.Engine.t;
  self : Netsim.Address.t;
  self_server : int;  (** this server's slot *)
  address_of : int -> Netsim.Address.t;  (** slot -> address *)
  send : dst:Netsim.Address.t -> Wire.t -> unit;
  force : Log_record.t list -> on_durable:(unit -> unit) -> unit;
  append_async : ?on_durable:(unit -> unit) -> Log_record.t list -> unit;
  log_gc : Txn.id -> unit;  (** drop this transaction's records *)
  own_log : unit -> Log_record.t list;  (** durable records (recovery) *)
  fence_and_read :
    target:Netsim.Address.t -> on_read:(Log_scan.image list -> unit) -> unit;
      (** 1PC recovery: fence the target, then read its partition. *)
  locks : Locks.Lock_manager.t;
  store : Mds.Store.t;
  harden : Txn.id -> Mds.Update.t list -> unit;
  is_hardened : Txn.id -> bool;
  compute : n:int -> (unit -> unit) -> unit;
      (** continue after [n] object-method latencies *)
  set_timer :
    Simkit.Engine.handle ref ->
    label:Simkit.Label.t ->
    after:Simkit.Time.span ->
    (unit -> unit) ->
    unit;
  timeout : Simkit.Time.span;  (** protocol timeout (votes, decisions) *)
  resend_interval : Simkit.Time.span;
      (** base retransmission period (historically equal to [timeout]) *)
  max_soft_retries : int;
      (** 1PC UPDATE_REQ retries before fence-and-read *)
  tombstone_ttl : Simkit.Time.span;
      (** lifetime of a 1PC NO-vote tombstone since last touch *)
  tombstone_cap : int;  (** hard bound on live tombstones *)
  replicas : int list;
      (** L1PC replica group: the server slots holding copies of this
          server's volatile vote state (never includes [self_server];
          empty in degenerate single-server clusters) *)
  suspects : Netsim.Address.t -> bool;  (** failure-detector verdict *)
  ledger : Metrics.Ledger.t;
  sink : Obs.Sink.t;
      (** the cluster's collectors; its [coverage] is sized for
          {!Edges.count} *)
  client_reply : Txn.id -> Txn.outcome -> unit;
  lock_hold : locked_at:Simkit.Time.t -> unit;
  alive : unit -> bool;
}

val slot_timer :
  Simkit.Engine.t ->
  alive:(unit -> bool) ->
  Simkit.Engine.handle ref ->
  label:Simkit.Label.t ->
  after:Simkit.Time.span ->
  (unit -> unit) ->
  unit
(** The [set_timer] service over an engine, for an incarnation that is
    live while [alive ()] holds. *)

val hit : t -> int -> unit
(** Record one traversal of a declared {!Edges} edge (no-op when the
    tap is disabled or the id is [-1]). *)

val trace_txn : t -> Txn.id -> kind:string -> string -> unit
(** Emit a trace entry attributed to this server about a transaction. *)

val obs_phase : t -> Txn.id -> string -> unit
(** Record a zero-length {!Obs.Span.Phase} milestone for the
    transaction on this server's track (protocol state transitions in
    Chrome traces; the breakdown ignores them). *)

val obs_start : t -> Txn.id -> name:string -> int
(** Open a {!Obs.Span.Phase} lifetime span (coordinator / worker role
    duration) on this server's track; [-1] when not recording. *)

val obs_finish : t -> int -> unit
(** Close a span from {!obs_start} at the current instant. *)
