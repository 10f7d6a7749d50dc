type instance = {
  kind : Kind.t;
  submit : Txn.t -> unit;
  on_message : src:Netsim.Address.t -> Wire.t -> unit;
  recover : on_done:(unit -> unit) -> unit;
  on_suspect : Netsim.Address.t -> unit;
  outstanding : unit -> int;
  owns : Txn.id -> bool;
}

let acquire_locks ?(check_alive = false) ctx ~txn ~oids ~on_granted
    ~on_timeout =
  let owner = Txn.owner_token txn in
  let rec next = function
    | [] -> on_granted ()
    | oid :: rest ->
        Locks.Lock_manager.acquire ctx.Context.locks ~owner ~oid
          ~mode:Locks.Lock_manager.Exclusive ~timeout:ctx.Context.timeout
          ~on_grant:(fun () -> granted rest)
          ~on_timeout ()
  and granted rest =
    if (not check_alive) || ctx.Context.alive () then next rest
  in
  next oids

let release ctx txn =
  Locks.Lock_manager.release_all ctx.Context.locks
    ~owner:(Txn.owner_token txn)

let apply_updates ctx updates ~k =
  let n = List.length updates in
  ctx.Context.compute ~n (fun () ->
      let rec go inverses = function
        | [] -> k (Ok inverses)
        | u :: rest -> (
            match Mds.Store.apply_volatile ctx.Context.store u with
            | Ok inverse -> go (inverse :: inverses) rest
            | Error e ->
                (* Roll back the applied prefix before reporting. *)
                Mds.Store.undo_volatile ctx.Context.store inverses;
                k (Error e))
      in
      go [] updates)

let undo ctx inverses = Mds.Store.undo_volatile ctx.Context.store inverses

let replay ctx updates =
  List.fold_left
    (fun inverses u ->
      match Mds.Store.apply_volatile ctx.Context.store u with
      | Ok inverse -> inverse :: inverses
      | Error e ->
          invalid_arg
            (Fmt.str "Common.replay: %a replaying %a" Mds.State.pp_error e
               Mds.Update.pp u))
    [] updates

let cancel_timer ctx slot =
  Simkit.Engine.cancel ctx.Context.engine !slot;
  slot := Simkit.Engine.none

let track ctx tbl id role ~name =
  Simkit.Tbl.Pair.replace tbl (Txn.key id) role;
  Context.obs_start ctx id ~name

let drop ctx tbl id ~span =
  Context.obs_finish ctx span;
  Simkit.Tbl.Pair.remove tbl (Txn.key id)

let release_coordinator ctx id ~locked_at =
  release ctx id;
  Option.iter (fun locked_at -> ctx.Context.lock_hold ~locked_at) locked_at

type 'phase pair_coord = {
  id : Txn.id;
  worker : int;
  worker_updates : Mds.Update.t list;
  own_updates : Mds.Update.t list;
  own_lock_oids : int list;
  mutable phase : 'phase;
  mutable undo_list : Mds.Update.t list;
  mutable retries : int;
  mutable locked_at : Simkit.Time.t option;
  mutable ospan : int;
  timer : Simkit.Engine.handle ref;
}

let pair_coord kind (txn : Txn.t) phase =
  match txn.plan.Mds.Plan.workers with
  | [ w ] ->
      {
        id = txn.id;
        worker = w.Mds.Plan.server;
        worker_updates = w.Mds.Plan.updates;
        own_updates = txn.plan.Mds.Plan.coordinator.updates;
        own_lock_oids = txn.plan.Mds.Plan.coordinator.lock_oids;
        phase;
        undo_list = [];
        retries = 0;
        locked_at = None;
        ospan = -1;
        timer = ref Simkit.Engine.none;
      }
  | [] -> invalid_arg (Kind.name kind ^ ": local plan needs no ACP")
  | _ :: _ :: _ ->
      invalid_arg
        (Kind.name kind
       ^ " handles exactly one worker (route wider plans to 2PC)")

let recover_log ctx ~owns ~coordinator ~worker =
  let images = Log_scan.scan (ctx.Context.own_log ()) in
  (* Pass 1: make every committed transaction's effects durable in the
     metadata image (idempotent). *)
  List.iter
    (fun (img : Log_scan.image) ->
      if img.committed && img.updates <> [] then
        ctx.Context.harden img.id img.updates)
    images;
  (* Pass 2: resume or resolve, in original log order. *)
  List.iter
    (fun (img : Log_scan.image) ->
      if owns img then
        if img.id.origin = ctx.Context.self_server then coordinator img
        else worker img)
    images

(* A single-server operation commits with one forced log write and no
   protocol at all — the paper's no-ACP baseline. Every lock grant
   re-checks the incarnation before taking the next lock: a lock table
   a crash discarded can still grant. *)
let commit_local ctx (txn : Txn.t) =
  let id = txn.id and side = txn.plan.Mds.Plan.coordinator in
  let updates = side.Mds.Plan.updates in
  acquire_locks ~check_alive:true ctx ~txn:id ~oids:side.Mds.Plan.lock_oids
    ~on_granted:(fun () ->
      let locked_at = Some (Simkit.Engine.now ctx.Context.engine) in
      apply_updates ctx updates ~k:(function
        | Ok _ ->
            ctx.Context.force
              [
                Log_record.Updates { txn = id; updates };
                Log_record.Committed { txn = id };
              ]
              ~on_durable:(fun () ->
                ctx.Context.harden id updates;
                release_coordinator ctx id ~locked_at;
                ctx.Context.client_reply id Txn.Committed;
                ctx.Context.log_gc id)
        | Error e ->
            release ctx id;
            ctx.Context.client_reply id
              (Txn.Aborted (Fmt.str "%a" Mds.State.pp_error e))))
    ~on_timeout:(fun () ->
      if ctx.Context.alive () then begin
        release ctx id;
        ctx.Context.client_reply id (Txn.Aborted "local lock timeout")
      end)
