let label_ack_resend = Simkit.Label.v Acp "2pc.ack_resend"
let label_vote_timeout = Simkit.Label.v Acp "2pc.vote_timeout"
let label_decision_req = Simkit.Label.v Acp "2pc.decision_req"
let label_worker_abandon = Simkit.Label.v Acp "2pc.worker_abandon"

module Tbl = Simkit.Tbl.Pair
module ISet = Set.Make (Int)

type cphase =
  | Working  (* gathering UPDATED (and, under EP, votes) *)
  | Voting  (* PREPAREs sent, gathering votes *)
  | Committing  (* COMMITTED force in flight *)
  | Committed_waiting_acks  (* PrN commit epilogue *)
  | Aborting  (* ABORTED force in flight *)
  | Aborted_waiting_acks

type coord = {
  id : Txn.id;
  workers : int list;
  worker_updates : (int * Mds.Update.t list) list;  (* for the initial send *)
  own_updates : Mds.Update.t list;
  own_lock_oids : int list;
  mutable phase : cphase;
  mutable local_done : bool;
  mutable undo_list : Mds.Update.t list;
  mutable updated_from : ISet.t;
  mutable self_prepared : bool;
  mutable votes : ISet.t;
  mutable acks : ISet.t;
  mutable locked_at : Simkit.Time.t option;  (* until the first release *)
  mutable ospan : int;  (* open coordinator-lifetime Phase span, -1 = none *)
  timer : Simkit.Engine.handle ref;
}

type wstate =
  | W_locking
  | W_updated  (* updated, waiting for PREPARE (non-EP) *)
  | W_preparing  (* prepare force in flight *)
  | W_prepared  (* voted yes, waiting for the decision *)
  | W_finishing  (* decision applied, final write in flight *)

type work = {
  w_id : Txn.id;
  coordinator : int;
  w_updates : Mds.Update.t list;
  mutable w_undo : Mds.Update.t list;
  mutable wstate : wstate;
  mutable pending_decision : [ `Commit | `Abort ] option;
      (* decision that arrived while still locking (recovery races) *)
  mutable w_ospan : int;  (* open worker-lifetime Phase span, -1 = none *)
  w_timer : Simkit.Engine.handle ref;
}

type t = {
  presume_commit : bool;  (* PrC and EP *)
  early_prepare : bool;  (* EP *)
  e : Edges.tp;  (* this variant's declared edge map (EP skips some) *)
  ctx : Context.t;
  (* The "txn.start" trace details, built once rather than per txn. *)
  coord_start : string;
  worker_start : string;
  coords : coord Tbl.t;
  works : work Tbl.t;
}

let hit t id = Context.hit t.ctx id

let send_to t server msg =
  t.ctx.Context.send ~dst:(t.ctx.Context.address_of server) msg

let trace t id ~kind detail = Context.trace_txn t.ctx id ~kind detail

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)
(* ------------------------------------------------------------------ *)

let all_workers_in set workers =
  List.for_all (fun w -> ISet.mem w set) workers

(* Commit epilogue shared by the live path and recovery. *)
let rec coord_commit_decided t c =
  hit t t.e.Edges.c_commit;
  c.phase <- Committing;
  Context.obs_phase t.ctx c.id "2pc.coord.decided";
  Common.cancel_timer t.ctx c.timer;
  t.ctx.Context.force
    [ Log_record.Committed { txn = c.id } ]
    ~on_durable:(fun () ->
      if c.phase = Committing then begin
        t.ctx.Context.harden c.id c.own_updates;
        Common.release_coordinator t.ctx c.id ~locked_at:c.locked_at;
        trace t c.id ~kind:"txn.commit" "coordinator committed";
        if t.presume_commit then begin
          (* PrC/EP: reply, forward the decision, finalize the log. *)
          t.ctx.Context.client_reply c.id Txn.Committed;
          List.iter
            (fun w -> send_to t w (Wire.Commit { txn = c.id }))
            c.workers;
          t.ctx.Context.log_gc c.id;
          Common.drop t.ctx t.coords c.id ~span:c.ospan
        end
        else begin
          (* PrN: the client learns the outcome only after every worker
             acknowledged. *)
          c.phase <- Committed_waiting_acks;
          List.iter
            (fun w -> send_to t w (Wire.Commit { txn = c.id }))
            c.workers;
          arm_ack_resend t c
        end
      end)

and coord_abort_decided t c reason =
  c.phase <- Aborting;
  Context.obs_phase t.ctx c.id "2pc.coord.abort";
  Common.cancel_timer t.ctx c.timer;
  Common.undo t.ctx c.undo_list;
  c.undo_list <- [];
  trace t c.id ~kind:"txn.abort" reason;
  t.ctx.Context.force
    [ Log_record.Aborted { txn = c.id } ]
    ~on_durable:(fun () ->
      if c.phase = Aborting then begin
        hit t t.e.Edges.c_abort;
        Common.release_coordinator t.ctx c.id ~locked_at:c.locked_at;
        t.ctx.Context.client_reply c.id (Txn.Aborted reason);
        c.phase <- Aborted_waiting_acks;
        List.iter (fun w -> send_to t w (Wire.Abort { txn = c.id })) c.workers;
        if all_workers_in c.acks c.workers then coord_finalize t c
        else arm_ack_resend t c
      end)

and coord_finalize t c =
  hit t t.e.Edges.c_all_acked;
  Common.cancel_timer t.ctx c.timer;
  (* Checkpoint once the ENDED record itself is durable, so the log
     really drains (the record would otherwise outlive the GC). *)
  let id = c.id in
  t.ctx.Context.log_gc id;
  t.ctx.Context.append_async
    [ Log_record.Ended { txn = id } ]
    ~on_durable:(fun () -> t.ctx.Context.log_gc id);
  Common.drop t.ctx t.coords c.id ~span:c.ospan

and arm_ack_resend t c =
  t.ctx.Context.set_timer c.timer ~label:label_ack_resend
    ~after:t.ctx.Context.resend_interval (fun () ->
      match c.phase with
      | Committed_waiting_acks ->
          hit t t.e.Edges.c_ack_resend;
          List.iter
            (fun w ->
              if not (ISet.mem w c.acks) then
                send_to t w (Wire.Commit { txn = c.id }))
            c.workers;
          arm_ack_resend t c
      | Aborted_waiting_acks ->
          hit t t.e.Edges.c_ack_resend;
          List.iter
            (fun w ->
              if not (ISet.mem w c.acks) then
                send_to t w (Wire.Abort { txn = c.id }))
            c.workers;
          arm_ack_resend t c
      | Working | Voting | Committing | Aborting -> ())

let coord_check_votes t c =
  let vote_phase_ok =
    match c.phase with
    | Voting -> true
    | Working -> t.early_prepare
    | Committing | Committed_waiting_acks | Aborting | Aborted_waiting_acks
      ->
        false
  in
  if
    vote_phase_ok && c.local_done && c.self_prepared
    && all_workers_in c.votes c.workers
  then coord_commit_decided t c

let coord_self_prepare t c =
  t.ctx.Context.force
    [
      Log_record.Updates { txn = c.id; updates = c.own_updates };
      Log_record.Prepared { txn = c.id };
    ]
    ~on_durable:(fun () ->
      match c.phase with
      | Working | Voting ->
          c.self_prepared <- true;
          coord_check_votes t c
      | Committing | Committed_waiting_acks | Aborting
      | Aborted_waiting_acks ->
          ())

let coord_enter_voting t c =
  if
    c.phase = Working && (not t.early_prepare) && c.local_done
    && all_workers_in c.updated_from c.workers
  then begin
    hit t t.e.Edges.c_all_updated;
    c.phase <- Voting;
    Context.obs_phase t.ctx c.id "2pc.coord.voting";
    List.iter (fun w -> send_to t w (Wire.Prepare { txn = c.id })) c.workers;
    coord_self_prepare t c
  end

let arm_vote_timer t c =
  t.ctx.Context.set_timer c.timer ~label:label_vote_timeout
    ~after:t.ctx.Context.timeout (fun () ->
      match c.phase with
      | Working | Voting ->
          hit t t.e.Edges.c_vote_timeout;
          coord_abort_decided t c "timeout collecting votes"
      | Committing | Committed_waiting_acks | Aborting | Aborted_waiting_acks
        ->
          ())

let submit t (txn : Txn.t) =
  let plan = txn.plan in
  if plan.Mds.Plan.workers = [] then
    invalid_arg "Two_phase.submit: local plan needs no ACP";
  let c =
    {
      id = txn.id;
      workers = List.map (fun s -> s.Mds.Plan.server) plan.Mds.Plan.workers;
      worker_updates =
        List.map
          (fun s -> (s.Mds.Plan.server, s.Mds.Plan.updates))
          plan.Mds.Plan.workers;
      own_updates = plan.Mds.Plan.coordinator.updates;
      own_lock_oids = plan.Mds.Plan.coordinator.lock_oids;
      phase = Working;
      local_done = false;
      undo_list = [];
      updated_from = ISet.empty;
      self_prepared = false;
      votes = ISet.empty;
      acks = ISet.empty;
      locked_at = None;
      ospan = -1;
      timer = ref Simkit.Engine.none;
    }
  in
  hit t t.e.Edges.c_submit;
  c.ospan <- Common.track t.ctx t.coords c.id c ~name:"2pc.coord";
  trace t c.id ~kind:"txn.start" t.coord_start;
  t.ctx.Context.force
    [ Log_record.Started { txn = c.id; participants = c.workers } ]
    ~on_durable:(fun () ->
      if c.phase = Working then
        Common.acquire_locks t.ctx ~txn:c.id ~oids:c.own_lock_oids
          ~on_granted:(fun () ->
            if c.phase = Working then begin
              c.locked_at <- Some (Simkit.Engine.now t.ctx.Context.engine);
              arm_vote_timer t c;
              List.iter
                (fun (w, updates) ->
                  send_to t w
                    (Wire.Update_req
                       {
                         txn = c.id;
                         updates;
                         piggyback_prepare = t.early_prepare;
                         one_phase = false;
                       }))
                c.worker_updates;
              Common.apply_updates t.ctx c.own_updates ~k:(fun result ->
                  match (result, c.phase) with
                  | Ok inverses, (Working | Voting) ->
                      c.undo_list <- inverses;
                      c.local_done <- true;
                      if t.early_prepare then coord_self_prepare t c
                      else coord_enter_voting t c;
                      coord_check_votes t c
                  | Ok inverses, _ ->
                      (* Already aborted (e.g. vote timeout): undo. *)
                      Common.undo t.ctx inverses
                  | Error e, (Working | Voting) ->
                      coord_abort_decided t c
                        (Fmt.str "local update failed: %a" Mds.State.pp_error
                           e)
                  | Error _, _ -> ())
            end)
          ~on_timeout:(fun () ->
            if c.phase = Working then begin
              hit t t.e.Edges.c_lock_timeout;
              coord_abort_decided t c "lock timeout at coordinator"
            end))

let coord_on_updated t c ~src_server ~ok =
  match c.phase with
  | Working when ok ->
      hit t t.e.Edges.c_updated_ok;
      c.updated_from <- ISet.add src_server c.updated_from;
      if t.early_prepare then begin
        (* Under EP the worker's UPDATED is its PREPARED vote. *)
        c.votes <- ISet.add src_server c.votes;
        coord_check_votes t c
      end
      else coord_enter_voting t c
  | (Working | Voting) when not ok ->
      hit t t.e.Edges.c_updated_nack;
      coord_abort_decided t c
        (Fmt.str "worker %d rejected updates" src_server)
  | _ -> ()

let coord_on_prepared t c ~src_server ~vote =
  match c.phase with
  | Voting when vote ->
      hit t t.e.Edges.c_prepared_yes;
      c.votes <- ISet.add src_server c.votes;
      coord_check_votes t c
  | Voting ->
      hit t t.e.Edges.c_prepared_no;
      coord_abort_decided t c (Fmt.str "worker %d voted no" src_server)
  | Working when t.early_prepare && vote ->
      (* A re-vote provoked by coordinator recovery. *)
      c.votes <- ISet.add src_server c.votes;
      coord_check_votes t c
  | Working when t.early_prepare ->
      coord_abort_decided t c (Fmt.str "worker %d voted no" src_server)
  | _ -> ()

let coord_on_ack t c ~src_server =
  hit t t.e.Edges.c_ack;
  c.acks <- ISet.add src_server c.acks;
  match c.phase with
  | Committed_waiting_acks when all_workers_in c.acks c.workers ->
      t.ctx.Context.client_reply c.id Txn.Committed;
      coord_finalize t c
  | Aborted_waiting_acks when all_workers_in c.acks c.workers ->
      coord_finalize t c
  | _ -> ()

let coord_on_decision_req t ~src txn =
  let answer committed =
    t.ctx.Context.send ~dst:src (Wire.Decision { txn; committed })
  in
  match Tbl.find_opt t.coords (Txn.key txn) with
  | Some c -> (
      hit t t.e.Edges.c_decision_req_live;
      match c.phase with
      | Committed_waiting_acks -> answer true
      | Aborting | Aborted_waiting_acks -> answer false
      | Working | Voting | Committing ->
          (* Not decided yet; the worker will ask again. *)
          ())
  | None -> (
      match Log_scan.find (t.ctx.Context.own_log ()) txn with
      | Some img when img.committed ->
          hit t t.e.Edges.c_decision_req_log;
          answer true
      | Some img when img.aborted ->
          hit t t.e.Edges.c_decision_req_log;
          answer false
      | Some _ | None ->
          (* No outcome on record: PrC/EP presume commit; PrN retains its
             log until the worker acknowledged, so an unknown transaction
             can only have been aborted and forgotten. *)
          hit t t.e.Edges.c_decision_req_presumed;
          answer t.presume_commit)

(* ------------------------------------------------------------------ *)
(* Worker                                                              *)
(* ------------------------------------------------------------------ *)

(* A fresh worker in [W_locking], entered into [works]. *)
let work_track t (id : Txn.id) updates ~name =
  let w =
    {
      w_id = id;
      coordinator = id.origin;
      w_updates = updates;
      w_undo = [];
      wstate = W_locking;
      pending_decision = None;
      w_ospan = -1;
      w_timer = ref Simkit.Engine.none;
    }
  in
  w.w_ospan <- Common.track t.ctx t.works id w ~name;
  w

let work_drop t w = Common.drop t.ctx t.works w.w_id ~span:w.w_ospan

let rec arm_decision_timer t w =
  t.ctx.Context.set_timer w.w_timer ~label:label_decision_req
    ~after:t.ctx.Context.resend_interval (fun () ->
      if w.wstate = W_prepared then begin
        hit t t.e.Edges.w_decision_retry;
        send_to t w.coordinator (Wire.Decision_req { txn = w.w_id });
        arm_decision_timer t w
      end)

(* A worker that updated but never received PREPARE may abandon
   unilaterally — it has not voted, so the coordinator (which must have
   aborted on its own timeout) stays consistent. Twice the protocol
   timeout leaves the coordinator the first move. *)
let arm_abandon_timer t w =
  t.ctx.Context.set_timer w.w_timer ~label:label_worker_abandon
    ~after:(Simkit.Time.mul_span t.ctx.Context.timeout 2) (fun () ->
      if w.wstate = W_updated then begin
        hit t t.e.Edges.w_abandon;
        trace t w.w_id ~kind:"txn.abandon" "worker abandoned before voting";
        Common.undo t.ctx w.w_undo;
        Common.release t.ctx w.w_id;
        work_drop t w
      end)

let rec work_force_prepare t w ~reply_with_updated =
  w.wstate <- W_preparing;
  t.ctx.Context.force
    [
      Log_record.Updates { txn = w.w_id; updates = w.w_updates };
      Log_record.Prepared { txn = w.w_id };
    ]
    ~on_durable:(fun () ->
      if w.wstate = W_preparing then begin
        w.wstate <- W_prepared;
        Context.obs_phase t.ctx w.w_id "2pc.worker.prepared";
        if reply_with_updated then
          send_to t w.coordinator (Wire.Updated { txn = w.w_id; ok = true })
        else
          send_to t w.coordinator
            (Wire.Prepared { txn = w.w_id; vote = true });
        arm_decision_timer t w;
        match w.pending_decision with
        | Some d ->
            w.pending_decision <- None;
            apply_decision t w d
        | None -> ()
      end)

and apply_decision t w = function
  | `Commit ->
      hit t t.e.Edges.w_commit;
      Common.cancel_timer t.ctx w.w_timer;
      w.wstate <- W_finishing;
      if t.presume_commit then begin
        (* PrC/EP: the COMMITTED record is asynchronous and there is no
           acknowledgement; locks are released as soon as the decision is
           known. *)
        Common.release t.ctx w.w_id;
        trace t w.w_id ~kind:"txn.commit" "worker committed (async)";
        let id = w.w_id and updates = w.w_updates in
        t.ctx.Context.append_async
          [ Log_record.Committed { txn = id } ]
          ~on_durable:(fun () ->
            t.ctx.Context.harden id updates;
            t.ctx.Context.log_gc id);
        work_drop t w
      end
      else
        t.ctx.Context.force
          [ Log_record.Committed { txn = w.w_id } ]
          ~on_durable:(fun () ->
            if w.wstate = W_finishing then begin
              t.ctx.Context.harden w.w_id w.w_updates;
              Common.release t.ctx w.w_id;
              trace t w.w_id ~kind:"txn.commit" "worker committed";
              send_to t w.coordinator (Wire.Ack { txn = w.w_id });
              t.ctx.Context.log_gc w.w_id;
              work_drop t w
            end)
  | `Abort ->
      hit t t.e.Edges.w_abort;
      Common.cancel_timer t.ctx w.w_timer;
      w.wstate <- W_finishing;
      Common.undo t.ctx w.w_undo;
      w.w_undo <- [];
      Common.release t.ctx w.w_id;
      trace t w.w_id ~kind:"txn.abort" "worker aborted";
      t.ctx.Context.force
        [ Log_record.Aborted { txn = w.w_id } ]
        ~on_durable:(fun () ->
          send_to t w.coordinator (Wire.Ack { txn = w.w_id });
          t.ctx.Context.log_gc w.w_id;
          work_drop t w)

let work_on_update_req t ~src txn updates piggyback_prepare =
  if Tbl.mem t.works (Txn.key txn) then
    (* duplicate — first execution wins *)
    hit t t.e.Edges.w_dup
  else if t.ctx.Context.is_hardened txn then begin
    hit t t.e.Edges.w_hardened;
    t.ctx.Context.send ~dst:src (Wire.Updated { txn; ok = true })
  end
  else begin
    hit t t.e.Edges.w_fresh;
    let w = work_track t txn updates ~name:"2pc.worker" in
    trace t txn ~kind:"txn.start" t.worker_start;
    Common.acquire_locks t.ctx ~txn ~oids:(Mds.Update.lock_oids updates)
      ~on_granted:(fun () ->
        match w.pending_decision with
        | Some `Abort ->
            Common.release t.ctx txn;
            work_drop t w
        | Some `Commit | None ->
            Common.apply_updates t.ctx updates ~k:(function
              | Ok inverses ->
                  w.w_undo <- inverses;
                  if piggyback_prepare then
                    work_force_prepare t w ~reply_with_updated:true
                  else begin
                    w.wstate <- W_updated;
                    send_to t w.coordinator
                      (Wire.Updated { txn; ok = true });
                    arm_abandon_timer t w
                  end
              | Error e ->
                  hit t t.e.Edges.w_reject;
                  trace t txn ~kind:"txn.reject"
                    (Fmt.str "%a" Mds.State.pp_error e);
                  Common.release t.ctx txn;
                  work_drop t w;
                  send_to t w.coordinator (Wire.Updated { txn; ok = false })))
      ~on_timeout:(fun () ->
        hit t t.e.Edges.w_reject;
        Common.release t.ctx txn;
        work_drop t w;
        send_to t w.coordinator (Wire.Updated { txn; ok = false }))
  end

let work_on_prepare t ~src txn =
  match Tbl.find_opt t.works (Txn.key txn) with
  | Some w -> (
      match w.wstate with
      | W_updated ->
          hit t t.e.Edges.w_prepare;
          Common.cancel_timer t.ctx w.w_timer;
          work_force_prepare t w ~reply_with_updated:false
      | W_prepared ->
          hit t t.e.Edges.w_prepare_dup;
          t.ctx.Context.send ~dst:src (Wire.Prepared { txn; vote = true })
      | W_locking | W_preparing | W_finishing -> ())
  | None ->
      hit t t.e.Edges.w_prepare_unknown;
      let vote = t.ctx.Context.is_hardened txn in
      t.ctx.Context.send ~dst:src (Wire.Prepared { txn; vote })

let work_on_decision t ~src txn decision =
  match Tbl.find_opt t.works (Txn.key txn) with
  | Some w -> (
      match w.wstate with
      | W_prepared | W_updated -> apply_decision t w decision
      | W_locking ->
          hit t t.e.Edges.w_decision_parked;
          w.pending_decision <- Some decision
      | W_preparing ->
          hit t t.e.Edges.w_decision_parked;
          w.pending_decision <- Some decision
      | W_finishing -> ())
  | None -> (
      hit t t.e.Edges.w_decision_unknown;
      (* No state: either never started (abort trivially) or committed
         and checkpointed long ago (the paper's "reply ACKNOWLEDGE"
         case). Either way the coordinator just needs its ACK. *)
      match decision with
      | `Commit | `Abort -> t.ctx.Context.send ~dst:src (Wire.Ack { txn }))

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let on_message t ~src (msg : Wire.t) =
  let src_server = Netsim.Address.index src in
  match msg with
  | Wire.Update_req { txn; updates; piggyback_prepare; one_phase } ->
      if one_phase then
        invalid_arg "Two_phase.on_message: one-phase update request";
      work_on_update_req t ~src txn updates piggyback_prepare
  | Wire.Updated { txn; ok } -> (
      match Tbl.find_opt t.coords (Txn.key txn) with
      | Some c -> coord_on_updated t c ~src_server ~ok
      | None -> ())
  | Wire.Prepare { txn } -> work_on_prepare t ~src txn
  | Wire.Prepared { txn; vote } -> (
      match Tbl.find_opt t.coords (Txn.key txn) with
      | Some c -> coord_on_prepared t c ~src_server ~vote
      | None -> ())
  | Wire.Commit { txn } -> work_on_decision t ~src txn `Commit
  | Wire.Abort { txn } -> work_on_decision t ~src txn `Abort
  | Wire.Ack { txn } -> (
      match Tbl.find_opt t.coords (Txn.key txn) with
      | Some c -> coord_on_ack t c ~src_server
      | None -> ())
  | Wire.Decision_req { txn } -> coord_on_decision_req t ~src txn
  | Wire.Decision { txn; committed } ->
      work_on_decision t ~src txn (if committed then `Commit else `Abort)
  | Wire.Ack_req { txn } ->
      (* 1PC-only traffic; answering ACK is harmless and keeps mixed
         clusters live. *)
      t.ctx.Context.send ~dst:src (Wire.Ack { txn })
  | Wire.Vote_req _ | Wire.Vote _ | Wire.Rep_store _ | Wire.Rep_ack _
  | Wire.Decide _ | Wire.Decide_ack _ | Wire.Rep_drop _ | Wire.Recover_req _
  | Wire.Recover_resp _ ->
      (* L1PC-only traffic; a logged node has no volatile vote state to
         offer, so silence is the truthful answer. *)
      ()

(* ------------------------------------------------------------------ *)
(* Recovery (§II-C)                                                    *)
(* ------------------------------------------------------------------ *)

let recover_coordinator t (img : Log_scan.image) =
  let reconstruct phase =
    let c =
      {
        id = img.id;
        workers = img.participants;
        worker_updates = [];
        own_updates = img.updates;
        own_lock_oids = Mds.Update.lock_oids img.updates;
        phase;
        local_done = true;
        undo_list = [];
        updated_from = ISet.of_list img.participants;
        self_prepared = true;
        votes = ISet.empty;
        acks = ISet.empty;
        locked_at = None;
        ospan = -1;
        timer = ref Simkit.Engine.none;
      }
    in
    c.ospan <- Common.track t.ctx t.coords c.id c ~name:"2pc.coord.recover";
    c
  in
  if not img.started then begin
    (* A single-server (no-ACP) transaction's image: its one forced write
       carried updates + COMMITTED, so there is nothing to resolve. *)
    hit t t.e.Edges.r_coord_trivial;
    if img.committed then t.ctx.Context.client_reply img.id Txn.Committed;
    t.ctx.Context.log_gc img.id
  end
  else if img.ended then begin
    hit t t.e.Edges.r_coord_trivial;
    t.ctx.Context.log_gc img.id
  end
  else if img.committed then
    if t.presume_commit then begin
      hit t t.e.Edges.r_coord_committed;
      (* Crashed between deciding and finalizing: the updates were
         hardened by the generic pass; replay the epilogue. *)
      t.ctx.Context.client_reply img.id Txn.Committed;
      List.iter
        (fun w -> send_to t w (Wire.Commit { txn = img.id }))
        img.participants;
      t.ctx.Context.log_gc img.id
    end
    else begin
      hit t t.e.Edges.r_coord_committed;
      let c = reconstruct Committed_waiting_acks in
      trace t c.id ~kind:"txn.recover" "resending COMMIT";
      List.iter (fun w -> send_to t w (Wire.Commit { txn = c.id })) c.workers;
      arm_ack_resend t c
    end
  else if img.aborted then begin
    hit t t.e.Edges.r_coord_aborted;
    let c = reconstruct Aborted_waiting_acks in
    trace t c.id ~kind:"txn.recover" "resending ABORT";
    t.ctx.Context.client_reply c.id (Txn.Aborted "aborted before crash");
    List.iter (fun w -> send_to t w (Wire.Abort { txn = c.id })) c.workers;
    arm_ack_resend t c
  end
  else if img.prepared then begin
    (* Prepared but undecided: re-lock, replay our updates and re-run the
       voting phase ("resubmit the PREPARE request"). *)
    hit t t.e.Edges.r_coord_prepared;
    let c = reconstruct Voting in
    trace t c.id ~kind:"txn.recover" "re-voting after crash";
    Common.acquire_locks t.ctx ~txn:c.id ~oids:c.own_lock_oids
      ~on_granted:(fun () ->
        if c.phase = Voting then begin
          c.undo_list <- Common.replay t.ctx c.own_updates;
          arm_vote_timer t c;
          List.iter
            (fun w -> send_to t w (Wire.Prepare { txn = c.id }))
            c.workers;
          coord_check_votes t c
        end)
      ~on_timeout:(fun () ->
        if c.phase = Voting then
          coord_abort_decided t c "lock timeout during recovery")
  end
  else begin
    (* STARTED only: the updates died with the cache; abort (§II-C). *)
    hit t t.e.Edges.r_coord_started;
    let c = reconstruct Aborting in
    c.local_done <- false;
    c.self_prepared <- false;
    trace t c.id ~kind:"txn.recover" "aborting unprepared transaction";
    t.ctx.Context.force
      [ Log_record.Aborted { txn = c.id } ]
      ~on_durable:(fun () ->
        if c.phase = Aborting then begin
          t.ctx.Context.client_reply c.id (Txn.Aborted "coordinator crashed");
          c.phase <- Aborted_waiting_acks;
          List.iter
            (fun w -> send_to t w (Wire.Abort { txn = c.id }))
            c.workers;
          if all_workers_in c.acks c.workers then coord_finalize t c
          else arm_ack_resend t c
        end)
  end

let rec recover_worker t (img : Log_scan.image) =
  if img.committed || img.aborted || img.ended then begin
    (* Outcome already durable; the generic pass hardened committed
       updates. Just drop the records. *)
    hit t t.e.Edges.r_worker_decided;
    t.ctx.Context.log_gc img.id
  end
  else if img.prepared then begin
    (* Blocked in-doubt: re-lock, replay, ask for the outcome. *)
    hit t t.e.Edges.r_worker_indoubt;
    let w = work_track t img.id img.updates ~name:"2pc.worker.recover" in
    trace t w.w_id ~kind:"txn.recover" "worker in doubt, asking coordinator";
    Common.acquire_locks t.ctx ~txn:w.w_id
      ~oids:(Mds.Update.lock_oids img.updates)
      ~on_granted:(fun () ->
        w.w_undo <- Common.replay t.ctx w.w_updates;
        w.wstate <- W_prepared;
        match w.pending_decision with
        | Some d ->
            w.pending_decision <- None;
            apply_decision t w d
        | None ->
            send_to t w.coordinator (Wire.Decision_req { txn = w.w_id });
            arm_decision_timer t w)
      ~on_timeout:(fun () ->
        (* Locks cannot be stolen from an in-doubt transaction in this
           simulator (recovery runs before new work), so a timeout here
           means severe contention between recovered transactions; keep
           trying. *)
        trace t w.w_id ~kind:"txn.recover" "re-lock timeout; retrying";
        Common.release t.ctx w.w_id;
        work_drop t w;
        recover_worker t img)
  end
  else begin
    hit t t.e.Edges.r_worker_decided;
    t.ctx.Context.log_gc img.id
  end

(* A server can host a 1PC engine alongside this one (1PC nodes fall
   back to PrN for multi-worker plans), so recovery must only touch this
   family's transactions: coordinator images carrying a REDO plan and
   committed-but-never-prepared worker images are 1PC's. An aborted
   worker image is always ours even without a PREPARED record: an
   unprepared worker forces [ABORTED] on receiving the decision, and a
   crash during that force can land it as the image's only record (the
   in-service write completes after the host dies). 1PC workers never
   write ABORTED, so claiming these is safe — and necessary, or the
   orphan record is never collected and the log never drains. *)
let owns_image t (img : Log_scan.image) =
  if img.id.origin = t.ctx.Context.self_server then img.plan = None
  else img.prepared || img.aborted

let instantiate kind ctx =
  let t =
    {
      presume_commit = kind <> Kind.Prn;
      early_prepare = kind = Kind.Ep;
      e = Edges.tp_for kind;
      ctx;
      coord_start = Kind.name kind ^ " coordinator";
      worker_start = Kind.name kind ^ " worker";
      coords = Tbl.create 64;
      works = Tbl.create 64;
    }
  in
  {
    Common.kind;
    submit = submit t;
    on_message = on_message t;
    recover =
      (fun ~on_done ->
        Common.recover_log ctx ~owns:(owns_image t)
          ~coordinator:(recover_coordinator t) ~worker:(recover_worker t);
        on_done ());
    on_suspect = ignore;
    outstanding = (fun () -> Tbl.length t.coords + Tbl.length t.works);
    owns =
      (fun id -> Tbl.mem t.coords (Txn.key id) || Tbl.mem t.works (Txn.key id));
  }
