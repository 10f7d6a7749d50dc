let label_updated_timeout = Simkit.Label.v Acp "1pc.updated_timeout"
let label_ack_req = Simkit.Label.v Acp "1pc.ack_req"

module Tbl = Simkit.Tbl.Pair

type cphase =
  | C_starting  (* STARTED+REDO force or local work in progress *)
  | C_working  (* UPDATE_REQ out, waiting for UPDATED *)
  | C_recovering  (* fencing the worker / reading its log *)
  | C_committing  (* client answered; own commit force in flight *)
  | C_aborting

type coord = cphase Common.pair_coord

type work = {
  w_id : Txn.id;
  coordinator : int;
  w_updates : Mds.Update.t list;
  mutable committed : bool;  (* force completed, awaiting ACK *)
  mutable w_ospan : int;  (* open worker-lifetime Phase span, -1 = none *)
  w_timer : Simkit.Engine.handle ref;
}

type t = {
  ctx : Context.t;
  coords : coord Tbl.t;
  works : work Tbl.t;
  (* Transactions this incarnation voted NO on. The vote must be sticky:
     a worker commits unilaterally in 1PC, so if a duplicate or retried
     UPDATE_REQ re-executed a rejected transaction it could commit it
     durably after the coordinator — acting on the rejection — already
     answered the client with an abort. A fresh incarnation starts with
     an empty table, which is sound: its predecessor's rejection implies
     no commit record, and the coordinator stops resending once the NO
     vote (or the crash suspicion) reaches it.

     The table is bounded. Each tombstone carries an expiry deadline
     ([tombstone_ttl] past the last UPDATE_REQ that touched it) and the
     table never exceeds [tombstone_cap] entries; [reject_fifo] drives
     lazy expiry at existing dispatch points (no timers, so enabling or
     shrinking the bound cannot perturb event order). Expiry does not
     forget the vote: an expired transaction's sequence number falls
     below [stale_below], and any UPDATE_REQ under that horizon is
     answered with a NO vote instead of being executed. Sequence numbers
     are allocated from one cluster-wide counter, so every transaction
     submitted after the expired one sits above the horizon and a
     spurious NO can only hit a request older than the expired
     tombstone — a conservative abort, never an inconsistency. *)
  rejected : Simkit.Time.t Tbl.t;
  reject_fifo : ((int * int) * Simkit.Time.t) Queue.t;
  mutable stale_below : int;
}

(* ------------------------------------------------------------------ *)
(* NO-vote tombstones                                                  *)
(* ------------------------------------------------------------------ *)

let tombstone_count t = Tbl.length t.rejected
let hit t id = Context.hit t.ctx id

let expire_tombstone t k =
  Tbl.remove t.rejected k;
  t.stale_below <- max t.stale_below (snd k + 1);
  Metrics.Ledger.incr t.ctx.Context.ledger "acp.tombstone.expired"

(* Lazy deletion against [reject_fifo]: a refresh re-enqueues the key,
   so a popped entry whose recorded deadline is stale (the table holds a
   later one) is simply dropped — the live deadline still has its own
   queue entry. Runs in amortized O(1) per tombstone ever created. *)
let gc_tombstones t =
  let now = Simkit.Engine.now t.ctx.Context.engine in
  let rec drain () =
    match Queue.peek_opt t.reject_fifo with
    | Some (k, deadline) when Simkit.Time.( <= ) deadline now -> (
        ignore (Queue.pop t.reject_fifo);
        (match Tbl.find_opt t.rejected k with
        | Some live when Simkit.Time.( <= ) live now ->
            hit t Edges.Opc.w_tomb_expire;
            expire_tombstone t k
        | Some _ | None -> ());
        drain ())
    | _ -> ()
  in
  drain ();
  (* Hard cap: force-expire the oldest queue entries. Early expiry only
     widens the stale horizon, which is safe (see the table comment). *)
  while tombstone_count t > t.ctx.Context.tombstone_cap do
    match Queue.pop t.reject_fifo with
    | k, _ ->
        if Tbl.mem t.rejected k then begin
          hit t Edges.Opc.w_tomb_cap;
          expire_tombstone t k
        end
    | exception Queue.Empty -> assert false (* fifo covers every entry *)
  done

let touch_tombstone t k =
  let deadline =
    Simkit.Time.add
      (Simkit.Engine.now t.ctx.Context.engine)
      t.ctx.Context.tombstone_ttl
  in
  if not (Tbl.mem t.rejected k) then
    Metrics.Ledger.incr t.ctx.Context.ledger "acp.tombstone.add";
  Tbl.replace t.rejected k deadline;
  Queue.push (k, deadline) t.reject_fifo;
  gc_tombstones t

let send_to t server msg =
  t.ctx.Context.send ~dst:(t.ctx.Context.address_of server) msg

let trace t id ~kind detail = Context.trace_txn t.ctx id ~kind detail

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)
(* ------------------------------------------------------------------ *)

(* The worker committed (its UPDATED arrived, or its log said so after
   fencing): answer the client and release the directory lock at once —
   the paper's critical-path cut — then commit our own side and let the
   worker finalize. *)
let coord_worker_committed t (c : coord) =
  Common.cancel_timer t.ctx c.timer;
  c.phase <- C_committing;
  Context.obs_phase t.ctx c.id "1pc.coord.commit";
  t.ctx.Context.client_reply c.id Txn.Committed;
  Common.release_coordinator t.ctx c.id ~locked_at:c.locked_at;
  trace t c.id ~kind:"txn.commit" "worker committed; replying early";
  t.ctx.Context.force
    [
      Log_record.Updates { txn = c.id; updates = c.own_updates };
      Log_record.Committed { txn = c.id };
    ]
    ~on_durable:(fun () ->
      hit t Edges.Opc.c_commit;
      t.ctx.Context.harden c.id c.own_updates;
      send_to t c.worker (Wire.Ack { txn = c.id });
      t.ctx.Context.log_gc c.id;
      Common.drop t.ctx t.coords c.id ~span:c.ospan)

let coord_abort t (c : coord) reason =
  Common.cancel_timer t.ctx c.timer;
  c.phase <- C_aborting;
  Context.obs_phase t.ctx c.id "1pc.coord.abort";
  Common.undo t.ctx c.undo_list;
  c.undo_list <- [];
  trace t c.id ~kind:"txn.abort" reason;
  (* The abort must be durable before the client hears it, or a crash
     would re-execute the transaction from the REDO record and could
     contradict the reply. *)
  t.ctx.Context.force
    [ Log_record.Aborted { txn = c.id } ]
    ~on_durable:(fun () ->
      hit t Edges.Opc.c_abort;
      Common.release_coordinator t.ctx c.id ~locked_at:c.locked_at;
      t.ctx.Context.client_reply c.id (Txn.Aborted reason);
      t.ctx.Context.log_gc c.id;
      Common.drop t.ctx t.coords c.id ~span:c.ospan)

(* Fence the unresponsive worker and decide from its log partition
   (§III-C, second case). *)
let coord_fence_and_decide t (c : coord) =
  if c.phase = C_working then begin
    c.phase <- C_recovering;
    Common.cancel_timer t.ctx c.timer;
    t.ctx.Context.ledger |> fun l -> Metrics.Ledger.incr l "acp.fence";
    trace t c.id ~kind:"txn.fence"
      (Fmt.str "fencing unresponsive worker %d" c.worker);
    t.ctx.Context.fence_and_read
      ~target:(t.ctx.Context.address_of c.worker)
      ~on_read:(fun images ->
        if c.phase = C_recovering then
          match
            List.find_opt
              (fun (img : Log_scan.image) -> Txn.id_equal img.id c.id)
              images
          with
          | Some img when img.committed ->
              hit t Edges.Opc.c_fence_committed;
              trace t c.id ~kind:"txn.fence" "worker log says COMMITTED";
              coord_worker_committed t c
          | Some _ | None ->
              hit t Edges.Opc.c_fence_empty;
              trace t c.id ~kind:"txn.fence" "no commit record; aborting";
              coord_abort t c "worker failed before committing")
  end

let rec arm_updated_timer t (c : coord) =
  t.ctx.Context.set_timer c.timer ~label:label_updated_timeout
    ~after:t.ctx.Context.resend_interval (fun () ->
      if c.phase = C_working then
        if t.ctx.Context.suspects (t.ctx.Context.address_of c.worker) then begin
          hit t Edges.Opc.c_fence_suspect;
          coord_fence_and_decide t c
        end
        else if c.retries >= t.ctx.Context.max_soft_retries then begin
          hit t Edges.Opc.c_fence_retries;
          coord_fence_and_decide t c
        end
        else begin
          (* Alive but slow (or a lost message): retry — the worker
             deduplicates. *)
          hit t Edges.Opc.c_resend;
          c.retries <- c.retries + 1;
          send_to t c.worker
            (Wire.Update_req
               {
                 txn = c.id;
                 updates = c.worker_updates;
                 piggyback_prepare = false;
                 one_phase = true;
               });
          arm_updated_timer t c
        end)

(* [replayed] marks recovery re-execution. A replayed transaction may
   already have committed at the worker, so it must never abort without
   consulting the worker's log: lock waits are retried instead of timing
   out, and a local validation failure is only an abort after a
   fence-and-read confirms the worker never committed. *)
let rec coord_run t (c : coord) ~replayed =
  Common.acquire_locks t.ctx ~txn:c.id ~oids:c.own_lock_oids
    ~on_granted:(fun () ->
      if c.phase = C_starting then begin
        c.locked_at <- Some (Simkit.Engine.now t.ctx.Context.engine);
        Common.apply_updates t.ctx c.own_updates ~k:(fun result ->
            match (result, c.phase) with
            | Ok inverses, C_starting ->
                hit t Edges.Opc.c_started;
                c.undo_list <- inverses;
                c.phase <- C_working;
                send_to t c.worker
                  (Wire.Update_req
                     {
                       txn = c.id;
                       updates = c.worker_updates;
                       piggyback_prepare = false;
                       one_phase = true;
                     });
                arm_updated_timer t c
            | Ok inverses, _ -> Common.undo t.ctx inverses
            | Error e, C_starting ->
                let reason =
                  Fmt.str "local update failed: %a" Mds.State.pp_error e
                in
                if not replayed then coord_abort t c reason
                else begin
                  c.phase <- C_recovering;
                  t.ctx.Context.fence_and_read
                    ~target:(t.ctx.Context.address_of c.worker)
                    ~on_read:(fun images ->
                      let committed =
                        List.exists
                          (fun (img : Log_scan.image) ->
                            Txn.id_equal img.id c.id && img.committed)
                          images
                      in
                      if committed then
                        (* Serialization should make this unreachable:
                           surface it loudly rather than diverge. *)
                        failwith
                          (Fmt.str
                             "1PC recovery: replay of %a failed locally \
                              after the worker committed (%s)"
                             Txn.pp_id c.id reason)
                      else begin
                        hit t Edges.Opc.c_fence_empty;
                        c.phase <- C_starting;
                        coord_abort t c reason
                      end)
                end
            | Error _, _ -> ())
      end)
    ~on_timeout:(fun () ->
      if c.phase = C_starting then
        if replayed then begin
          hit t Edges.Opc.c_replay_lock_retry;
          coord_run t c ~replayed
        end
        else begin
          hit t Edges.Opc.c_lock_timeout;
          coord_abort t c "lock timeout at coordinator"
        end)

let submit t (txn : Txn.t) =
  let c = Common.pair_coord Kind.Opc txn C_starting in
  hit t Edges.Opc.c_submit;
  c.ospan <- Common.track t.ctx t.coords c.id c ~name:"1pc.coord";
  trace t c.id ~kind:"txn.start" "1PC coordinator";
  t.ctx.Context.force
    [
      Log_record.Started { txn = c.id; participants = [ c.worker ] };
      Log_record.Redo { txn = c.id; plan = txn.plan };
    ]
    ~on_durable:(fun () -> if c.phase = C_starting then coord_run t c ~replayed:false)

let coord_on_updated t (c : coord) ~ok =
  match c.phase with
  | C_working ->
      if ok then begin
        hit t Edges.Opc.c_updated_ok;
        coord_worker_committed t c
      end
      else begin
        hit t Edges.Opc.c_updated_nack;
        coord_abort t c "worker rejected updates"
      end
  | C_starting | C_recovering | C_committing | C_aborting -> ()

let coord_on_ack_req t ~src txn =
  match Tbl.find_opt t.coords (Txn.key txn) with
  | Some _ ->
      (* Still committing our side; the ACK will go out when it is done. *)
      hit t Edges.Opc.c_ack_req_pending
  | None ->
      (* Finished (and possibly checkpointed) long ago: the worker only
         needs its acknowledgement. *)
      hit t Edges.Opc.c_ack_req_gone;
      t.ctx.Context.send ~dst:src (Wire.Ack { txn })

(* ------------------------------------------------------------------ *)
(* Worker                                                              *)
(* ------------------------------------------------------------------ *)

(* A worker entered into [works]; [committed] when its force is done. *)
let work_track t (id : Txn.id) updates ~committed ~name =
  let w =
    {
      w_id = id;
      coordinator = id.origin;
      w_updates = updates;
      committed;
      w_ospan = -1;
      w_timer = ref Simkit.Engine.none;
    }
  in
  w.w_ospan <- Common.track t.ctx t.works id w ~name;
  w

let work_drop t w = Common.drop t.ctx t.works w.w_id ~span:w.w_ospan

let rec arm_ack_req_timer t w =
  t.ctx.Context.set_timer w.w_timer ~label:label_ack_req
    ~after:t.ctx.Context.resend_interval (fun () ->
      if w.committed then begin
        hit t Edges.Opc.w_ack_req_resend;
        send_to t w.coordinator (Wire.Ack_req { txn = w.w_id });
        arm_ack_req_timer t w
      end)

let work_reject t txn =
  hit t Edges.Opc.w_reject;
  touch_tombstone t (Txn.key txn)

let work_on_update_req t ~src txn updates =
  gc_tombstones t;
  match Tbl.find_opt t.works (Txn.key txn) with
  | Some w when w.committed ->
      (* Coordinator retry racing our reply. *)
      hit t Edges.Opc.w_dup_committed;
      t.ctx.Context.send ~dst:src (Wire.Updated { txn; ok = true })
  | Some _ -> hit t Edges.Opc.w_dup_inprogress
  | None ->
      if t.ctx.Context.is_hardened txn then begin
        (* Committed in a previous incarnation. *)
        hit t Edges.Opc.w_hardened;
        t.ctx.Context.send ~dst:src (Wire.Updated { txn; ok = true })
      end
      else if Tbl.mem t.rejected (Txn.key txn) then begin
        (* Already voted NO: a duplicate or retried request gets the
           same vote. Re-executing could commit a transaction the
           coordinator has meanwhile aborted on our earlier vote. *)
        hit t Edges.Opc.w_tombstone_nack;
        touch_tombstone t (Txn.key txn);
        t.ctx.Context.send ~dst:src (Wire.Updated { txn; ok = false })
      end
      else if txn.seq < t.stale_below then begin
        (* Below the expiry horizon we can no longer tell a duplicate of
           an expired NO vote from a never-seen request, so vote NO
           conservatively. Any transaction submitted after the expired
           one holds a higher cluster-wide sequence number and is
           unaffected. *)
        hit t Edges.Opc.w_stale_nack;
        Metrics.Ledger.incr t.ctx.Context.ledger "acp.stale_nack";
        t.ctx.Context.send ~dst:src (Wire.Updated { txn; ok = false })
      end
      else begin
        hit t Edges.Opc.w_fresh;
        let w = work_track t txn updates ~committed:false ~name:"1pc.worker" in
        trace t txn ~kind:"txn.start" "1PC worker";
        Common.acquire_locks t.ctx ~txn
          ~oids:(Mds.Update.lock_oids updates)
          ~on_granted:(fun () ->
            Common.apply_updates t.ctx updates ~k:(function
              | Ok _inverses ->
                  (* Commit in the same breath: force updates and the
                     COMMITTED record in one write, then tell the
                     coordinator. *)
                  t.ctx.Context.force
                    [
                      Log_record.Updates { txn; updates };
                      Log_record.Committed { txn };
                    ]
                    ~on_durable:(fun () ->
                      hit t Edges.Opc.w_commit;
                      w.committed <- true;
                      Context.obs_phase t.ctx txn "1pc.worker.commit";
                      t.ctx.Context.harden txn updates;
                      Common.release t.ctx txn;
                      trace t txn ~kind:"txn.commit" "worker committed";
                      send_to t w.coordinator
                        (Wire.Updated { txn; ok = true });
                      arm_ack_req_timer t w)
              | Error e ->
                  trace t txn ~kind:"txn.reject"
                    (Fmt.str "%a" Mds.State.pp_error e);
                  Common.release t.ctx txn;
                  work_drop t w;
                  work_reject t txn;
                  send_to t w.coordinator (Wire.Updated { txn; ok = false })))
          ~on_timeout:(fun () ->
            Common.release t.ctx txn;
            work_drop t w;
            work_reject t txn;
            send_to t w.coordinator (Wire.Updated { txn; ok = false }))
      end

let work_on_ack t txn =
  match Tbl.find_opt t.works (Txn.key txn) with
  | Some w when w.committed ->
      hit t Edges.Opc.w_ack;
      Common.cancel_timer t.ctx w.w_timer;
      let id = w.w_id in
      t.ctx.Context.append_async
        [ Log_record.Ended { txn = id } ]
        ~on_durable:(fun () -> t.ctx.Context.log_gc id);
      work_drop t w
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let on_message t ~src (msg : Wire.t) =
  match msg with
  | Wire.Update_req { txn; updates; one_phase; _ } ->
      if not one_phase then
        invalid_arg "One_phase.on_message: two-phase update request";
      work_on_update_req t ~src txn updates
  | Wire.Updated { txn; ok } -> (
      match Tbl.find_opt t.coords (Txn.key txn) with
      | Some c -> coord_on_updated t c ~ok
      | None -> ())
  | Wire.Ack { txn } -> work_on_ack t txn
  | Wire.Ack_req { txn } -> coord_on_ack_req t ~src txn
  | Wire.Decision_req { txn } ->
      (* A 2PC worker asking us (mixed-protocol cluster); answer from the
         log like PrC would. *)
      let committed =
        match Log_scan.find (t.ctx.Context.own_log ()) txn with
        | Some img -> img.committed
        | None -> t.ctx.Context.is_hardened txn
      in
      t.ctx.Context.send ~dst:src (Wire.Decision { txn; committed })
  | Wire.Prepare _ | Wire.Prepared _ | Wire.Commit _ | Wire.Abort _
  | Wire.Decision _ | Wire.Vote_req _ | Wire.Vote _ | Wire.Rep_store _
  | Wire.Rep_ack _ | Wire.Decide _ | Wire.Decide_ack _ | Wire.Rep_drop _
  | Wire.Recover_req _ | Wire.Recover_resp _ ->
      ()

let on_suspect t peer =
  let server = Netsim.Address.index peer in
  Tbl.iter
    (fun _ (c : coord) ->
      if c.worker = server && c.phase = C_working then begin
        hit t Edges.Opc.c_fence_suspect;
        coord_fence_and_decide t c
      end)
    t.coords

(* ------------------------------------------------------------------ *)
(* Recovery (§III-C, restart cases)                                    *)
(* ------------------------------------------------------------------ *)

let recover_coordinator t (img : Log_scan.image) =
  if img.committed then begin
    hit t Edges.Opc.r_coord_committed;
    (* Decided before the crash; the generic pass hardened the updates.
       The worker may still be waiting for its acknowledgement. *)
    (match img.participants with
    | [ w ] -> send_to t w (Wire.Ack { txn = img.id })
    | _ -> ());
    t.ctx.Context.client_reply img.id Txn.Committed;
    t.ctx.Context.log_gc img.id
  end
  else if img.aborted then begin
    hit t Edges.Opc.r_coord_aborted;
    t.ctx.Context.client_reply img.id (Txn.Aborted "aborted before crash");
    t.ctx.Context.log_gc img.id
  end
  else begin
    (* STARTED with no outcome: re-execute from the REDO record.
       [owns_image] passes only coordinator images that carry one:
       STARTED and REDO are forced as one write. *)
    hit t Edges.Opc.r_coord_redo;
    trace t img.id ~kind:"txn.recover" "re-executing from REDO";
    let plan = Option.get img.plan in
    let c = Common.pair_coord Kind.Opc { Txn.id = img.id; plan } C_starting in
    c.ospan <- Common.track t.ctx t.coords c.id c ~name:"1pc.coord.recover";
    coord_run t c ~replayed:true
  end

let recover_worker t (img : Log_scan.image) =
  if img.committed && not img.ended then begin
    hit t Edges.Opc.r_worker_committed;
    (* Ask for the acknowledgement so the log can be finalized. *)
    let w =
      work_track t img.id img.updates ~committed:true
        ~name:"1pc.worker.recover"
    in
    trace t w.w_id ~kind:"txn.recover" "asking coordinator to resend ACK";
    send_to t w.coordinator (Wire.Ack_req { txn = w.w_id });
    arm_ack_req_timer t w
  end
  else begin
    hit t Edges.Opc.r_worker_gc;
    t.ctx.Context.log_gc img.id
  end

(* Mirror of Two_phase.owns_image: 1PC coordinator images always carry a
   REDO plan (forced atomically with STARTED) and 1PC workers never write
   PREPARED. *)
let owns_image t (img : Log_scan.image) =
  if img.id.origin = t.ctx.Context.self_server then img.plan <> None
  else img.committed && not img.prepared

let instantiate ctx =
  let t =
    {
      ctx;
      coords = Tbl.create 64;
      works = Tbl.create 64;
      rejected = Tbl.create 64;
      reject_fifo = Queue.create ();
      stale_below = 0;
    }
  in
  {
    Common.kind = Kind.Opc;
    submit = submit t;
    on_message = on_message t;
    recover =
      (fun ~on_done ->
        Common.recover_log ctx ~owns:(owns_image t)
          ~coordinator:(recover_coordinator t) ~worker:(recover_worker t);
        on_done ());
    on_suspect = on_suspect t;
    outstanding = (fun () -> Tbl.length t.coords + Tbl.length t.works);
    owns =
      (fun id -> Tbl.mem t.coords (Txn.key id) || Tbl.mem t.works (Txn.key id));
  }
