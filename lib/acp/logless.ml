let label_vote_timeout = Simkit.Label.v Acp "l1pc.vote_timeout"
let label_work_resend = Simkit.Label.v Acp "l1pc.work_resend"
let label_decide_resend = Simkit.Label.v Acp "l1pc.decide_resend"
let label_recover_resend = Simkit.Label.v Acp "l1pc.recover_resend"

module Tbl = Simkit.Tbl.Pair

type cphase =
  | C_starting  (* local locks/updates in progress *)
  | C_voting  (* VOTE_REQ out, waiting for the worker's vote *)
  | C_deciding  (* committed and replied; resending DECIDE until acked *)

type coord = cphase Common.pair_coord

type wstate =
  | W_locking  (* acquiring locks / applying updates *)
  | W_replicating  (* REP_STOREs out, vote parked until the first REP_ACK *)
  | W_voted  (* YES vote sent, locks held until the decision *)

type work = {
  w_id : Txn.id;
  coordinator : int;
  w_updates : Mds.Update.t list;
  mutable wstate : wstate;
  mutable doomed : bool;  (* DECIDE(abort) raced the lock acquisition *)
  mutable rep_acked : int list;  (* replica-group members that acked *)
  mutable w_undo : Mds.Update.t list;
  mutable w_ospan : int;  (* open worker-lifetime Phase span, -1 = none *)
  w_timer : Simkit.Engine.handle ref;
}

(* One in-flight quorum read, replacing 1PC's fence-and-scan. *)
type recovery = {
  mutable awaiting : int list;  (* members that have not answered *)
  mutable rec_attempts : int;
  rec_items : (Txn.id * Mds.Update.t list) Tbl.t;
  rec_timer : Simkit.Engine.handle ref;
  rec_done : unit -> unit;
  mutable resurrecting : int;  (* async lock/apply continuations in flight *)
  mutable collected : bool;  (* responses closed; resurrection started *)
}

(* One parked vote held for a group peer. [owner] is the worker's server
   slot (the transaction's origin is its coordinator, a different node).
   The replica store threads its entries oldest first, so the eviction
   order holds exactly the stored entries: eviction finds the oldest in
   O(1) and REP_DROP unlinks in O(1). *)
type parked = {
  p_key : int * int;
  mutable owner : int;
  mutable p_updates : Mds.Update.t list;
  mutable older : parked option;
  mutable newer : parked option;
}

type t = {
  ctx : Context.t;
  coords : coord Tbl.t;
  works : work Tbl.t;
  (* Passive replica store: copies of our group peers' volatile vote
     state, keyed by transaction. Entries are installed by REP_STORE,
     dropped by REP_DROP, and read back wholesale by a restarting owner's
     RECOVER_REQ. Deliberately volatile: the whole point of L1PC is that
     durability of a vote comes from the quorum holding it in memory, not
     from any log.

     The store is bounded by [tombstone_cap] (reusing the 1PC knob: both
     cap "small per-transaction residue a fault can strand"). REP_DROPs
     lost to the network would otherwise leak entries for the length of
     the run; on overflow the oldest entry is evicted. Evicting a *live*
     entry is survivable — it only weakens the owner's recovery quorum by
     one copy, and the DECIDE retransmission path re-teaches a worker that
     lost everything — so a FIFO bound is enough. *)
  replica : parked Tbl.t;
  mutable oldest : parked option;
  mutable newest : parked option;
  mutable recovering : recovery option;
}

let send_to t server msg =
  t.ctx.Context.send ~dst:(t.ctx.Context.address_of server) msg

let trace t id ~kind detail = Context.trace_txn t.ctx id ~kind detail
let hit t id = Context.hit t.ctx id

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)
(* ------------------------------------------------------------------ *)

let send_vote_req t (c : coord) =
  send_to t c.worker (Wire.Vote_req { txn = c.id; updates = c.worker_updates })

let send_decide t (c : coord) =
  send_to t c.worker
    (Wire.Decide { txn = c.id; commit = true; updates = c.worker_updates })

(* Pre-decision abort: nothing was logged and the worker holds no
   decision, so undoing the volatile image and answering the client is
   the whole procedure. [notify_worker] additionally fire-and-forgets a
   DECIDE(abort) for give-up paths where the worker may sit on a voted
   (or still-replicating) entry; lost copies are survivable because the
   worker's vote resends eventually reach the stateless coordinator,
   which re-answers abort (presumed abort). *)
let coord_abort ?(notify_worker = false) t (c : coord) reason =
  Common.cancel_timer t.ctx c.timer;
  Context.obs_phase t.ctx c.id "l1pc.coord.abort";
  Common.undo t.ctx c.undo_list;
  c.undo_list <- [];
  trace t c.id ~kind:"txn.abort" reason;
  if notify_worker then
    send_to t c.worker (Wire.Decide { txn = c.id; commit = false; updates = [] });
  Common.release_coordinator t.ctx c.id ~locked_at:c.locked_at;
  t.ctx.Context.client_reply c.id (Txn.Aborted reason);
  Common.drop t.ctx t.coords c.id ~span:c.ospan

let rec arm_decide_timer t (c : coord) =
  t.ctx.Context.set_timer c.timer ~label:label_decide_resend
    ~after:t.ctx.Context.resend_interval (fun () ->
      if c.phase = C_deciding then begin
        hit t Edges.Lp1.c_decide_resend;
        c.retries <- c.retries + 1;
        send_decide t c;
        arm_decide_timer t c
      end)

(* The worker's YES vote is durable at a quorum of its replica group;
   together with hardening our own half that makes the decision stable
   without any log force — reply and release immediately (the paper's
   critical-path cut, now with zero forces on it). *)
let coord_decide_commit t (c : coord) =
  hit t Edges.Lp1.c_vote_yes;
  Common.cancel_timer t.ctx c.timer;
  c.phase <- C_deciding;
  c.retries <- 0;
  Context.obs_phase t.ctx c.id "l1pc.coord.commit";
  t.ctx.Context.harden c.id c.own_updates;
  t.ctx.Context.client_reply c.id Txn.Committed;
  Common.release_coordinator t.ctx c.id ~locked_at:c.locked_at;
  trace t c.id ~kind:"txn.commit" "worker voted yes; deciding commit";
  send_decide t c;
  arm_decide_timer t c

let rec arm_vote_timer t (c : coord) =
  t.ctx.Context.set_timer c.timer ~label:label_vote_timeout
    ~after:t.ctx.Context.resend_interval (fun () ->
      if c.phase = C_voting then
        if t.ctx.Context.suspects (t.ctx.Context.address_of c.worker) then begin
          hit t Edges.Lp1.c_suspect_abort;
          coord_abort ~notify_worker:true t c "worker failed to vote"
        end
        else if c.retries >= t.ctx.Context.max_soft_retries then begin
          hit t Edges.Lp1.c_timeout_abort;
          coord_abort ~notify_worker:true t c "worker failed to vote"
        end
        else begin
          hit t Edges.Lp1.c_resend;
          c.retries <- c.retries + 1;
          send_vote_req t c;
          arm_vote_timer t c
        end)

let submit t (txn : Txn.t) =
  let c = Common.pair_coord Kind.Lp1 txn C_starting in
  hit t Edges.Lp1.c_submit;
  c.ospan <- Common.track t.ctx t.coords c.id c ~name:"l1pc.coord";
  trace t c.id ~kind:"txn.start" "L1PC coordinator";
  Common.acquire_locks t.ctx ~txn:c.id ~oids:c.own_lock_oids
    ~on_granted:(fun () ->
      if c.phase = C_starting then begin
        c.locked_at <- Some (Simkit.Engine.now t.ctx.Context.engine);
        Common.apply_updates t.ctx c.own_updates ~k:(fun result ->
            match (result, c.phase) with
            | Ok inverses, C_starting ->
                c.undo_list <- inverses;
                c.phase <- C_voting;
                send_vote_req t c;
                arm_vote_timer t c
            | Ok inverses, _ -> Common.undo t.ctx inverses
            | Error e, C_starting ->
                coord_abort t c
                  (Fmt.str "local update failed: %a" Mds.State.pp_error e)
            | Error _, _ -> ())
      end)
    ~on_timeout:(fun () ->
      if c.phase = C_starting then begin
        hit t Edges.Lp1.c_lock_timeout;
        coord_abort t c "lock timeout at coordinator"
      end)

let coord_on_vote t ~src txn vote =
  match Tbl.find_opt t.coords (Txn.key txn) with
  | Some c -> (
      match c.phase with
      | C_voting ->
          if vote then coord_decide_commit t c
          else begin
            hit t Edges.Lp1.c_vote_no;
            coord_abort t c "worker voted no"
          end
      | C_deciding ->
          (* Duplicate/retransmitted vote: the decision got lost. *)
          hit t Edges.Lp1.c_vote_dup;
          if vote then send_decide t c
      | C_starting -> ())
  | None ->
      (* No state left. A hardened coordinator image proves the decision
         was commit (we harden before dropping state); anything else is
         presumed abort — exactly the rule a logged protocol reads from
         its log, answered here from the durable metadata image. *)
      if t.ctx.Context.is_hardened txn then begin
        hit t Edges.Lp1.c_stateless_commit;
        t.ctx.Context.send ~dst:src (Wire.Decide { txn; commit = true; updates = [] })
      end
      else begin
        hit t Edges.Lp1.c_stateless_abort;
        t.ctx.Context.send ~dst:src (Wire.Decide { txn; commit = false; updates = [] })
      end

let coord_on_decide_ack t txn =
  match Tbl.find_opt t.coords (Txn.key txn) with
  | Some c when c.phase = C_deciding ->
      hit t Edges.Lp1.c_decide_ack;
      Common.cancel_timer t.ctx c.timer;
      Common.drop t.ctx t.coords c.id ~span:c.ospan
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Worker                                                              *)
(* ------------------------------------------------------------------ *)

let work_drop t w =
  Common.cancel_timer t.ctx w.w_timer;
  Common.drop t.ctx t.works w.w_id ~span:w.w_ospan

let rep_drop_all t txn =
  List.iter
    (fun m -> send_to t m (Wire.Rep_drop { txn }))
    t.ctx.Context.replicas

let send_rep_store t w =
  List.iter
    (fun m ->
      if not (List.mem m w.rep_acked) then
        send_to t m
          (Wire.Rep_store
             {
               txn = w.w_id;
               owner = t.ctx.Context.self_server;
               updates = w.w_updates;
             }))
    t.ctx.Context.replicas

let rec arm_work_timer t w =
  t.ctx.Context.set_timer w.w_timer ~label:label_work_resend
    ~after:t.ctx.Context.resend_interval (fun () ->
      if Tbl.mem t.works (Txn.key w.w_id) then begin
        (match w.wstate with
        | W_replicating -> send_rep_store t w
        | W_voted ->
            hit t Edges.Lp1.w_vote_resend;
            send_to t w.coordinator (Wire.Vote { txn = w.w_id; vote = true })
        | W_locking -> ());
        arm_work_timer t w
      end)

(* First REP_ACK = the vote survives one crash of this node; send it.
   The coordinator's reply latency therefore rides on the *fastest*
   group member, while later acks only deepen the recovery quorum. *)
let work_vote_yes t w =
  w.wstate <- W_voted;
  Context.obs_phase t.ctx w.w_id "l1pc.worker.vote";
  send_to t w.coordinator (Wire.Vote { txn = w.w_id; vote = true });
  arm_work_timer t w

(* Wait-die deadlock avoidance. A logged protocol's forces accidentally
   stagger symmetric conflicts on the shared log device; logless
   execution has no such tiebreak, so two crossing transactions can
   deadlock — and, under timeout-driven resubmission, livelock — in
   perfect lockstep. Classic wait-die on the cluster-wide sequence
   number breaks the tie deterministically: a VOTE_REQ younger than a
   pre-decision local coordinator holding one of its locks votes NO at
   once instead of queueing; the older side waits and wins. The check is
   deliberately narrow — only pre-decision *coordinator* holders can
   close a distributed cycle through this node, and worker-held locks
   always drain once their decision arrives, so ordinary contention
   still waits instead of aborting. *)
let age_of_token token = (token land ((1 lsl 42) - 1), token lsr 42)

let pre_decision_coord t token =
  Tbl.fold
    (fun _ (c : coord) acc ->
      acc
      || Txn.owner_token c.id = token
         && (c.phase = C_starting || c.phase = C_voting))
    t.coords false

let must_die t txn oids =
  let my_age = age_of_token (Txn.owner_token txn) in
  List.exists
    (fun oid ->
      List.exists
        (fun (holder, _mode) ->
          age_of_token holder < my_age && pre_decision_coord t holder)
        (Locks.Lock_manager.holders t.ctx.Context.locks ~oid))
    oids

let work_on_vote_req t ~src txn updates =
  match Tbl.find_opt t.works (Txn.key txn) with
  | Some w when w.wstate = W_voted ->
      (* Coordinator retry racing our vote. *)
      hit t Edges.Lp1.w_vote_dup;
      t.ctx.Context.send ~dst:src (Wire.Vote { txn; vote = true })
  | Some _ -> ()
  | None ->
      let oids = Mds.Update.lock_oids updates in
      if t.ctx.Context.is_hardened txn then begin
        (* Committed in a previous incarnation. *)
        hit t Edges.Lp1.w_hardened;
        t.ctx.Context.send ~dst:src (Wire.Vote { txn; vote = true })
      end
      else if must_die t txn oids then begin
        hit t Edges.Lp1.w_die;
        trace t txn ~kind:"txn.die"
          "L1PC worker: wait-die, older coordinator holds a needed lock";
        t.ctx.Context.send ~dst:src (Wire.Vote { txn; vote = false })
      end
      else begin
        let w =
          {
            w_id = txn;
            coordinator = txn.origin;
            w_updates = updates;
            wstate = W_locking;
            doomed = false;
            rep_acked = [];
            w_undo = [];
            w_ospan = -1;
            w_timer = ref Simkit.Engine.none;
          }
        in
        hit t Edges.Lp1.w_fresh;
        w.w_ospan <- Common.track t.ctx t.works txn w ~name:"l1pc.worker";
        trace t txn ~kind:"txn.start" "L1PC worker";
        Common.acquire_locks t.ctx ~txn ~oids
          ~on_granted:(fun () ->
            if w.doomed then begin
              (* DECIDE(abort) overtook the lock grant; nothing applied. *)
              Common.release t.ctx txn;
              work_drop t w
            end
            else
              Common.apply_updates t.ctx updates ~k:(function
                | Ok inverses ->
                    if w.doomed then begin
                      Common.undo t.ctx inverses;
                      Common.release t.ctx txn;
                      work_drop t w
                    end
                    else begin
                      w.w_undo <- inverses;
                      match t.ctx.Context.replicas with
                      | [] ->
                          (* Degenerate group: no peer can hold the vote,
                             so it is only as durable as this node — the
                             single-server corner every protocol shares. *)
                          work_vote_yes t w
                      | _ ->
                          w.wstate <- W_replicating;
                          send_rep_store t w;
                          arm_work_timer t w
                    end
                | Error e ->
                    hit t Edges.Lp1.w_reject;
                    trace t txn ~kind:"txn.reject"
                      (Fmt.str "%a" Mds.State.pp_error e);
                    Common.release t.ctx txn;
                    work_drop t w;
                    send_to t w.coordinator (Wire.Vote { txn; vote = false })))
          ~on_timeout:(fun () ->
            hit t Edges.Lp1.w_reject;
            Common.release t.ctx txn;
            work_drop t w;
            send_to t w.coordinator (Wire.Vote { txn; vote = false }))
      end

let work_on_rep_ack t ~src txn =
  match Tbl.find_opt t.works (Txn.key txn) with
  | Some w ->
      let member = Netsim.Address.index src in
      let first = w.rep_acked = [] in
      if not (List.mem member w.rep_acked) then
        w.rep_acked <- member :: w.rep_acked;
      if first && w.wstate = W_replicating then begin
        hit t Edges.Lp1.w_rep_ack;
        work_vote_yes t w
      end
  | None -> ()

let work_on_decide t ~src txn commit updates =
  match Tbl.find_opt t.works (Txn.key txn) with
  | Some w -> (
      match w.wstate with
      | W_locking ->
          (* Commit before our vote is impossible; an abort means the
             coordinator gave up while we queued for locks. *)
          if not commit then begin
            hit t Edges.Lp1.w_doomed;
            w.doomed <- true
          end
      | W_replicating | W_voted ->
          if commit then begin
            hit t Edges.Lp1.w_commit;
            Common.cancel_timer t.ctx w.w_timer;
            Context.obs_phase t.ctx txn "l1pc.worker.commit";
            t.ctx.Context.harden txn w.w_updates;
            Common.release t.ctx txn;
            trace t txn ~kind:"txn.commit" "decision: commit";
            t.ctx.Context.send ~dst:src (Wire.Decide_ack { txn });
            rep_drop_all t txn;
            work_drop t w
          end
          else begin
            hit t Edges.Lp1.w_abort;
            Common.cancel_timer t.ctx w.w_timer;
            Common.undo t.ctx w.w_undo;
            Common.release t.ctx txn;
            trace t txn ~kind:"txn.abort" "decision: abort";
            rep_drop_all t txn;
            work_drop t w
          end)
  | None ->
      if commit then
        if t.ctx.Context.is_hardened txn then begin
          (* Already committed (recovery resurrected and finished it, or
             a duplicate DECIDE); the coordinator only needs its ack. *)
          hit t Edges.Lp1.w_decide_hardened;
          t.ctx.Context.send ~dst:src (Wire.Decide_ack { txn })
        end
        else begin
          hit t Edges.Lp1.w_decide_replay;
          (* Everything volatile is gone — this node crashed *and* its
             recovery quorum had no copy. The decision message carries
             the updates precisely for this last-ditch path. *)
          (match updates with
          | [] ->
              (* A re-decided abort-then-commit cannot happen; an empty
                 commit here means the durable copy was lost beyond the
                 quorum's reach. Count it rather than diverge silently —
                 the chaos oracles catch any actual divergence. *)
              Metrics.Ledger.incr t.ctx.Context.ledger "l1pc.lost_updates"
          | _ ->
              ignore (Common.replay t.ctx updates);
              t.ctx.Context.harden txn updates;
              trace t txn ~kind:"txn.recover"
                "replayed committed updates from DECIDE");
          t.ctx.Context.send ~dst:src (Wire.Decide_ack { txn });
          rep_drop_all t txn
        end

(* ------------------------------------------------------------------ *)
(* Replica store (passive)                                             *)
(* ------------------------------------------------------------------ *)

let replica_remove t p =
  (match p.older with
  | Some o -> o.newer <- p.newer
  | None -> t.oldest <- p.newer);
  (match p.newer with
  | Some n -> n.older <- p.older
  | None -> t.newest <- p.older);
  Tbl.remove t.replica p.p_key

let replica_gc t =
  while Tbl.length t.replica > t.ctx.Context.tombstone_cap do
    match t.oldest with
    | Some p ->
        hit t Edges.Lp1.rep_evict;
        replica_remove t p;
        Metrics.Ledger.incr t.ctx.Context.ledger "l1pc.replica.evicted"
    | None -> assert false (* the order threads every entry *)
  done

(* A re-sent REP_STORE refreshes the entry in place; its age is that of
   its first store. *)
let replica_on_store t ~src txn owner updates =
  let k = Txn.key txn in
  hit t Edges.Lp1.rep_store;
  (match Tbl.find_opt t.replica k with
  | Some p ->
      p.owner <- owner;
      p.p_updates <- updates
  | None ->
      let p =
        {
          p_key = k;
          owner;
          p_updates = updates;
          older = t.newest;
          newer = None;
        }
      in
      (match t.newest with
      | Some n -> n.newer <- Some p
      | None -> t.oldest <- Some p);
      t.newest <- Some p;
      Tbl.add t.replica k p);
  replica_gc t;
  t.ctx.Context.send ~dst:src (Wire.Rep_ack { txn })

let replica_on_recover_req t ~src owner =
  hit t Edges.Lp1.rep_recover_req;
  let items =
    Tbl.fold
      (fun (origin, seq) p acc ->
        if p.owner = owner then ({ Txn.origin; seq }, p.p_updates) :: acc
        else acc)
      t.replica []
    |> List.sort (fun ((a : Txn.id), _) (b, _) -> Txn.id_compare a b)
  in
  t.ctx.Context.send ~dst:src (Wire.Recover_resp { owner; items })

(* ------------------------------------------------------------------ *)
(* Recovery: quorum read instead of fence-and-scan                     *)
(* ------------------------------------------------------------------ *)

(* Coordinator-side state needs no resurrection at all: undecided
   transactions are presumed abort (the stateless [coord_on_vote] answer
   plus the cluster's orphan sweep reply to the client), and decided ones
   are readable from the hardened image. Worker-side votes are the only
   volatile state that matters, and the replica group holds them. *)

let rec arm_recover_timer t r =
  t.ctx.Context.set_timer r.rec_timer ~label:label_recover_resend
    ~after:t.ctx.Context.resend_interval (fun () ->
      if (not r.collected) && r.awaiting <> [] then
        if r.rec_attempts >= t.ctx.Context.max_soft_retries then begin
          hit t Edges.Lp1.r_short;
          (* A group member is down (possibly in the same failure
             burst). Proceed on the copies we have: every vote reached
             the quorum before it was cast, so only votes the
             coordinator never saw can be lost — and those are presumed
             abort anyway. *)
          Context.trace_txn t.ctx
            { Txn.origin = t.ctx.Context.self_server; seq = 0 }
            ~kind:"txn.recover"
            (Fmt.str "quorum read short %d member(s); proceeding"
               (List.length r.awaiting));
          finish_collection t r
        end
        else begin
          hit t Edges.Lp1.r_resend;
          r.rec_attempts <- r.rec_attempts + 1;
          List.iter
            (fun m ->
              send_to t m
                (Wire.Recover_req { owner = t.ctx.Context.self_server }))
            r.awaiting;
          arm_recover_timer t r
        end)

and resurrection_done t r =
  r.resurrecting <- r.resurrecting - 1;
  if r.resurrecting = 0 then begin
    t.recovering <- None;
    r.rec_done ()
  end

(* Re-install one parked vote. The entry may be stale — its transaction
   aborted and REP_DROP was lost — in which case its locks were released
   before the crash and later commits may conflict; a validation failure
   therefore just drops the entry (the coordinator aborted it, or holds
   a commit whose DECIDE retransmission will re-teach us the updates).
   A genuinely voted entry held its locks until the crash, so replaying
   against the pre-vote durable image always validates. *)
and resurrect t r (id : Txn.id) updates =
  if t.ctx.Context.is_hardened id then begin
    (* Crashed between hardening and the coordinator's DECIDE_ACK. *)
    hit t Edges.Lp1.r_resurrect_hardened;
    rep_drop_all t id;
    send_to t id.origin (Wire.Decide_ack { txn = id })
  end
  else begin
    r.resurrecting <- r.resurrecting + 1;
    let w =
      {
        w_id = id;
        coordinator = id.origin;
        w_updates = updates;
        wstate = W_locking;
        doomed = false;
        rep_acked = t.ctx.Context.replicas;
        w_undo = [];
        w_ospan = -1;
        w_timer = ref Simkit.Engine.none;
      }
    in
    w.w_ospan <- Common.track t.ctx t.works id w ~name:"l1pc.worker.recover";
    trace t id ~kind:"txn.recover" "re-voting from replica quorum";
    Common.acquire_locks t.ctx ~txn:id
      ~oids:(Mds.Update.lock_oids updates)
      ~on_granted:(fun () ->
        Common.apply_updates t.ctx updates ~k:(fun result ->
            (match result with
            | Ok inverses ->
                hit t Edges.Lp1.r_resurrect_revote;
                w.w_undo <- inverses;
                work_vote_yes t w
            | Error e ->
                hit t Edges.Lp1.r_stale;
                trace t id ~kind:"txn.recover"
                  (Fmt.str "stale replica entry (%a); dropping"
                     Mds.State.pp_error e);
                Common.release t.ctx id;
                work_drop t w;
                rep_drop_all t id);
            resurrection_done t r))
      ~on_timeout:(fun () ->
        hit t Edges.Lp1.r_stale;
        Common.release t.ctx id;
        work_drop t w;
        rep_drop_all t id;
        resurrection_done t r)
  end

and finish_collection t r =
  r.collected <- true;
  Common.cancel_timer t.ctx r.rec_timer;
  let items =
    Tbl.fold (fun _ item acc -> item :: acc) r.rec_items []
    |> List.sort (fun ((a : Txn.id), _) (b, _) -> Txn.id_compare a b)
  in
  (* Guard at 1 so synchronous resurrections cannot fire rec_done before
     every item has been walked. *)
  r.resurrecting <- 1;
  List.iter (fun (id, updates) -> resurrect t r id updates) items;
  resurrection_done t r

let on_recover_resp t ~src owner items =
  if owner = t.ctx.Context.self_server then
    match t.recovering with
    | Some r when not r.collected ->
        let member = Netsim.Address.index src in
        if List.mem member r.awaiting then begin
          hit t Edges.Lp1.r_resp;
          r.awaiting <- List.filter (fun m -> m <> member) r.awaiting;
          List.iter
            (fun (id, updates) ->
              if not (Tbl.mem r.rec_items (Txn.key id)) then
                Tbl.replace r.rec_items (Txn.key id) (id, updates))
            items;
          if r.awaiting = [] then finish_collection t r
        end
    | Some _ | None -> ()

let recover t ~on_done =
  match t.ctx.Context.replicas with
  | [] -> on_done ()
  | members ->
      hit t Edges.Lp1.r_start;
      let r =
        {
          awaiting = members;
          rec_attempts = 0;
          rec_items = Tbl.create 16;
          rec_timer = ref Simkit.Engine.none;
          rec_done = on_done;
          resurrecting = 0;
          collected = false;
        }
      in
      t.recovering <- Some r;
      List.iter
        (fun m ->
          send_to t m
            (Wire.Recover_req { owner = t.ctx.Context.self_server }))
        members;
      arm_recover_timer t r

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let on_message t ~src (msg : Wire.t) =
  match msg with
  | Wire.Vote_req { txn; updates } -> work_on_vote_req t ~src txn updates
  | Wire.Vote { txn; vote } -> coord_on_vote t ~src txn vote
  | Wire.Rep_store { txn; owner; updates } ->
      replica_on_store t ~src txn owner updates
  | Wire.Rep_ack { txn } -> work_on_rep_ack t ~src txn
  | Wire.Decide { txn; commit; updates } ->
      work_on_decide t ~src txn commit updates
  | Wire.Decide_ack { txn } -> coord_on_decide_ack t txn
  | Wire.Rep_drop { txn } -> (
      match Tbl.find_opt t.replica (Txn.key txn) with
      | Some p ->
          hit t Edges.Lp1.rep_drop;
          replica_remove t p
      | None -> ())
  | Wire.Recover_req { owner } -> replica_on_recover_req t ~src owner
  | Wire.Recover_resp { owner; items } -> on_recover_resp t ~src owner items
  | Wire.Update_req _ | Wire.Updated _ | Wire.Ack _ | Wire.Ack_req _
  | Wire.Prepare _ | Wire.Prepared _ | Wire.Commit _ | Wire.Abort _
  | Wire.Decision_req _ | Wire.Decision _ ->
      (* Logged-protocol traffic (mixed clusters route 2PC to the
         fallback engine before it could reach us). *)
      ()

let on_suspect t peer =
  let server = Netsim.Address.index peer in
  (* Collect first: aborting removes table entries, and mutating a
     table under iteration is unspecified. Sorted for determinism. *)
  let victims =
    Tbl.fold
      (fun _ (c : coord) acc ->
        if c.worker = server && c.phase = C_voting then c :: acc else acc)
      t.coords []
    |> List.sort (fun (a : coord) b -> Txn.id_compare a.id b.id)
  in
  List.iter
    (fun (c : coord) ->
      if c.phase = C_voting then begin
        hit t Edges.Lp1.c_suspect_abort;
        coord_abort ~notify_worker:true t c "worker suspected before voting"
      end)
    victims

let instantiate ctx =
  let t =
    {
      ctx;
      coords = Tbl.create 64;
      works = Tbl.create 64;
      replica = Tbl.create 64;
      oldest = None;
      newest = None;
      recovering = None;
    }
  in
  {
    Common.kind = Kind.Lp1;
    submit = submit t;
    on_message = on_message t;
    recover = recover t;
    on_suspect = on_suspect t;
    (* Replica-store entries are passive (no timers, no liveness
       obligations), so they do not count as outstanding work. *)
    outstanding = (fun () -> Tbl.length t.coords + Tbl.length t.works);
    owns =
      (fun id ->
        let k = Txn.key id in
        Tbl.mem t.coords k || Tbl.mem t.works k || Tbl.mem t.replica k);
  }
