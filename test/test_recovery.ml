(* Recovery decision tables (§II-C and §III-C), tested protocol-engine
   by protocol-engine against a scriptable harness context.

   The cluster-level suites exercise recovery through full simulations;
   here each restart case of the paper is driven directly: build an
   engine instance over a harness whose log, network and SAN are plain
   lists, seed the durable log with the exact records of one paper case,
   call [recover], and assert precisely which messages, log records and
   client replies come out. *)

open Opc
open Opc.Acp

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

type harness = {
  engine : Simkit.Engine.t;
  ctx : Context.t;
  sent : (int * Wire.t) list ref;  (* (destination server, message) *)
  log : Log_record.t list ref;  (* durable records, newest last *)
  replies : (Txn.id * Txn.outcome) list ref;
  store : Mds.Store.t;
  hardened : (int * int, Mds.Update.t list) Hashtbl.t;
  fence_requests : (int * (Log_scan.image list -> unit)) list ref;
  suspected : (int, unit) Hashtbl.t;
}

let self_server = 0

let make_harness ?(initial_log = []) () =
  let engine = Simkit.Engine.create () in
  let sent = ref [] in
  let log = ref initial_log in
  let replies = ref [] in
  let fence_requests = ref [] in
  let suspected = Hashtbl.create 4 in
  let store = Mds.Store.create ~name:"h" ~root:(Some 0) in
  let hardened = Hashtbl.create 16 in
  let locks =
    Locks.Lock_manager.create ~engine ~name:"h.locks" ()
  in
  let address i = Netsim.Address.unsafe_make ~index:i ~name:(Fmt.str "mds%d" i) in
  let ctx =
    {
      Context.engine;
      self = address self_server;
      self_server;
      address_of = address;
      send =
        (fun ~dst wire ->
          sent := (Netsim.Address.index dst, wire) :: !sent);
      force =
        (fun records ~on_durable ->
          (* Durable after one engine step, like a fast disk. *)
          ignore
            (Simkit.Engine.defer engine (fun () ->
                 log := !log @ records;
                 on_durable ())));
      append_async =
        (fun ?on_durable records ->
          ignore
            (Simkit.Engine.defer engine (fun () ->
                 log := !log @ records;
                 match on_durable with Some f -> f () | None -> ())));
      log_gc =
        (fun txn ->
          log :=
            List.filter
              (fun r -> not (Txn.id_equal (Log_record.txn r) txn))
              !log);
      own_log = (fun () -> !log);
      fence_and_read =
        (fun ~target ~on_read ->
          fence_requests :=
            (Netsim.Address.index target, on_read) :: !fence_requests);
      locks;
      store;
      harden =
        (fun txn updates ->
          if not (Hashtbl.mem hardened (txn.Txn.origin, txn.Txn.seq)) then begin
            Hashtbl.replace hardened (txn.Txn.origin, txn.Txn.seq) updates;
            Mds.Store.commit_durable store updates
          end);
      is_hardened =
        (fun txn -> Hashtbl.mem hardened (txn.Txn.origin, txn.Txn.seq));
      compute =
        (fun ~n k ->
          ignore n;
          ignore (Simkit.Engine.defer engine k));
      set_timer = Context.slot_timer engine ~alive:(fun () -> true);
      timeout = Simkit.Time.span_ms 100;
      resend_interval = Simkit.Time.span_ms 100;
      max_soft_retries = 2;
      tombstone_ttl = Simkit.Time.span_ms 800;
      tombstone_cap = 4096;
      replicas = [ 1; 2 ];
      suspects =
        (fun peer -> Hashtbl.mem suspected (Netsim.Address.index peer));
      ledger = Metrics.Ledger.create ();
      sink = Obs.Sink.disabled ();
      client_reply = (fun txn outcome -> replies := (txn, outcome) :: !replies);
      lock_hold = (fun ~locked_at:_ -> ());
      alive = (fun () -> true);
    }
  in
  { engine; ctx; sent; log; replies; store; hardened; fence_requests; suspected }

(* Run only what is due now (and cascades at the current instant), not
   protocol timers. *)
let step h = ignore (Simkit.Engine.run ~until:(Simkit.Engine.now h.engine) h.engine)

let run_timers h span =
  ignore
    (Simkit.Engine.run
       ~until:(Simkit.Time.add (Simkit.Engine.now h.engine) span)
       h.engine)

let sent_labels h = List.rev_map (fun (dst, w) -> (dst, Wire.label w)) !(h.sent)
let clear_sent h = h.sent := []

let log_labels h = List.map Log_record.label !(h.log)

let txn1 = { Txn.origin = self_server; seq = 1 }
let foreign = { Txn.origin = 3; seq = 9 }

let updates_c = [ Mds.Update.Link { dir = 0; name = "f"; target = 7 } ]
let updates_w = [ Mds.Update.Create_inode { ino = 7; kind = Mds.Update.File; nlink = 1 } ]

let plan1 =
  {
    Mds.Plan.op = Mds.Op.create_file ~parent:0 ~name:"f";
    new_ino = Some 7;
    coordinator = { Mds.Plan.server = 0; lock_oids = [ 0 ]; updates = updates_c };
    workers = [ { Mds.Plan.server = 1; lock_oids = [ 7 ]; updates = updates_w } ];
  }

let instance kind h = Protocol.instantiate kind h.ctx

let check_sent = Alcotest.(check (list (pair int string)))
let check_replies h expected =
  Alcotest.(check (list (pair bool string)))
    "client replies" expected
    (List.rev_map
       (fun (id, o) -> (Txn.id_equal id txn1, Fmt.str "%a" Txn.pp_outcome o))
       !(h.replies))

(* ------------------------------------------------------------------ *)
(* §II-C — 2PC-family coordinator restart                              *)
(* ------------------------------------------------------------------ *)

(* STARTED only: "the transaction must be aborted since all the
   metadata updates have been lost"; ABORT is sent and acknowledged. *)
let test_2pc_coord_started_only () =
  let h =
    make_harness
      ~initial_log:[ Log_record.Started { txn = txn1; participants = [ 1 ] } ]
      ()
  in
  let p = instance Protocol.Prn h in
  p.Protocol.recover ~on_done:(fun () -> ());
  step h;
  check_sent "abort sent to the worker" [ (1, "abort") ] (sent_labels h);
  check_replies h [ (true, "aborted (coordinator crashed)") ];
  (* The worker acknowledges; the log finalizes and empties. *)
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 1)
    (Wire.Ack { txn = txn1 });
  step h;
  Alcotest.(check (list string)) "log drained" [] (log_labels h);
  Alcotest.(check int) "no state left" 0 (p.Protocol.outstanding ())

(* PREPARED: "the coordinator resubmits the PREPARE request and
   continues with the normal protocol execution." *)
let test_2pc_coord_prepared () =
  let h =
    make_harness
      ~initial_log:
        [
          Log_record.Started { txn = txn1; participants = [ 1 ] };
          Log_record.Updates { txn = txn1; updates = updates_c };
          Log_record.Prepared { txn = txn1 };
        ]
      ()
  in
  let p = instance Protocol.Prn h in
  p.Protocol.recover ~on_done:(fun () -> ());
  step h;
  check_sent "prepare resent" [ (1, "prepare") ] (sent_labels h);
  (* Our updates were replayed into the volatile cache. *)
  Alcotest.(check (option int)) "dentry replayed" (Some 7)
    (Mds.State.lookup (Mds.Store.volatile h.store) ~dir:0 ~name:"f");
  clear_sent h;
  (* The worker re-votes yes: commit flows normally. *)
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 1)
    (Wire.Prepared { txn = txn1; vote = true });
  step h;
  check_sent "commit sent" [ (1, "commit") ] (sent_labels h);
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 1)
    (Wire.Ack { txn = txn1 });
  step h;
  check_replies h [ (true, "committed") ];
  Alcotest.(check bool) "hardened" true (h.ctx.Context.is_hardened txn1);
  Alcotest.(check (option int)) "durable dentry" (Some 7)
    (Mds.State.lookup (Mds.Store.durable h.store) ~dir:0 ~name:"f")

(* PREPARED, but the worker rebooted unprepared: NOT-PREPARED forces an
   abort, and the replayed volatile updates must be rolled back. *)
let test_2pc_coord_prepared_worker_lost () =
  let h =
    make_harness
      ~initial_log:
        [
          Log_record.Started { txn = txn1; participants = [ 1 ] };
          Log_record.Updates { txn = txn1; updates = updates_c };
          Log_record.Prepared { txn = txn1 };
        ]
      ()
  in
  let p = instance Protocol.Prn h in
  p.Protocol.recover ~on_done:(fun () -> ());
  step h;
  clear_sent h;
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 1)
    (Wire.Prepared { txn = txn1; vote = false });
  step h;
  check_sent "abort sent" [ (1, "abort") ] (sent_labels h);
  Alcotest.(check (option int)) "volatile rolled back" None
    (Mds.State.lookup (Mds.Store.volatile h.store) ~dir:0 ~name:"f");
  check_replies h [ (true, "aborted (worker 1 voted no)") ]

(* COMMITTED without ENDED (PrN): resend COMMIT, reply only after the
   acknowledgement. *)
let test_prn_coord_committed () =
  let h =
    make_harness
      ~initial_log:
        [
          Log_record.Started { txn = txn1; participants = [ 1 ] };
          Log_record.Updates { txn = txn1; updates = updates_c };
          Log_record.Prepared { txn = txn1 };
          Log_record.Committed { txn = txn1 };
        ]
      ()
  in
  let p = instance Protocol.Prn h in
  p.Protocol.recover ~on_done:(fun () -> ());
  step h;
  check_sent "commit resent" [ (1, "commit") ] (sent_labels h);
  Alcotest.(check bool) "updates hardened by recovery" true
    (h.ctx.Context.is_hardened txn1);
  check_replies h [];
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 1)
    (Wire.Ack { txn = txn1 });
  step h;
  check_replies h [ (true, "committed") ];
  Alcotest.(check (list string)) "log drained" [] (log_labels h)

(* Same log under PrC: the coordinator had decided; it replies, forwards
   COMMIT once and finalizes without waiting. *)
let test_prc_coord_committed () =
  let h =
    make_harness
      ~initial_log:
        [
          Log_record.Started { txn = txn1; participants = [ 1 ] };
          Log_record.Updates { txn = txn1; updates = updates_c };
          Log_record.Prepared { txn = txn1 };
          Log_record.Committed { txn = txn1 };
        ]
      ()
  in
  let p = instance Protocol.Prc h in
  p.Protocol.recover ~on_done:(fun () -> ());
  step h;
  check_sent "commit forwarded" [ (1, "commit") ] (sent_labels h);
  check_replies h [ (true, "committed") ];
  Alcotest.(check (list string)) "log finalized immediately" [] (log_labels h);
  Alcotest.(check int) "nothing outstanding" 0 (p.Protocol.outstanding ())

(* Multi-worker (RENAME-class) transactions: recovery must re-vote with
   every participant and commit only on unanimity. *)
let test_2pc_coord_prepared_multi_worker_commit () =
  let h =
    make_harness
      ~initial_log:
        [
          Log_record.Started { txn = txn1; participants = [ 1; 2 ] };
          Log_record.Updates { txn = txn1; updates = updates_c };
          Log_record.Prepared { txn = txn1 };
        ]
      ()
  in
  let p = instance Protocol.Prn h in
  p.Protocol.recover ~on_done:(fun () -> ());
  step h;
  check_sent "prepare to both"
    [ (1, "prepare"); (2, "prepare") ]
    (sent_labels h);
  clear_sent h;
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 1)
    (Wire.Prepared { txn = txn1; vote = true });
  step h;
  check_sent "waits for the second vote" [] (sent_labels h);
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 2)
    (Wire.Prepared { txn = txn1; vote = true });
  step h;
  check_sent "commit to both" [ (1, "commit"); (2, "commit") ] (sent_labels h);
  clear_sent h;
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 1)
    (Wire.Ack { txn = txn1 });
  step h;
  check_replies h [];
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 2)
    (Wire.Ack { txn = txn1 });
  step h;
  check_replies h [ (true, "committed") ];
  Alcotest.(check (list string)) "log drained" [] (log_labels h)

let test_2pc_coord_prepared_multi_worker_one_no () =
  let h =
    make_harness
      ~initial_log:
        [
          Log_record.Started { txn = txn1; participants = [ 1; 2 ] };
          Log_record.Updates { txn = txn1; updates = updates_c };
          Log_record.Prepared { txn = txn1 };
        ]
      ()
  in
  let p = instance Protocol.Prn h in
  p.Protocol.recover ~on_done:(fun () -> ());
  step h;
  clear_sent h;
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 1)
    (Wire.Prepared { txn = txn1; vote = true });
  step h;
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 2)
    (Wire.Prepared { txn = txn1; vote = false });
  step h;
  check_sent "abort to both" [ (1, "abort"); (2, "abort") ] (sent_labels h);
  check_replies h [ (true, "aborted (worker 2 voted no)") ];
  Alcotest.(check bool) "nothing hardened" false
    (h.ctx.Context.is_hardened txn1)

(* ------------------------------------------------------------------ *)
(* §II-C — 2PC-family worker restart                                   *)
(* ------------------------------------------------------------------ *)

(* PREPARED: "the worker asks the coordinator to resend the decision". *)
let test_2pc_worker_prepared_commit () =
  let h =
    make_harness
      ~initial_log:
        [
          Log_record.Updates { txn = foreign; updates = updates_w };
          Log_record.Prepared { txn = foreign };
        ]
      ()
  in
  let p = instance Protocol.Prn h in
  p.Protocol.recover ~on_done:(fun () -> ());
  step h;
  check_sent "asks the coordinator" [ (3, "decision_req") ] (sent_labels h);
  clear_sent h;
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 3)
    (Wire.Decision { txn = foreign; committed = true });
  step h;
  check_sent "commits and acks" [ (3, "ack") ] (sent_labels h);
  Alcotest.(check bool) "hardened" true (h.ctx.Context.is_hardened foreign);
  Alcotest.(check (list string)) "log drained" [] (log_labels h)

let test_2pc_worker_prepared_abort () =
  let h =
    make_harness
      ~initial_log:
        [
          Log_record.Updates { txn = foreign; updates = updates_w };
          Log_record.Prepared { txn = foreign };
        ]
      ()
  in
  let p = instance Protocol.Prn h in
  p.Protocol.recover ~on_done:(fun () -> ());
  step h;
  clear_sent h;
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 3)
    (Wire.Decision { txn = foreign; committed = false });
  step h;
  check_sent "aborts and acks" [ (3, "ack") ] (sent_labels h);
  Alcotest.(check bool) "nothing hardened" false
    (h.ctx.Context.is_hardened foreign);
  Alcotest.(check bool) "volatile clean" true
    (Mds.State.inode (Mds.Store.volatile h.store) 7 = None)

(* An unprepared worker forces a lone [ABORTED] on receiving the
   decision; a crash during that force can land it as the image's only
   record (the in-service write outlives the host). Recovery must claim
   and collect it — there is nothing to resolve, but an orphan record
   would keep the log from ever draining. *)
let test_2pc_worker_aborted_unprepared () =
  let h =
    make_harness ~initial_log:[ Log_record.Aborted { txn = foreign } ] ()
  in
  let p = instance Protocol.Prn h in
  p.Protocol.recover ~on_done:(fun () -> ());
  step h;
  check_sent "nothing to ask" [] (sent_labels h);
  Alcotest.(check bool) "nothing hardened" false
    (h.ctx.Context.is_hardened foreign);
  Alcotest.(check (list string)) "orphan record collected" [] (log_labels h)

(* "no entry in the log": a PREPARE for an unknown transaction is
   answered NOT-PREPARED; a COMMIT for an unknown transaction means we
   committed and checkpointed long ago — answer ACK. *)
let test_2pc_worker_no_entry () =
  let h = make_harness () in
  let p = instance Protocol.Prn h in
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 3)
    (Wire.Prepare { txn = foreign });
  step h;
  (match List.rev !(h.sent) with
  | [ (3, Wire.Prepared { vote = false; _ }) ] -> ()
  | _ -> Alcotest.fail "expected NOT-PREPARED");
  clear_sent h;
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 3)
    (Wire.Commit { txn = foreign });
  step h;
  check_sent "ack for forgotten commit" [ (3, "ack") ] (sent_labels h)

(* Decision service at the coordinator: PrN without a log entry answers
   abort; PrC presumes commit. *)
let test_decision_presumption () =
  let ask kind =
    let h = make_harness () in
    let p = instance kind h in
    p.Protocol.on_message ~src:(h.ctx.Context.address_of 1)
      (Wire.Decision_req { txn = txn1 });
    step h;
    match List.rev !(h.sent) with
    | [ (1, Wire.Decision { committed; _ }) ] -> committed
    | _ -> Alcotest.fail "expected a decision"
  in
  Alcotest.(check bool) "PrN: no log, no commit" false (ask Protocol.Prn);
  Alcotest.(check bool) "PrC presumes commit" true (ask Protocol.Prc);
  Alcotest.(check bool) "EP presumes commit" true (ask Protocol.Ep)

(* ------------------------------------------------------------------ *)
(* §III-C — 1PC                                                        *)
(* ------------------------------------------------------------------ *)

(* Coordinator restart, STARTED + REDO only: re-execute from the redo
   record — local updates redone, UPDATE REQ resubmitted. *)
let test_1pc_coord_restart_reexecutes () =
  let h =
    make_harness
      ~initial_log:
        [
          Log_record.Started { txn = txn1; participants = [ 1 ] };
          Log_record.Redo { txn = txn1; plan = plan1 };
        ]
      ()
  in
  let p = instance Protocol.Opc h in
  p.Protocol.recover ~on_done:(fun () -> ());
  step h;
  check_sent "update req resubmitted" [ (1, "update_req") ] (sent_labels h);
  Alcotest.(check (option int)) "local update redone" (Some 7)
    (Mds.State.lookup (Mds.Store.volatile h.store) ~dir:0 ~name:"f");
  clear_sent h;
  (* Worker (which had committed before the crash) answers UPDATED. *)
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 1)
    (Wire.Updated { txn = txn1; ok = true });
  step h;
  check_replies h [ (true, "committed") ];
  check_sent "ack sent after own commit" [ (1, "ack") ] (sent_labels h);
  Alcotest.(check (list string)) "log drained" [] (log_labels h)

(* Coordinator restart with COMMITTED: nothing to redo; the worker may
   still need its acknowledgement. *)
let test_1pc_coord_restart_committed () =
  let h =
    make_harness
      ~initial_log:
        [
          Log_record.Started { txn = txn1; participants = [ 1 ] };
          Log_record.Redo { txn = txn1; plan = plan1 };
          Log_record.Updates { txn = txn1; updates = updates_c };
          Log_record.Committed { txn = txn1 };
        ]
      ()
  in
  let p = instance Protocol.Opc h in
  p.Protocol.recover ~on_done:(fun () -> ());
  step h;
  check_sent "ack resent" [ (1, "ack") ] (sent_labels h);
  check_replies h [ (true, "committed") ];
  Alcotest.(check bool) "hardened from log" true
    (h.ctx.Context.is_hardened txn1)

(* Worker restart with COMMITTED but no ENDED: ask for the ACK; on
   receiving it, finalize with ENDED and checkpoint. *)
let test_1pc_worker_restart_ack_req () =
  let h =
    make_harness
      ~initial_log:
        [
          Log_record.Updates { txn = foreign; updates = updates_w };
          Log_record.Committed { txn = foreign };
        ]
      ()
  in
  let p = instance Protocol.Opc h in
  p.Protocol.recover ~on_done:(fun () -> ());
  step h;
  check_sent "asks for the ACK" [ (3, "ack_req") ] (sent_labels h);
  Alcotest.(check bool) "hardened" true (h.ctx.Context.is_hardened foreign);
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 3)
    (Wire.Ack { txn = foreign });
  step h;
  Alcotest.(check (list string)) "log drained" [] (log_labels h);
  Alcotest.(check int) "done" 0 (p.Protocol.outstanding ())

(* Ack_req at a coordinator whose log is long gone: answer ACK
   (presume finished). *)
let test_1pc_ack_req_after_gc () =
  let h = make_harness () in
  let p = instance Protocol.Opc h in
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 1)
    (Wire.Ack_req { txn = txn1 });
  step h;
  check_sent "ack presumed" [ (1, "ack") ] (sent_labels h)

(* Unresponsive worker: the timer fires, the worker is suspected, the
   coordinator fences and decides from the log images it reads. *)
let run_1pc_fence_case ~worker_log =
  let h = make_harness () in
  let p = instance Protocol.Opc h in
  p.Protocol.submit { Txn.id = txn1; plan = plan1 };
  step h;
  check_sent "update req out" [ (1, "update_req") ] (sent_labels h);
  clear_sent h;
  (* No UPDATED arrives; the detector suspects the worker; the protocol
     timer fires. *)
  Hashtbl.replace h.suspected 1 ();
  run_timers h (Simkit.Time.span_ms 150);
  (match List.rev !(h.fence_requests) with
  | [ (1, on_read) ] -> on_read (Log_scan.scan worker_log)
  | _ -> Alcotest.fail "expected exactly one fence-and-read");
  step h;
  h

let test_1pc_fence_commit () =
  let h =
    run_1pc_fence_case
      ~worker_log:
        [
          Log_record.Updates { txn = txn1; updates = updates_w };
          Log_record.Committed { txn = txn1 };
        ]
  in
  check_replies h [ (true, "committed") ];
  Alcotest.(check bool) "committed durably" true
    (h.ctx.Context.is_hardened txn1)

let test_1pc_fence_abort () =
  let h = run_1pc_fence_case ~worker_log:[] in
  check_replies h [ (true, "aborted (worker failed before committing)") ];
  Alcotest.(check bool) "nothing hardened" false
    (h.ctx.Context.is_hardened txn1);
  Alcotest.(check (option int)) "local update undone" None
    (Mds.State.lookup (Mds.Store.volatile h.store) ~dir:0 ~name:"f")

(* A duplicate one-phase UPDATE_REQ for a transaction this worker
   already committed and checkpointed is answered UPDATED(ok) without
   re-applying anything. *)
let test_1pc_worker_dedup () =
  let h = make_harness () in
  let p = instance Protocol.Opc h in
  (* First execution. *)
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 3)
    (Wire.Update_req
       { txn = foreign; updates = updates_w; piggyback_prepare = false;
         one_phase = true });
  step h;
  (match sent_labels h with
  | [ (3, "updated") ] -> ()
  | other ->
      Alcotest.failf "first execution: %a"
        Fmt.(Dump.list (Dump.pair int string))
        other);
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 3)
    (Wire.Ack { txn = foreign });
  step h;
  clear_sent h;
  (* The coordinator recovered and re-sent the request. *)
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 3)
    (Wire.Update_req
       { txn = foreign; updates = updates_w; piggyback_prepare = false;
         one_phase = true });
  step h;
  check_sent "re-answered ok" [ (3, "updated") ] (sent_labels h);
  (* Applying twice would have failed loudly (duplicate inode). *)
  Alcotest.(check bool) "applied exactly once" true
    (Mds.State.inode (Mds.Store.durable h.store) 7 <> None)

(* The sticky NO-vote tombstone set is bounded: each entry expires
   [tombstone_ttl] after its last touch. Expiry must not forget the
   vote — a duplicate UPDATE_REQ arriving after its tombstone was
   collected is still answered NO (via the stale-sequence horizon),
   because re-executing it could commit a transaction the coordinator
   already aborted. Transactions sequenced after the expired one are
   unaffected. *)
let test_1pc_tombstone_expiry_still_nacks () =
  let h = make_harness () in
  let p = instance Protocol.Opc h in
  let txn_a = { Txn.origin = 3; seq = 9 } in
  let txn_b = { Txn.origin = 3; seq = 10 } in
  let txn_c = { Txn.origin = 3; seq = 11 } in
  let update_req txn updates =
    p.Protocol.on_message ~src:(h.ctx.Context.address_of 3)
      (Wire.Update_req
         { txn; updates; piggyback_prepare = false; one_phase = true })
  in
  let ledger = h.ctx.Context.ledger in
  (* A commits: inode 7 becomes durable. *)
  update_req txn_a updates_w;
  step h;
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 3)
    (Wire.Ack { txn = txn_a });
  step h;
  clear_sent h;
  (* B collides with A's inode: the worker votes NO and tombstones B. *)
  update_req txn_b updates_w;
  step h;
  (match List.rev !(h.sent) with
  | [ (3, Wire.Updated { ok = false; _ }) ] -> ()
  | _ -> Alcotest.fail "expected a NO vote for the colliding request");
  Alcotest.(check int) "tombstone recorded" 1
    (Metrics.Ledger.get ledger "acp.tombstone.add");
  clear_sent h;
  (* Idle past the 800 ms harness TTL; expiry is lazy, so nothing is
     collected until the next dispatch. *)
  run_timers h (Simkit.Time.span_s 2);
  (* A late duplicate of B: its tombstone is expired on dispatch, but
     the stale horizon still answers NO — B is never re-executed. *)
  update_req txn_b updates_w;
  step h;
  (match List.rev !(h.sent) with
  | [ (3, Wire.Updated { ok = false; _ }) ] -> ()
  | _ -> Alcotest.fail "expected a NO vote after tombstone expiry");
  Alcotest.(check int) "tombstone expired" 1
    (Metrics.Ledger.get ledger "acp.tombstone.expired");
  Alcotest.(check int) "answered from the stale horizon" 1
    (Metrics.Ledger.get ledger "acp.stale_nack");
  clear_sent h;
  (* A fresh transaction above the horizon executes normally. *)
  update_req txn_c
    [ Mds.Update.Create_inode { ino = 8; kind = Mds.Update.File; nlink = 1 } ];
  step h;
  (match List.rev !(h.sent) with
  | [ (3, Wire.Updated { ok = true; _ }) ] -> ()
  | _ -> Alcotest.fail "post-horizon transaction should commit");
  Alcotest.(check bool) "post-horizon commit is durable" true
    (Mds.State.inode (Mds.Store.durable h.store) 8 <> None)

(* The tombstone table also has a hard cap: overflowing it force-expires
   the oldest entries instead of growing without bound, and the evicted
   keys fall under the stale horizon. *)
let test_1pc_tombstone_cap () =
  let h = make_harness () in
  (* Shrink the cap so the test overflows it quickly. *)
  let ctx = { h.ctx with Context.tombstone_cap = 4 } in
  let h = { h with ctx } in
  let p = instance Protocol.Opc h in
  let update_req txn updates =
    p.Protocol.on_message ~src:(h.ctx.Context.address_of 3)
      (Wire.Update_req
         { txn; updates; piggyback_prepare = false; one_phase = true })
  in
  (* Commit inode 7 once, then hammer colliding requests with ascending
     sequence numbers: every one votes NO and leaves a tombstone. *)
  update_req { Txn.origin = 3; seq = 1 } updates_w;
  step h;
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 3)
    (Wire.Ack { txn = { Txn.origin = 3; seq = 1 } });
  step h;
  for seq = 2 to 11 do
    update_req { Txn.origin = 3; seq } updates_w;
    step h
  done;
  Alcotest.(check int) "all rejections tombstoned" 10
    (Metrics.Ledger.get h.ctx.Context.ledger "acp.tombstone.add");
  (* 10 added against a cap of 4: at least 6 were force-expired. *)
  Alcotest.(check bool) "cap held by force-expiry" true
    (Metrics.Ledger.get h.ctx.Context.ledger "acp.tombstone.expired" >= 6);
  (* Evicted keys still answer NO from the horizon. *)
  clear_sent h;
  update_req { Txn.origin = 3; seq = 2 } updates_w;
  step h;
  match List.rev !(h.sent) with
  | [ (3, Wire.Updated { ok = false; _ }) ] -> ()
  | _ -> Alcotest.fail "evicted tombstone must still vote NO"

(* ------------------------------------------------------------------ *)
(* L1PC — logless vote parking, stateless answers, quorum-read restart *)
(* ------------------------------------------------------------------ *)

(* The worker parks its vote on both ring successors before casting it,
   votes on the FIRST ack, and never touches the log or the SAN. *)
let test_l1pc_worker_vote_flow () =
  let h = make_harness () in
  let p = instance Protocol.Lp1 h in
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 3)
    (Wire.Vote_req { txn = foreign; updates = updates_w });
  step h;
  check_sent "replicate before voting"
    [ (1, "rep_store"); (2, "rep_store") ]
    (sent_labels h);
  clear_sent h;
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 1)
    (Wire.Rep_ack { txn = foreign });
  step h;
  (match List.rev !(h.sent) with
  | [ (3, Wire.Vote { vote = true; _ }) ] -> ()
  | _ -> Alcotest.fail "expected YES after the first REP_ACK");
  clear_sent h;
  (* The second ack deepens the quorum but must not re-vote. *)
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 2)
    (Wire.Rep_ack { txn = foreign });
  step h;
  check_sent "no duplicate vote" [] (sent_labels h);
  (* DECIDE(commit): harden, ack, release the parked copies. *)
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 3)
    (Wire.Decide { txn = foreign; commit = true; updates = [] });
  step h;
  Alcotest.(check bool) "hardened" true (h.ctx.Context.is_hardened foreign);
  check_sent "ack then drop"
    [ (3, "decide_ack"); (1, "rep_drop"); (2, "rep_drop") ]
    (sent_labels h);
  Alcotest.(check (list string)) "log never written" [] (log_labels h);
  Alcotest.(check int) "no fencing" 0 (List.length !(h.fence_requests))

(* A coordinator with no volatile state answers votes from the durable
   image: hardened means commit, anything else is presumed abort —
   the logged protocols' log-read rule without a log. *)
let test_l1pc_stateless_coordinator_answers () =
  let h = make_harness () in
  let p = instance Protocol.Lp1 h in
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 1)
    (Wire.Vote { txn = txn1; vote = true });
  step h;
  (match List.rev !(h.sent) with
  | [ (1, Wire.Decide { commit = false; _ }) ] -> ()
  | _ -> Alcotest.fail "unknown vote must be presumed abort");
  clear_sent h;
  h.ctx.Context.harden txn1 [];
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 1)
    (Wire.Vote { txn = txn1; vote = true });
  step h;
  match List.rev !(h.sent) with
  | [ (1, Wire.Decide { commit = true; _ }) ] -> ()
  | _ -> Alcotest.fail "hardened image proves commit"

(* Restart: a quorum read of the replica group replaces fence-and-scan.
   A parked vote comes back, re-acquires its locks, re-votes; no SAN
   request and no log read anywhere in the path. *)
let test_l1pc_recovery_quorum_read () =
  let h = make_harness () in
  let p = instance Protocol.Lp1 h in
  let recovered = ref false in
  p.Protocol.recover ~on_done:(fun () -> recovered := true);
  step h;
  check_sent "ask the whole group"
    [ (1, "recover_req"); (2, "recover_req") ]
    (sent_labels h);
  Alcotest.(check bool) "not done before quorum" false !recovered;
  clear_sent h;
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 1)
    (Wire.Recover_resp { owner = 0; items = [ (foreign, updates_w) ] });
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 2)
    (Wire.Recover_resp { owner = 0; items = [] });
  step h;
  Alcotest.(check bool) "done after quorum" true !recovered;
  (* The resurrected vote is live again: YES re-sent to its coordinator. *)
  (match List.rev !(h.sent) with
  | [ (3, Wire.Vote { vote = true; _ }) ] -> ()
  | _ -> Alcotest.fail "expected the parked vote to be re-cast");
  clear_sent h;
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 3)
    (Wire.Decide { txn = foreign; commit = true; updates = [] });
  step h;
  Alcotest.(check bool) "hardened after decide" true
    (h.ctx.Context.is_hardened foreign);
  (* The whole crash-to-serving path consulted nothing durable. *)
  Alcotest.(check int) "zero fence requests" 0
    (List.length !(h.fence_requests));
  Alcotest.(check int) "zero fence ledger" 0
    (Metrics.Ledger.get h.ctx.Context.ledger "acp.fence");
  Alcotest.(check (list string)) "log never read or written" []
    (log_labels h)

(* A group member that never answers cannot wedge recovery: after the
   soft-retry budget the quorum read proceeds on the copies it has. *)
let test_l1pc_recovery_short_quorum () =
  let h = make_harness () in
  let p = instance Protocol.Lp1 h in
  let recovered = ref false in
  p.Protocol.recover ~on_done:(fun () -> recovered := true);
  step h;
  p.Protocol.on_message ~src:(h.ctx.Context.address_of 1)
    (Wire.Recover_resp { owner = 0; items = [] });
  step h;
  Alcotest.(check bool) "still waiting on member 2" false !recovered;
  clear_sent h;
  run_timers h (Simkit.Time.span_ms 1000);
  Alcotest.(check bool) "proceeds short after retries" true !recovered;
  (* Only the silent member was re-asked. *)
  List.iter
    (fun (dst, label) ->
      if label = "recover_req" then
        Alcotest.(check int) "resend targets the silent member" 2 dst)
    (sent_labels h)

(* Cluster-level: crash a server mid-burst under L1PC and let the full
   stack recover it. The unavailability window must close with a fence
   segment of exactly zero — recovery is a quorum read, never a SAN
   fence — while the segments still telescope exactly to the total. *)
let test_l1pc_fence_free_mttr () =
  let p = Experiment.run_timeline Protocol.Lp1 in
  Alcotest.(check bool) "some work committed" true (p.Experiment.committed > 0);
  Alcotest.(check bool) "window closed" true (p.Experiment.windows <> []);
  let ns = Simkit.Time.span_to_ns in
  List.iter
    (fun (w : Obs.Mttr.window) ->
      Alcotest.(check int)
        (Printf.sprintf "node %d fence segment is zero" w.Obs.Mttr.node)
        0
        (ns w.Obs.Mttr.fence);
      Alcotest.(check int)
        (Printf.sprintf "node %d segments telescope" w.Obs.Mttr.node)
        (ns (Obs.Mttr.total w))
        (ns w.detect + ns w.fence + ns w.scan + ns w.resolve))
    p.Experiment.windows;
  (* The lifecycle journal confirms the SAN was never asked to fence. *)
  List.iter
    (fun (e : Obs.Journal.entry) ->
      match e.Obs.Journal.kind with
      | Obs.Journal.Fence_begin _ | Obs.Journal.Fence_end _ ->
          Alcotest.fail "L1PC recovery must not fence"
      | _ -> ())
    p.Experiment.journal

(* Recovery messages are owner-scoped: their transit spans must be booked
   to no transaction, never to a real one such as the cluster's first,
   whose id [{origin = owner; seq = 0}] names no recovery. *)
let test_l1pc_recovery_spans_name_no_txn () =
  let config =
    {
      Experiment.timeline_config with
      Opc_cluster.Config.record_spans = true;
    }
  in
  let cluster, _ = Experiment.crash_run ~config Protocol.Lp1 in
  let recovery = ref 0 in
  Obs.Tracer.iter
    (fun (s : Obs.Span.t) ->
      if
        s.Obs.Span.category = Obs.Span.Network
        && (s.name = "recover_req" || s.name = "recover_resp")
      then begin
        incr recovery;
        Alcotest.(check int) (s.name ^ " books no transaction") (-1) s.txn
      end)
    (Opc_cluster.Cluster.sink cluster).Obs.Sink.spans;
  Alcotest.(check bool) "recovery traffic traced" true (!recovery > 0)

(* Fuzz: recovery must never raise, whatever record soup the log
   contains — including shapes no run of this implementation would
   produce (a recovering server cannot afford to die on a surprising
   log). Every engine is started over an arbitrary durable log and
   single-stepped through its immediate actions. *)
let gen_log =
  let open QCheck2.Gen in
  let txn =
    oneofl [ txn1; { Txn.origin = self_server; seq = 2 }; foreign ]
  in
  let record =
    let* t = txn in
    oneofl
      [
        Log_record.Started { txn = t; participants = [ 1 ] };
        Log_record.Started { txn = t; participants = [] };
        Log_record.Started { txn = t; participants = [ 1; 2 ] };
        Log_record.Redo { txn = t; plan = plan1 };
        Log_record.Updates { txn = t; updates = updates_c };
        Log_record.Updates { txn = t; updates = [] };
        Log_record.Prepared { txn = t };
        Log_record.Committed { txn = t };
        Log_record.Aborted { txn = t };
        Log_record.Ended { txn = t };
      ]
  in
  list_size (int_bound 12) record

let prop_recovery_never_raises kind =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "recovery survives arbitrary logs (%s)"
         (Protocol.name kind))
    ~count:200 gen_log
    (fun log ->
      let h = make_harness ~initial_log:log () in
      let p = instance kind h in
      (* Must not raise; hardening of committed soup may legitimately be
         impossible against an empty store, so treat only unexpected
         exceptions as failures. *)
      match
        p.Protocol.recover ~on_done:(fun () -> ());
        step h;
        run_timers h (Simkit.Time.span_ms 500)
      with
      | () -> true
      | exception Invalid_argument _ ->
          (* Replaying nonsense updates against an empty store raises a
             loud, identifiable error — acceptable for corrupt logs. *)
          true
      | exception Simkit.Engine.Event_failure (_, Invalid_argument _) ->
          (* The same loud error surfacing from a deferred continuation
             (e.g. a replay running after its lock grant). *)
          true)

let () =
  Alcotest.run "recovery"
    [
      ( "2pc coordinator (SII-C)",
        [
          Alcotest.test_case "STARTED only => abort" `Quick
            test_2pc_coord_started_only;
          Alcotest.test_case "PREPARED => re-vote" `Quick
            test_2pc_coord_prepared;
          Alcotest.test_case "PREPARED, worker lost => abort" `Quick
            test_2pc_coord_prepared_worker_lost;
          Alcotest.test_case "COMMITTED => resend COMMIT (PrN)" `Quick
            test_prn_coord_committed;
          Alcotest.test_case "COMMITTED => finalize (PrC)" `Quick
            test_prc_coord_committed;
          Alcotest.test_case "multi-worker re-vote, unanimity" `Quick
            test_2pc_coord_prepared_multi_worker_commit;
          Alcotest.test_case "multi-worker re-vote, one NO" `Quick
            test_2pc_coord_prepared_multi_worker_one_no;
        ] );
      ( "2pc worker (SII-C)",
        [
          Alcotest.test_case "PREPARED => ask, commit" `Quick
            test_2pc_worker_prepared_commit;
          Alcotest.test_case "PREPARED => ask, abort" `Quick
            test_2pc_worker_prepared_abort;
          Alcotest.test_case "lone ABORTED record is collected" `Quick
            test_2pc_worker_aborted_unprepared;
          Alcotest.test_case "no log entry" `Quick test_2pc_worker_no_entry;
          Alcotest.test_case "decision presumption" `Quick
            test_decision_presumption;
        ] );
      ( "1pc (SIII-C)",
        [
          Alcotest.test_case "coordinator re-executes from REDO" `Quick
            test_1pc_coord_restart_reexecutes;
          Alcotest.test_case "coordinator COMMITTED" `Quick
            test_1pc_coord_restart_committed;
          Alcotest.test_case "worker asks for ACK" `Quick
            test_1pc_worker_restart_ack_req;
          Alcotest.test_case "ACK presumed after GC" `Quick
            test_1pc_ack_req_after_gc;
          Alcotest.test_case "fence: worker log says COMMITTED" `Quick
            test_1pc_fence_commit;
          Alcotest.test_case "fence: empty log => abort" `Quick
            test_1pc_fence_abort;
          Alcotest.test_case "worker dedups re-sent request" `Quick
            test_1pc_worker_dedup;
          Alcotest.test_case "tombstone expiry still NACKs" `Quick
            test_1pc_tombstone_expiry_still_nacks;
          Alcotest.test_case "tombstone cap force-expires" `Quick
            test_1pc_tombstone_cap;
        ] );
      ( "l1pc",
        [
          Alcotest.test_case "worker parks vote, first ack casts it" `Quick
            test_l1pc_worker_vote_flow;
          Alcotest.test_case "stateless coordinator answers from image"
            `Quick test_l1pc_stateless_coordinator_answers;
          Alcotest.test_case "restart = quorum read, no fence" `Quick
            test_l1pc_recovery_quorum_read;
          Alcotest.test_case "short quorum proceeds after retries" `Quick
            test_l1pc_recovery_short_quorum;
          Alcotest.test_case "cluster crash: fence segment exactly zero"
            `Quick test_l1pc_fence_free_mttr;
          Alcotest.test_case "cluster crash: recovery spans name no txn"
            `Quick test_l1pc_recovery_spans_name_no_txn;
        ] );
      ( "fuzz",
        List.map
          (fun k -> QCheck_alcotest.to_alcotest (prop_recovery_never_raises k))
          Protocol.all );
    ]
