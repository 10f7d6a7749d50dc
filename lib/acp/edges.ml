(* Declared transition maps for the five protocol state machines.

   Each protocol declares its (role x state x event) edge set here as
   plain data; the implementations in [One_phase], [Two_phase] and
   [Logless] burn the resulting ids into their transition sites via
   [Obs.Coverage.hit]. The declaration is the ground truth the coverage
   observatory reports against: an edge that never fires in a campaign
   is either a hole in the campaigns, dead code, or a map bug — all
   three worth a work item.

   Ids are dense and global across protocols (a node hosts a 1PC or
   L1PC primary *and* a PrN fallback, so one cluster-wide bitmap must
   hold them all). The [Two_phase] variants share an implementation but
   not an edge map: each of PrN / PrC / EP declares only the edges its
   configuration can take, and the shared machine carries [-1] (ignored
   by the tap) for fields absent from its variant. *)

type edge = {
  id : int;
  protocol : Kind.t;
  role : string;  (* "coord" | "worker" | "replica" *)
  src : string;
  event : string;
  dst : string;
}

let registry : edge list ref = ref []
let next = ref 0

let def protocol role src event dst =
  let id = !next in
  incr next;
  registry := { id; protocol; role; src; event; dst } :: !registry;
  id

let skip = -1

(* ------------------------------------------------------------------ *)
(* 1PC (the paper's protocol)                                          *)
(* ------------------------------------------------------------------ *)

module Opc = struct
  let p = Kind.Opc

  (* Coordinator. *)
  let c_submit = def p "coord" "idle" "submit" "starting"
  let c_started = def p "coord" "starting" "redo_durable" "working"
  let c_lock_timeout = def p "coord" "starting" "lock_timeout" "aborting"

  let c_replay_lock_retry =
    def p "coord" "starting" "replay_lock_retry" "starting"

  let c_resend = def p "coord" "working" "resend_update_req" "working"
  let c_updated_ok = def p "coord" "working" "updated_ok" "committing"
  let c_updated_nack = def p "coord" "working" "updated_nack" "aborting"

  let c_fence_retries =
    def p "coord" "working" "retries_exhausted" "recovering"

  let c_fence_suspect = def p "coord" "working" "suspect" "recovering"

  let c_fence_committed =
    def p "coord" "recovering" "worker_log_committed" "committing"

  let c_fence_empty = def p "coord" "recovering" "worker_log_empty" "aborting"
  let c_commit = def p "coord" "committing" "commit_durable" "done"
  let c_abort = def p "coord" "aborting" "abort_durable" "done"
  let c_ack_req_pending = def p "coord" "working" "ack_req" "working"
  let c_ack_req_gone = def p "coord" "idle" "ack_req" "idle"

  (* Worker. *)
  let w_fresh = def p "worker" "idle" "update_req" "working"
  let w_commit = def p "worker" "working" "applied" "committed"
  let w_reject = def p "worker" "working" "reject" "tombstoned"
  let w_dup_committed = def p "worker" "committed" "update_req" "committed"
  let w_dup_inprogress = def p "worker" "working" "update_req" "working"
  let w_hardened = def p "worker" "idle" "update_req_hardened" "committed"

  let w_tombstone_nack =
    def p "worker" "tombstoned" "update_req" "tombstoned"

  let w_stale_nack = def p "worker" "idle" "update_req_stale" "idle"
  let w_ack = def p "worker" "committed" "ack" "ended"
  let w_ack_req_resend = def p "worker" "committed" "resend_ack_req" "committed"
  let w_tomb_expire = def p "worker" "tombstoned" "ttl_expired" "idle"
  let w_tomb_cap = def p "worker" "tombstoned" "cap_evicted" "idle"

  (* Recovery (log scan on reboot). *)
  let r_coord_committed = def p "coord" "recovery" "scan_committed" "done"
  let r_coord_aborted = def p "coord" "recovery" "scan_aborted" "done"
  let r_coord_redo = def p "coord" "recovery" "scan_redo" "starting"

  let r_worker_committed =
    def p "worker" "recovery" "scan_committed" "committed"

  let r_worker_gc = def p "worker" "recovery" "scan_other" "idle"
end

(* ------------------------------------------------------------------ *)
(* The 2PC family: PrN, PrC, EP                                        *)
(* ------------------------------------------------------------------ *)

type tp = {
  (* Coordinator. *)
  c_submit : int;  (* idle --submit--> working *)
  c_lock_timeout : int;  (* working --lock_timeout--> aborting *)
  c_updated_ok : int;  (* working --updated_ok--> working *)
  c_updated_nack : int;  (* working --updated_nack--> aborting *)
  c_all_updated : int;  (* working --all_updated--> voting    [not EP] *)
  c_prepared_yes : int;  (* voting --prepared_yes--> voting   [not EP] *)
  c_prepared_no : int;  (* voting --prepared_no--> aborting   [not EP] *)
  c_commit : int;  (* voting --all_yes--> committed *)
  c_abort : int;  (* * --abort--> aborted_waiting_acks *)
  c_vote_timeout : int;  (* voting --timeout--> aborting *)
  c_ack : int;  (* waiting_acks --ack--> waiting_acks *)
  c_all_acked : int;  (* waiting_acks --all_acked--> done *)
  c_ack_resend : int;  (* waiting_acks --resend_decision--> waiting_acks *)
  c_decision_req_live : int;  (* live txn --decision_req--> same *)
  c_decision_req_log : int;  (* idle --decision_req--> idle (log answer) *)
  c_decision_req_presumed : int;  (* idle --decision_req--> idle *)
  (* Worker. *)
  w_fresh : int;  (* idle --update_req--> updated | prepared (EP) *)
  w_dup : int;  (* in-progress --update_req--> same *)
  w_hardened : int;  (* idle --update_req_hardened--> done *)
  w_reject : int;  (* idle --update_req_reject--> idle *)
  w_prepare : int;  (* updated --prepare--> prepared              [not EP] *)
  w_prepare_dup : int;  (* prepared --prepare--> prepared         [not EP] *)
  w_prepare_unknown : int;  (* idle --prepare--> idle             [not EP] *)
  w_commit : int;  (* prepared --commit--> done *)
  w_abort : int;  (* updated | prepared --abort--> done *)
  w_decision_parked : int;  (* locking/preparing --decision--> parked *)
  w_decision_unknown : int;  (* idle --decision--> idle (ack) *)
  w_decision_retry : int;  (* prepared --resend_decision_req--> prepared *)
  w_abandon : int;  (* updated --abandon_timeout--> idle          [not EP] *)
  (* Recovery (log scan on reboot). *)
  r_coord_trivial : int;  (* recovery --scan_trivial--> idle *)
  r_coord_committed : int;  (* recovery --scan_committed--> done/waiting *)
  r_coord_aborted : int;  (* recovery --scan_aborted--> waiting_acks *)
  r_coord_prepared : int;  (* recovery --scan_prepared--> voting *)
  r_coord_started : int;  (* recovery --scan_started_only--> aborting *)
  r_worker_decided : int;  (* recovery --scan_decided--> idle *)
  r_worker_indoubt : int;  (* recovery --scan_prepared--> prepared *)
}

let tp_make p ~early_prepare =
  let only_full_prepare role src event dst =
    (* EP piggybacks the prepare on UPDATE_REQ: the standalone PREPARE
       round (and the W_updated resting state it leaves behind) does
       not exist in that variant's state machine. *)
    if early_prepare then skip else def p role src event dst
  in
  {
    c_submit = def p "coord" "idle" "submit" "working";
    c_lock_timeout = def p "coord" "working" "lock_timeout" "aborting";
    c_updated_ok = def p "coord" "working" "updated_ok" "working";
    c_updated_nack = def p "coord" "working" "updated_nack" "aborting";
    c_all_updated = only_full_prepare "coord" "working" "all_updated" "voting";
    c_prepared_yes = only_full_prepare "coord" "voting" "prepared_yes" "voting";
    c_prepared_no = only_full_prepare "coord" "voting" "prepared_no" "aborting";
    c_commit = def p "coord" "voting" "all_yes" "committed";
    c_abort = def p "coord" "aborting" "abort_durable" "aborted_waiting_acks";
    c_vote_timeout = def p "coord" "voting" "vote_timeout" "aborting";
    c_ack = def p "coord" "waiting_acks" "ack" "waiting_acks";
    c_all_acked = def p "coord" "waiting_acks" "all_acked" "done";
    c_ack_resend =
      def p "coord" "waiting_acks" "resend_decision" "waiting_acks";
    c_decision_req_live = def p "coord" "live" "decision_req" "live";
    c_decision_req_log = def p "coord" "idle" "decision_req_log" "idle";
    c_decision_req_presumed =
      def p "coord" "idle" "decision_req_presumed" "idle";
    w_fresh =
      def p "worker" "idle" "update_req"
        (if early_prepare then "prepared" else "updated");
    w_dup = def p "worker" "in_progress" "update_req" "in_progress";
    w_hardened = def p "worker" "idle" "update_req_hardened" "done";
    w_reject = def p "worker" "idle" "update_req_reject" "idle";
    w_prepare = only_full_prepare "worker" "updated" "prepare" "prepared";
    w_prepare_dup =
      only_full_prepare "worker" "prepared" "prepare" "prepared";
    w_prepare_unknown = only_full_prepare "worker" "idle" "prepare" "idle";
    w_commit = def p "worker" "prepared" "commit" "done";
    w_abort = def p "worker" "in_progress" "abort" "done";
    w_decision_parked = def p "worker" "locking" "decision" "parked";
    w_decision_unknown = def p "worker" "idle" "decision" "idle";
    w_decision_retry =
      def p "worker" "prepared" "resend_decision_req" "prepared";
    w_abandon = only_full_prepare "worker" "updated" "abandon_timeout" "idle";
    r_coord_trivial = def p "coord" "recovery" "scan_trivial" "idle";
    r_coord_committed = def p "coord" "recovery" "scan_committed" "committed";
    r_coord_aborted =
      def p "coord" "recovery" "scan_aborted" "aborted_waiting_acks";
    r_coord_prepared = def p "coord" "recovery" "scan_prepared" "voting";
    r_coord_started = def p "coord" "recovery" "scan_started_only" "aborting";
    r_worker_decided = def p "worker" "recovery" "scan_decided" "idle";
    r_worker_indoubt = def p "worker" "recovery" "scan_prepared" "prepared";
  }

let tp_prn = tp_make Kind.Prn ~early_prepare:false
let tp_prc = tp_make Kind.Prc ~early_prepare:false
let tp_ep = tp_make Kind.Ep ~early_prepare:true

let tp_for = function
  | Kind.Prn -> tp_prn
  | Kind.Prc -> tp_prc
  | Kind.Ep -> tp_ep
  | Kind.Opc | Kind.Lp1 ->
      invalid_arg "Edges.tp_for: not a two-phase variant"

(* ------------------------------------------------------------------ *)
(* L1PC (logless one-phase commit)                                     *)
(* ------------------------------------------------------------------ *)

module Lp1 = struct
  let p = Kind.Lp1

  (* Coordinator. *)
  let c_submit = def p "coord" "idle" "submit" "voting"
  let c_lock_timeout = def p "coord" "idle" "lock_timeout" "aborted"
  let c_resend = def p "coord" "voting" "resend_vote_req" "voting"
  let c_vote_yes = def p "coord" "voting" "vote_yes" "deciding"
  let c_vote_no = def p "coord" "voting" "vote_no" "aborted"
  let c_timeout_abort = def p "coord" "voting" "retries_exhausted" "aborted"
  let c_suspect_abort = def p "coord" "voting" "suspect" "aborted"
  let c_vote_dup = def p "coord" "deciding" "vote_dup" "deciding"
  let c_stateless_commit = def p "coord" "idle" "vote_hardened" "idle"
  let c_stateless_abort = def p "coord" "idle" "vote_presumed_abort" "idle"
  let c_decide_ack = def p "coord" "deciding" "decide_ack" "done"
  let c_decide_resend = def p "coord" "deciding" "resend_decide" "deciding"

  (* Worker. *)
  let w_fresh = def p "worker" "idle" "vote_req" "replicating"
  let w_vote_dup = def p "worker" "voted" "vote_req" "voted"
  let w_hardened = def p "worker" "idle" "vote_req_hardened" "done"
  let w_die = def p "worker" "idle" "vote_req_wait_die" "idle"
  let w_reject = def p "worker" "idle" "vote_req_reject" "idle"
  let w_doomed = def p "worker" "locking" "decide_abort" "doomed"
  let w_rep_ack = def p "worker" "replicating" "rep_ack" "voted"
  let w_vote_resend = def p "worker" "voted" "resend_vote" "voted"
  let w_commit = def p "worker" "voted" "decide_commit" "done"
  let w_abort = def p "worker" "in_progress" "decide_abort" "done"
  let w_decide_hardened = def p "worker" "idle" "decide_hardened" "idle"
  let w_decide_replay = def p "worker" "idle" "decide_replay" "done"

  (* Replica store. *)
  let rep_store = def p "replica" "idle" "rep_store" "stored"
  let rep_drop = def p "replica" "stored" "rep_drop" "idle"
  let rep_evict = def p "replica" "stored" "cap_evicted" "idle"
  let rep_recover_req = def p "replica" "stored" "recover_req" "stored"

  (* Recovery (quorum read on reboot). *)
  let r_start = def p "worker" "reboot" "recover_begin" "collecting"
  let r_resend = def p "worker" "collecting" "resend_recover_req" "collecting"
  let r_short = def p "worker" "collecting" "quorum_short" "resurrecting"
  let r_resp = def p "worker" "collecting" "recover_resp" "collecting"

  let r_resurrect_hardened =
    def p "worker" "resurrecting" "item_hardened" "done"

  let r_resurrect_revote = def p "worker" "resurrecting" "item_revote" "voted"
  let r_stale = def p "worker" "resurrecting" "item_stale" "idle"
end

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)
(* ------------------------------------------------------------------ *)

let count = !next
let all = List.rev !registry
let by_id = Array.of_list all

let get id =
  if id < 0 || id >= count then invalid_arg "Edges.get: unknown edge id";
  by_id.(id)

let of_protocol p = List.filter (fun e -> e.protocol = p) all

let name e =
  Printf.sprintf "%s.%s %s --%s--> %s"
    (Kind.name e.protocol)
    e.role e.src e.event e.dst
