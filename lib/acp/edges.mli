(** Declared transition maps for the five protocol state machines.

    Every (role x state x event) edge a protocol can take is declared
    here as data and assigned a dense global id; the implementations
    burn these ids into their transition sites with
    [Obs.Coverage.hit]. The declaration is what the coverage
    observatory reports against: a never-hit edge is a campaign hole, a
    map bug, or dead code — all reportable findings.

    Ids are global across protocols (one cluster hosts a primary and a
    PrN fallback, so a single bitmap covers both). The three
    {!Two_phase} variants share code but declare separate maps; fields
    absent from a variant (EP has no standalone PREPARE round) hold
    [-1], which the coverage tap ignores. *)

type edge = {
  id : int;
  protocol : Kind.t;
  role : string;  (** ["coord"], ["worker"] or ["replica"] *)
  src : string;
  event : string;
  dst : string;
}

val count : int
(** Edge ids are dense in [0 .. count - 1] — the size for
    [Obs.Coverage.create]. *)

val all : edge list
(** Every declared edge, in id order. *)

val get : int -> edge
(** @raise Invalid_argument outside [0 .. count - 1]. *)

val of_protocol : Kind.t -> edge list
(** The protocol's declared edge set, in id order. *)

val name : edge -> string
(** Human-readable edge name, e.g.
    ["1PC.worker committed --ack--> ended"] — the never-hit report and
    the CI gate print these. *)

(** 1PC edge ids ({!One_phase}). *)
module Opc : sig
  val c_submit : int
  val c_started : int
  val c_lock_timeout : int
  val c_replay_lock_retry : int
  val c_resend : int
  val c_updated_ok : int
  val c_updated_nack : int
  val c_fence_retries : int
  val c_fence_suspect : int
  val c_fence_committed : int
  val c_fence_empty : int
  val c_commit : int
  val c_abort : int
  val c_ack_req_pending : int
  val c_ack_req_gone : int
  val w_fresh : int
  val w_commit : int
  val w_reject : int
  val w_dup_committed : int
  val w_dup_inprogress : int
  val w_hardened : int
  val w_tombstone_nack : int
  val w_stale_nack : int
  val w_ack : int
  val w_ack_req_resend : int
  val w_tomb_expire : int
  val w_tomb_cap : int
  val r_coord_committed : int
  val r_coord_aborted : int
  val r_coord_redo : int
  val r_worker_committed : int
  val r_worker_gc : int
end

(** Per-variant edge ids for the 2PC family ({!Two_phase}); [-1] marks
    an edge the variant's configuration cannot take. *)
type tp = {
  c_submit : int;
  c_lock_timeout : int;
  c_updated_ok : int;
  c_updated_nack : int;
  c_all_updated : int;
  c_prepared_yes : int;
  c_prepared_no : int;
  c_commit : int;
  c_abort : int;
  c_vote_timeout : int;
  c_ack : int;
  c_all_acked : int;
  c_ack_resend : int;
  c_decision_req_live : int;
  c_decision_req_log : int;
  c_decision_req_presumed : int;
  w_fresh : int;
  w_dup : int;
  w_hardened : int;
  w_reject : int;
  w_prepare : int;
  w_prepare_dup : int;
  w_prepare_unknown : int;
  w_commit : int;
  w_abort : int;
  w_decision_parked : int;
  w_decision_unknown : int;
  w_decision_retry : int;
  w_abandon : int;
  r_coord_trivial : int;
  r_coord_committed : int;
  r_coord_aborted : int;
  r_coord_prepared : int;
  r_coord_started : int;
  r_worker_decided : int;
  r_worker_indoubt : int;
}

val tp_for : Kind.t -> tp
(** The variant's edge map.
    @raise Invalid_argument for [Opc] or [Lp1]. *)

(** L1PC edge ids ({!Logless}). *)
module Lp1 : sig
  val c_submit : int
  val c_lock_timeout : int
  val c_resend : int
  val c_vote_yes : int
  val c_vote_no : int
  val c_timeout_abort : int
  val c_suspect_abort : int
  val c_vote_dup : int
  val c_stateless_commit : int
  val c_stateless_abort : int
  val c_decide_ack : int
  val c_decide_resend : int
  val w_fresh : int
  val w_vote_dup : int
  val w_hardened : int
  val w_die : int
  val w_reject : int
  val w_doomed : int
  val w_rep_ack : int
  val w_vote_resend : int
  val w_commit : int
  val w_abort : int
  val w_decide_hardened : int
  val w_decide_replay : int
  val rep_store : int
  val rep_drop : int
  val rep_evict : int
  val rep_recover_req : int
  val r_start : int
  val r_resend : int
  val r_short : int
  val r_resp : int
  val r_resurrect_hardened : int
  val r_resurrect_revote : int
  val r_stale : int
end
