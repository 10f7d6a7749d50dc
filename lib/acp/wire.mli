(** Inter-MDS protocol messages.

    One message type serves all five protocols; each uses the subset its
    state machine needs. The [Update_req]/[Updated] pair — and its
    logless twin [Vote_req]/[Vote] — is the {e baseline} traffic any
    distributed namespace operation needs even without an atomic
    commitment protocol; everything else is ACP overhead — the
    distinction Table I draws with its "additional messages" columns. *)

type t =
  | Update_req of {
      txn : Txn.id;
      updates : Mds.Update.t list;  (** the receiving worker's side *)
      piggyback_prepare : bool;  (** EP: this request is also PREPARE *)
      one_phase : bool;  (** 1PC: commit immediately after updating *)
    }
  | Updated of { txn : Txn.id; ok : bool }
      (** Worker's reply. Under EP it doubles as the PREPARED vote, under
          1PC it means "updated {e and committed}". [ok = false] is a
          NO vote: the updates failed validation and nothing was kept. *)
  | Prepare of { txn : Txn.id }
  | Prepared of { txn : Txn.id; vote : bool }
      (** [vote = false] is NOT-PREPARED. *)
  | Commit of { txn : Txn.id }
  | Abort of { txn : Txn.id }
  | Ack of { txn : Txn.id }
  | Decision_req of { txn : Txn.id }
      (** Blocked prepared worker asking the coordinator for the
          outcome. *)
  | Decision of { txn : Txn.id; committed : bool }
  | Ack_req of { txn : Txn.id }
      (** 1PC worker asking the coordinator to resend ACKNOWLEDGE. *)
  | Vote_req of { txn : Txn.id; updates : Mds.Update.t list }
      (** L1PC: apply these updates volatilely and vote — the logless
          twin of a one-phase [Update_req]. *)
  | Vote of { txn : Txn.id; vote : bool }
      (** L1PC worker's vote, sent once its vote state is replicated.
          [vote = false] means the updates failed and nothing was
          kept. *)
  | Rep_store of { txn : Txn.id; owner : int; updates : Mds.Update.t list }
      (** L1PC worker [owner] parking its volatile vote state at a
          replica-group member. *)
  | Rep_ack of { txn : Txn.id }
  | Decide of { txn : Txn.id; commit : bool; updates : Mds.Update.t list }
      (** L1PC coordinator's decision. Carries the worker's updates so a
          worker that lost everything can still apply a commit. *)
  | Decide_ack of { txn : Txn.id }
  | Rep_drop of { txn : Txn.id }
      (** L1PC worker releasing a replica entry after the decision. *)
  | Recover_req of { owner : int }
      (** L1PC restart: [owner] asking a replica-group member for every
          vote entry it holds on [owner]'s behalf. *)
  | Recover_resp of {
      owner : int;
      items : (Txn.id * Mds.Update.t list) list;
    }

val txn : t -> Txn.id
(** The transaction a message belongs to.
    @raise Invalid_argument on a recovery message ({!is_recovery}),
    which is owner-scoped and names no transaction: callers book it to
    none and route it by its shape. *)

val is_baseline : t -> bool
(** [Update_req]/[Updated] and [Vote_req]/[Vote] — traffic that exists
    even without an ACP. *)

val is_recovery : t -> bool
(** [Recover_req]/[Recover_resp] — the only messages a node answers
    while it is up but not yet serving. *)

val label : t -> string
(** Short tag for tracing and ledger keys, e.g. ["prepare"]. *)

val pp : Format.formatter -> t -> unit
