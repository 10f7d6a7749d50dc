(** Write-ahead-log records of the commit protocols.

    Every protocol logs out of the same record vocabulary; which records
    it writes, when, and whether it waits for them is what distinguishes
    the protocols (Table I). Record byte sizes — what the {!Storage.Disk}
    model charges — come from a {!sizing} so experiments can calibrate
    them; state records are small, [Updates] payloads dominate. *)

type t =
  | Started of { txn : Txn.id; participants : int list }
      (** Coordinator: transaction begun, with the worker slots. *)
  | Redo of { txn : Txn.id; plan : Mds.Plan.t }
      (** 1PC coordinator: enough to re-execute the whole operation. *)
  | Updates of { txn : Txn.id; updates : Mds.Update.t list }
      (** A participant's metadata updates, forced by a prepare (2PC
          family) or a one-phase commit. *)
  | Prepared of { txn : Txn.id }
  | Committed of { txn : Txn.id }
  | Aborted of { txn : Txn.id }
  | Ended of { txn : Txn.id }

type sizing = {
  state_record_bytes : int;  (** Started/Prepared/Committed/Aborted/Ended *)
  update_bytes : int;  (** per update inside an [Updates] record *)
  redo_bytes : int;  (** the [Redo] record (operation descriptor) *)
}

val default_sizing : sizing
(** 128-byte state records, 512 bytes per update, 256-byte redo — the
    calibration documented in EXPERIMENTS.md (every force fits one
    4 KiB disk block, matching ACID Sim's write-count-dominated
    regime). *)

val size : sizing -> t -> int
val txn : t -> Txn.id
val label : t -> string
