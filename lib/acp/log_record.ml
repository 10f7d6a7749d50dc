type t =
  | Started of { txn : Txn.id; participants : int list }
  | Redo of { txn : Txn.id; plan : Mds.Plan.t }
  | Updates of { txn : Txn.id; updates : Mds.Update.t list }
  | Prepared of { txn : Txn.id }
  | Committed of { txn : Txn.id }
  | Aborted of { txn : Txn.id }
  | Ended of { txn : Txn.id }

type sizing = {
  state_record_bytes : int;
  update_bytes : int;
  redo_bytes : int;
}

(* Calibration (see EXPERIMENTS.md): with 512-byte update images every
   log force fits one 4 KiB block, reproducing ACID Sim's write-count-
   dominated regime and the paper's Figure 6 magnitudes. *)
let default_sizing =
  { state_record_bytes = 128; update_bytes = 512; redo_bytes = 256 }

let size sizing = function
  | Started _ | Prepared _ | Committed _ | Aborted _ | Ended _ ->
      sizing.state_record_bytes
  | Redo _ -> sizing.redo_bytes
  | Updates { updates; _ } -> sizing.update_bytes * List.length updates

let txn = function
  | Started { txn; _ }
  | Redo { txn; _ }
  | Updates { txn; _ }
  | Prepared { txn }
  | Committed { txn }
  | Aborted { txn }
  | Ended { txn } ->
      txn

let label = function
  | Started _ -> "STARTED"
  | Redo _ -> "REDO"
  | Updates _ -> "UPDATES"
  | Prepared _ -> "PREPARED"
  | Committed _ -> "COMMITTED"
  | Aborted _ -> "ABORTED"
  | Ended _ -> "ENDED"
