type t =
  | Update_req of {
      txn : Txn.id;
      updates : Mds.Update.t list;
      piggyback_prepare : bool;
      one_phase : bool;
    }
  | Updated of { txn : Txn.id; ok : bool }
  | Prepare of { txn : Txn.id }
  | Prepared of { txn : Txn.id; vote : bool }
  | Commit of { txn : Txn.id }
  | Abort of { txn : Txn.id }
  | Ack of { txn : Txn.id }
  | Decision_req of { txn : Txn.id }
  | Decision of { txn : Txn.id; committed : bool }
  | Ack_req of { txn : Txn.id }
  | Vote_req of { txn : Txn.id; updates : Mds.Update.t list }
  | Vote of { txn : Txn.id; vote : bool }
  | Rep_store of { txn : Txn.id; owner : int; updates : Mds.Update.t list }
  | Rep_ack of { txn : Txn.id }
  | Decide of { txn : Txn.id; commit : bool; updates : Mds.Update.t list }
  | Decide_ack of { txn : Txn.id }
  | Rep_drop of { txn : Txn.id }
  | Recover_req of { owner : int }
  | Recover_resp of {
      owner : int;
      items : (Txn.id * Mds.Update.t list) list;
    }

let txn = function
  | Update_req { txn; _ }
  | Updated { txn; _ }
  | Prepare { txn }
  | Prepared { txn; _ }
  | Commit { txn }
  | Abort { txn }
  | Ack { txn }
  | Decision_req { txn }
  | Decision { txn; _ }
  | Ack_req { txn }
  | Vote_req { txn; _ }
  | Vote { txn; _ }
  | Rep_store { txn; _ }
  | Rep_ack { txn }
  | Decide { txn; _ }
  | Decide_ack { txn }
  | Rep_drop { txn } ->
      txn
  | Recover_req _ | Recover_resp _ ->
      invalid_arg "Wire.txn: a recovery message names no transaction"

let is_baseline = function
  | Update_req _ | Updated _ | Vote_req _ | Vote _ -> true
  | Prepare _ | Prepared _ | Commit _ | Abort _ | Ack _ | Decision_req _
  | Decision _ | Ack_req _ | Rep_store _ | Rep_ack _ | Decide _
  | Decide_ack _ | Rep_drop _ | Recover_req _ | Recover_resp _ ->
      false

let is_recovery = function
  | Recover_req _ | Recover_resp _ -> true
  | _ -> false

let label = function
  | Update_req _ -> "update_req"
  | Updated _ -> "updated"
  | Prepare _ -> "prepare"
  | Prepared _ -> "prepared"
  | Commit _ -> "commit"
  | Abort _ -> "abort"
  | Ack _ -> "ack"
  | Decision_req _ -> "decision_req"
  | Decision _ -> "decision"
  | Ack_req _ -> "ack_req"
  | Vote_req _ -> "vote_req"
  | Vote _ -> "vote"
  | Rep_store _ -> "rep_store"
  | Rep_ack _ -> "rep_ack"
  | Decide _ -> "decide"
  | Decide_ack _ -> "decide_ack"
  | Rep_drop _ -> "rep_drop"
  | Recover_req _ -> "recover_req"
  | Recover_resp _ -> "recover_resp"

let pp ppf m =
  match m with
  | Update_req { txn; updates; piggyback_prepare; one_phase } ->
      Fmt.pf ppf "UPDATE_REQ %a (%d update(s)%s%s)" Txn.pp_id txn
        (List.length updates)
        (if piggyback_prepare then ", +prepare" else "")
        (if one_phase then ", 1pc" else "")
  | Updated { txn; ok } ->
      Fmt.pf ppf "UPDATED %a (%s)" Txn.pp_id txn (if ok then "ok" else "failed")
  | Prepare { txn } -> Fmt.pf ppf "PREPARE %a" Txn.pp_id txn
  | Prepared { txn; vote } ->
      Fmt.pf ppf "%s %a" (if vote then "PREPARED" else "NOT-PREPARED")
        Txn.pp_id txn
  | Commit { txn } -> Fmt.pf ppf "COMMIT %a" Txn.pp_id txn
  | Abort { txn } -> Fmt.pf ppf "ABORT %a" Txn.pp_id txn
  | Ack { txn } -> Fmt.pf ppf "ACK %a" Txn.pp_id txn
  | Decision_req { txn } -> Fmt.pf ppf "DECISION_REQ %a" Txn.pp_id txn
  | Decision { txn; committed } ->
      Fmt.pf ppf "DECISION %a (%s)" Txn.pp_id txn
        (if committed then "commit" else "abort")
  | Ack_req { txn } -> Fmt.pf ppf "ACK_REQ %a" Txn.pp_id txn
  | Vote_req { txn; updates } ->
      Fmt.pf ppf "VOTE_REQ %a (%d update(s))" Txn.pp_id txn
        (List.length updates)
  | Vote { txn; vote } ->
      Fmt.pf ppf "%s %a" (if vote then "VOTE-YES" else "VOTE-NO")
        Txn.pp_id txn
  | Rep_store { txn; owner; updates } ->
      Fmt.pf ppf "REP_STORE %a (owner %d, %d update(s))" Txn.pp_id txn
        owner (List.length updates)
  | Rep_ack { txn } -> Fmt.pf ppf "REP_ACK %a" Txn.pp_id txn
  | Decide { txn; commit; updates } ->
      Fmt.pf ppf "DECIDE %a (%s, %d update(s))" Txn.pp_id txn
        (if commit then "commit" else "abort")
        (List.length updates)
  | Decide_ack { txn } -> Fmt.pf ppf "DECIDE_ACK %a" Txn.pp_id txn
  | Rep_drop { txn } -> Fmt.pf ppf "REP_DROP %a" Txn.pp_id txn
  | Recover_req { owner } -> Fmt.pf ppf "RECOVER_REQ (owner %d)" owner
  | Recover_resp { owner; items } ->
      Fmt.pf ppf "RECOVER_RESP (owner %d, %d item(s))" owner
        (List.length items)
