type image = {
  id : Txn.id;
  started : bool;
  participants : int list;
  plan : Mds.Plan.t option;
  updates : Mds.Update.t list;
  prepared : bool;
  committed : bool;
  aborted : bool;
  ended : bool;
}

let empty id =
  {
    id;
    started = false;
    participants = [];
    plan = None;
    updates = [];
    prepared = false;
    committed = false;
    aborted = false;
    ended = false;
  }

let absorb img (r : Log_record.t) =
  match r with
  | Started { participants; _ } -> { img with started = true; participants }
  | Redo { plan; _ } -> { img with plan = Some plan }
  | Updates { updates; _ } -> { img with updates = img.updates @ updates }
  | Prepared _ -> { img with prepared = true }
  | Committed _ -> { img with committed = true }
  | Aborted _ -> { img with aborted = true }
  | Ended _ -> { img with ended = true }

let scan records =
  let order = ref [] in
  let table = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let id = Log_record.txn r in
      let key = Txn.key id in
      let img =
        match Hashtbl.find_opt table key with
        | Some img -> img
        | None ->
            order := key :: !order;
            empty id
      in
      Hashtbl.replace table key (absorb img r))
    records;
  List.rev_map (fun key -> Hashtbl.find table key) !order

let find records id =
  List.find_opt (fun img -> Txn.id_equal img.id id) (scan records)

let in_doubt img =
  (img.started || img.prepared)
  && (not img.committed) && (not img.aborted) && not img.ended
