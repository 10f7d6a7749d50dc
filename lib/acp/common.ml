let acquire_locks ctx ~txn ~oids ~on_granted ~on_timeout =
  let owner = Txn.owner_token txn in
  let rec next = function
    | [] -> on_granted ()
    | oid :: rest ->
        Locks.Lock_manager.acquire ctx.Context.locks ~owner ~oid
          ~mode:Locks.Lock_manager.Exclusive ~timeout:ctx.Context.timeout
          ~on_grant:(fun () -> next rest)
          ~on_timeout ()
  in
  next oids

let release ctx txn =
  Locks.Lock_manager.release_all ctx.Context.locks
    ~owner:(Txn.owner_token txn)

let apply_updates ctx updates ~k =
  let n = List.length updates in
  ctx.Context.compute ~n (fun () ->
      let rec go inverses = function
        | [] -> k (Ok inverses)
        | u :: rest -> (
            match Mds.Store.apply_volatile ctx.Context.store u with
            | Ok inverse -> go (inverse :: inverses) rest
            | Error e ->
                (* Roll back the applied prefix before reporting. *)
                Mds.Store.undo_volatile ctx.Context.store inverses;
                k (Error e))
      in
      go [] updates)

let undo ctx inverses = Mds.Store.undo_volatile ctx.Context.store inverses

let replay ctx updates =
  List.fold_left
    (fun inverses u ->
      match Mds.Store.apply_volatile ctx.Context.store u with
      | Ok inverse -> inverse :: inverses
      | Error e ->
          invalid_arg
            (Fmt.str "Common.replay: %a replaying %a" Mds.State.pp_error e
               Mds.Update.pp u))
    [] updates

let cancel_timer slot =
  match !slot with
  | Some h ->
      Simkit.Engine.cancel h;
      slot := None
  | None -> ()

let lock_oids_of_updates updates =
  List.map Mds.Update.target_oid updates |> List.sort_uniq Int.compare
