let label_window = Simkit.Label.v Cluster "batch.window"

type pending = {
  plan : Mds.Plan.t;
  on_done : Acp.Txn.outcome -> unit;
}

type group = {
  mutable members : pending list;  (* newest first *)
  mutable timer : Simkit.Engine.handle;  (* [Engine.none] until armed *)
}

type t = {
  cluster : Cluster.t;
  window : Simkit.Time.span;
  max_batch : int;
  groups : (int * int, group) Hashtbl.t;  (* (dir, worker server) *)
  mutable n_batches : int;
  mutable n_batched_ops : int;
  mutable n_passthrough : int;
}

type stats = { batches : int; batched_ops : int; passthrough : int }

let create cluster ~window ~max_batch =
  if max_batch < 1 then invalid_arg "Batching.create: max_batch < 1";
  {
    cluster;
    window;
    max_batch;
    groups = Hashtbl.create 16;
    n_batches = 0;
    n_batched_ops = 0;
    n_passthrough = 0;
  }

let flush_group t key =
  match Hashtbl.find_opt t.groups key with
  | None -> ()
  | Some g ->
      Hashtbl.remove t.groups key;
      Simkit.Engine.cancel (Cluster.engine t.cluster) g.timer;
      let members = List.rev g.members in
      (match members with
      | [] -> ()
      | [ single ] ->
          (* No gain from a one-element batch; submit plainly. *)
          t.n_passthrough <- t.n_passthrough + 1;
          Cluster.submit_plan t.cluster single.plan ~on_done:single.on_done
      | members -> (
          match Mds.Plan.merge (List.map (fun m -> m.plan) members) with
          | None ->
              (* Defensive: grouping should have made this impossible. *)
              List.iter
                (fun m ->
                  t.n_passthrough <- t.n_passthrough + 1;
                  Cluster.submit_plan t.cluster m.plan ~on_done:m.on_done)
                members
          | Some merged ->
              t.n_batches <- t.n_batches + 1;
              t.n_batched_ops <- t.n_batched_ops + List.length members;
              Metrics.Ledger.incr (Cluster.ledger t.cluster) "batch.flush";
              Metrics.Ledger.add (Cluster.ledger t.cluster) "batch.ops"
                (List.length members);
              Cluster.submit_plan t.cluster merged ~on_done:(fun outcome ->
                  List.iter (fun m -> m.on_done outcome) members)))

let submit_passthrough t plan ~on_done =
  t.n_passthrough <- t.n_passthrough + 1;
  Cluster.submit_plan t.cluster plan ~on_done

let submit t op ~on_done =
  match Cluster.plan t.cluster op with
  | Error reason -> on_done (Acp.Txn.Aborted reason)
  | Ok plan -> (
      match (op, plan.Mds.Plan.workers) with
      | (Mds.Op.Create { parent; _ } | Mds.Op.Delete { parent; _ }), [ worker ]
        ->
          let key = (parent, worker.Mds.Plan.server) in
          let g =
            match Hashtbl.find_opt t.groups key with
            | Some g -> g
            | None ->
                let g = { members = []; timer = Simkit.Engine.none } in
                Hashtbl.replace t.groups key g;
                g
          in
          g.members <- { plan; on_done } :: g.members;
          if List.length g.members >= t.max_batch then flush_group t key
          else
            let engine = Cluster.engine t.cluster in
            if not (Simkit.Engine.is_pending engine g.timer) then
              g.timer <-
                Simkit.Engine.schedule engine ~label:label_window
                  ~after:t.window (fun () -> flush_group t key)
      | _, _ ->
          (* Deletes, renames, local and multi-worker plans go straight
             through. *)
          submit_passthrough t plan ~on_done)

let flush_all t =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.groups [] in
  List.iter (flush_group t) keys

let stats t =
  {
    batches = t.n_batches;
    batched_ops = t.n_batched_ops;
    passthrough = t.n_passthrough;
  }
