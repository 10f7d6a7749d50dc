type side = {
  server : int;
  lock_oids : Update.ino list;
  updates : Update.t list;
}

type t = {
  op : Op.t;
  new_ino : Update.ino option;
  coordinator : side;
  workers : side list;
}

let is_distributed t = t.workers <> []
let participants t = 1 + List.length t.workers

let side_for t ~server =
  if t.coordinator.server = server then Some t.coordinator
  else List.find_opt (fun s -> s.server = server) t.workers

let merge plans =
  match plans with
  | [] -> None
  | first :: _ ->
      let coordinator_server = first.coordinator.server in
      if
        List.exists (fun p -> p.coordinator.server <> coordinator_server) plans
      then None
      else begin
        (* Gather per-server updates across all plans, coordinator
           first, then workers in first-appearance order. *)
        let order = ref [ coordinator_server ] in
        let updates : (int, Update.t list ref) Hashtbl.t = Hashtbl.create 8 in
        let push server us =
          (if not (List.mem server !order) then order := !order @ [ server ]);
          match Hashtbl.find_opt updates server with
          | Some r -> r := !r @ us
          | None -> Hashtbl.replace updates server (ref us)
        in
        List.iter
          (fun p ->
            push p.coordinator.server p.coordinator.updates;
            List.iter (fun s -> push s.server s.updates) p.workers)
          plans;
        let side server =
          let us =
            match Hashtbl.find_opt updates server with
            | Some r -> !r
            | None -> []
          in
          {
            server;
            lock_oids = Update.lock_oids us;
            updates = us;
          }
        in
        match List.map side !order with
        | coordinator :: workers ->
            Some { op = first.op; new_ino = first.new_ino; coordinator; workers }
        | [] -> None
      end

let pp_side ppf s =
  Fmt.pf ppf "@[server %d: locks [%a], updates [%a]@]" s.server
    Fmt.(list ~sep:comma int)
    s.lock_oids
    Fmt.(list ~sep:semi Update.pp)
    s.updates

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@,coordinator %a@,%a@]" Op.pp t.op pp_side t.coordinator
    Fmt.(list ~sep:cut (fun ppf s -> Fmt.pf ppf "worker %a" pp_side s))
    t.workers
