type t = {
  placement : Placement.t;
  next_ino : unit -> Update.ino;
  lookup : server:int -> dir:Update.ino -> name:string -> Update.ino option;
}

type error =
  | Unknown_directory of Update.ino
  | Entry_not_found of Update.ino * string
  | Entry_exists of Update.ino * string

let pp_error ppf = function
  | Unknown_directory d -> Fmt.pf ppf "unknown directory %d" d
  | Entry_not_found (d, n) -> Fmt.pf ppf "no entry %S in directory %d" n d
  | Entry_exists (d, n) -> Fmt.pf ppf "entry %S exists in directory %d" n d

let create ~placement ~next_ino ~lookup = { placement; next_ino; lookup }

(* Group (server, update) pairs into plan sides, preserving update order
   within a server, with [coordinator_server] first. *)
let assemble op ~new_ino ~coordinator_server pieces =
  let servers =
    List.fold_left
      (fun acc (s, _) -> if List.mem s acc then acc else acc @ [ s ])
      [ coordinator_server ] pieces
  in
  let side server =
    let updates =
      List.filter_map
        (fun (s, u) -> if s = server then Some u else None)
        pieces
    in
    { Plan.server; lock_oids = Update.lock_oids updates; updates }
  in
  let sides = List.map side servers in
  match sides with
  | coordinator :: workers -> { Plan.op; new_ino; coordinator; workers }
  | [] -> assert false

let dir_server t dir =
  if Placement.placed t.placement dir then Some (Placement.node_of t.placement dir)
  else None

let plan t op =
  match op with
  | Op.Create { parent; name; kind } -> (
      match dir_server t parent with
      | None -> Error (Unknown_directory parent)
      | Some pserver -> (
          match t.lookup ~server:pserver ~dir:parent ~name with
          | Some _ -> Error (Entry_exists (parent, name))
          | None ->
              let ino = t.next_ino () in
              let iserver =
                Placement.place t.placement ~parent_server:pserver ino
              in
              let pieces =
                [
                  (pserver, Update.Link { dir = parent; name; target = ino });
                  (iserver, Update.Create_inode { ino; kind; nlink = 1 });
                ]
              in
              Ok
                (assemble op ~new_ino:(Some ino)
                   ~coordinator_server:pserver pieces)))
  | Op.Delete { parent; name } -> (
      match dir_server t parent with
      | None -> Error (Unknown_directory parent)
      | Some pserver -> (
          match t.lookup ~server:pserver ~dir:parent ~name with
          | None -> Error (Entry_not_found (parent, name))
          | Some target ->
              let iserver = Placement.node_of t.placement target in
              let pieces =
                [
                  (pserver, Update.Unlink { dir = parent; name });
                  (iserver, Update.Unref { ino = target });
                ]
              in
              Ok (assemble op ~new_ino:None ~coordinator_server:pserver pieces)
          ))
  | Op.Rename { src_dir; src_name; dst_dir; dst_name } -> (
      match (dir_server t src_dir, dir_server t dst_dir) with
      | None, _ -> Error (Unknown_directory src_dir)
      | _, None -> Error (Unknown_directory dst_dir)
      | Some sserver, Some dserver -> (
          match t.lookup ~server:sserver ~dir:src_dir ~name:src_name with
          | None -> Error (Entry_not_found (src_dir, src_name))
          | Some moved ->
              let mserver = Placement.node_of t.placement moved in
              let overwrite =
                (* Renaming onto an existing name replaces it (POSIX). *)
                if src_dir = dst_dir && String.equal src_name dst_name then
                  None
                else t.lookup ~server:dserver ~dir:dst_dir ~name:dst_name
              in
              let pieces =
                [
                  (sserver, Update.Unlink { dir = src_dir; name = src_name });
                ]
                @ (match overwrite with
                  | Some old when old <> moved ->
                      [ (dserver, Update.Unlink { dir = dst_dir; name = dst_name }) ]
                  | _ -> [])
                @ [
                    ( dserver,
                      Update.Link
                        { dir = dst_dir; name = dst_name; target = moved } );
                    (mserver, Update.Touch { ino = moved });
                  ]
                @ (match overwrite with
                  | Some old when old <> moved ->
                      [ (Placement.node_of t.placement old,
                         Update.Unref { ino = old }) ]
                  | _ -> [])
              in
              Ok (assemble op ~new_ino:None ~coordinator_server:sserver pieces)
          ))
