module Inos = Simkit.Tbl.Int
module Names = Simkit.Tbl.String

type inode_info = { kind : Update.kind; nlink : int }

(* An inode is stored as one immediate, [nlink lsl 1 lor is_dir], not a
   boxed [inode_info]: adding or dropping a link is [+ 2] or [- 2]. *)
type t = {
  inodes : int Inos.t;
  dentries : Update.ino Names.t Inos.t;
}

let pack kind nlink =
  (nlink lsl 1) lor match kind with Update.Directory -> 1 | Update.File -> 0

let is_dir v = v land 1 = 1
let kind_of v = if is_dir v then Update.Directory else Update.File
let nlink_of v = v asr 1
let info_of v = { kind = kind_of v; nlink = nlink_of v }

type error =
  | Inode_exists of Update.ino
  | No_such_inode of Update.ino
  | Name_exists of Update.ino * string
  | No_such_name of Update.ino * string
  | Not_a_directory of Update.ino
  | Directory_not_empty of Update.ino

let pp_error ppf = function
  | Inode_exists i -> Fmt.pf ppf "inode %d already exists" i
  | No_such_inode i -> Fmt.pf ppf "no such inode %d" i
  | Name_exists (d, n) -> Fmt.pf ppf "name %S already exists in dir %d" n d
  | No_such_name (d, n) -> Fmt.pf ppf "no such name %S in dir %d" n d
  | Not_a_directory i -> Fmt.pf ppf "inode %d is not a directory" i
  | Directory_not_empty i -> Fmt.pf ppf "directory %d is not empty" i

let error_to_string e = Fmt.str "%a" pp_error e

let create () =
  { inodes = Inos.create 64; dentries = Inos.create 16 }

let add_root t ino =
  Inos.replace t.inodes ino (pack Update.Directory 1);
  Inos.replace t.dentries ino (Names.create 16)

let dentry_table t dir = Inos.find_opt t.dentries dir

let dir_entry_count t dir =
  match dentry_table t dir with
  | None -> 0
  | Some tbl -> Names.length tbl

let apply t (u : Update.t) : (Update.t, error) result =
  match u with
  | Create_inode { ino; kind; nlink } ->
      if Inos.mem t.inodes ino then Error (Inode_exists ino)
      else begin
        Inos.replace t.inodes ino (pack kind nlink);
        if kind = Update.Directory && not (Inos.mem t.dentries ino) then
          Inos.replace t.dentries ino (Names.create 8);
        Ok (Update.Unref { ino })
      end
  | Link { dir; name; target } -> (
      match Inos.find_opt t.inodes dir with
      | None -> Error (No_such_inode dir)
      | Some v when not (is_dir v) -> Error (Not_a_directory dir)
      | Some _ ->
          let tbl =
            match dentry_table t dir with
            | Some tbl -> tbl
            | None ->
                let tbl = Names.create 8 in
                Inos.replace t.dentries dir tbl;
                tbl
          in
          if Names.mem tbl name then Error (Name_exists (dir, name))
          else begin
            Names.replace tbl name target;
            Ok (Update.Unlink { dir; name })
          end)
  | Unlink { dir; name } -> (
      match dentry_table t dir with
      | None ->
          if Inos.mem t.inodes dir then Error (No_such_name (dir, name))
          else Error (No_such_inode dir)
      | Some tbl -> (
          match Names.find_opt tbl name with
          | None -> Error (No_such_name (dir, name))
          | Some target ->
              Names.remove tbl name;
              Ok (Update.Link { dir; name; target })))
  | Ref { ino } -> (
      match Inos.find_opt t.inodes ino with
      | None -> Error (No_such_inode ino)
      | Some v ->
          Inos.replace t.inodes ino (v + 2);
          Ok (Update.Unref { ino }))
  | Unref { ino } -> (
      match Inos.find_opt t.inodes ino with
      | None -> Error (No_such_inode ino)
      | Some v ->
          if nlink_of v <= 1 then
            if is_dir v && dir_entry_count t ino > 0 then
              Error (Directory_not_empty ino)
            else begin
              (* Reap. *)
              Inos.remove t.inodes ino;
              Inos.remove t.dentries ino;
              Ok
                (Update.Create_inode
                   { ino; kind = kind_of v; nlink = nlink_of v })
            end
          else begin
            Inos.replace t.inodes ino (v - 2);
            Ok (Update.Ref { ino })
          end)
  | Touch { ino } ->
      if Inos.mem t.inodes ino then Ok (Update.Touch { ino })
      else Error (No_such_inode ino)

let apply_exn t u =
  match apply t u with
  | Ok inverse -> inverse
  | Error e ->
      invalid_arg
        (Fmt.str "State.apply_exn: %a applying %a" pp_error e Update.pp u)

let inode t ino = Option.map info_of (Inos.find_opt t.inodes ino)

let lookup t ~dir ~name =
  match dentry_table t dir with
  | None -> None
  | Some tbl -> Names.find_opt tbl name

let list_dir t dir =
  match Inos.find_opt t.inodes dir with
  | Some v when is_dir v ->
      let entries =
        match dentry_table t dir with
        | None -> []
        | Some tbl -> Names.fold (fun k v acc -> (k, v) :: acc) tbl []
      in
      Some (List.sort (fun (a, _) (b, _) -> String.compare a b) entries)
  | Some _ | None -> None

let inodes t =
  Inos.fold (fun ino v acc -> (ino, info_of v) :: acc) t.inodes []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let copy t =
  let fresh = create () in
  Inos.iter (fun k v -> Inos.replace fresh.inodes k v) t.inodes;
  Inos.iter
    (fun k tbl -> Inos.replace fresh.dentries k (Names.copy tbl))
    t.dentries;
  fresh

let equal a b =
  let inodes_eq = inodes a = inodes b in
  let dirs a =
    Inos.fold (fun k _ acc -> k :: acc) a.dentries []
    |> List.sort Int.compare
  in
  inodes_eq
  && dirs a = dirs b
  && List.for_all
       (fun d -> list_dir a d = list_dir b d)
       (List.filter
          (fun d -> Inos.mem a.inodes d)
          (dirs a))
