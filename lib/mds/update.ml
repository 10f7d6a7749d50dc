type ino = int
type kind = File | Directory

type t =
  | Create_inode of { ino : ino; kind : kind; nlink : int }
  | Link of { dir : ino; name : string; target : ino }
  | Unlink of { dir : ino; name : string }
  | Ref of { ino : ino }
  | Unref of { ino : ino }
  | Touch of { ino : ino }

let pp_kind ppf = function
  | File -> Fmt.string ppf "file"
  | Directory -> Fmt.string ppf "dir"

let pp ppf = function
  | Create_inode { ino; kind; nlink } ->
      Fmt.pf ppf "create_inode(%d, %a, nlink=%d)" ino pp_kind kind nlink
  | Link { dir; name; target } ->
      Fmt.pf ppf "link(%d, %S -> %d)" dir name target
  | Unlink { dir; name } -> Fmt.pf ppf "unlink(%d, %S)" dir name
  | Ref { ino } -> Fmt.pf ppf "ref(%d)" ino
  | Unref { ino } -> Fmt.pf ppf "unref(%d)" ino
  | Touch { ino } -> Fmt.pf ppf "touch(%d)" ino

let target_oid = function
  | Create_inode { ino; _ } | Ref { ino } | Unref { ino } | Touch { ino } ->
      ino
  | Link { dir; _ } | Unlink { dir; _ } -> dir

(* A side holds one or two updates in every plan the planner builds, so
   those cases answer without building a list to sort. *)
let lock_oids = function
  | [] -> []
  | [ u ] -> [ target_oid u ]
  | [ a; b ] ->
      let x = target_oid a and y = target_oid b in
      if x < y then [ x; y ] else if y < x then [ y; x ] else [ x ]
  | us -> List.sort_uniq Int.compare (List.map target_oid us)

let equal (a : t) (b : t) = a = b
