module Tbl = Simkit.Tbl.String

type t = {
  cells : int ref Tbl.t;
  (* Bumped by [reset], which drops every cell: a counter holding a cell
     from an older generation looks its key up again. *)
  mutable generation : int;
}

let create () = { cells = Tbl.create 32; generation = 0 }

let cell t key =
  match Tbl.find_opt t.cells key with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Tbl.replace t.cells key r;
      r

let incr t key = Stdlib.incr (cell t key)

let add t key n =
  let r = cell t key in
  r := !r + n

let get t key = match Tbl.find_opt t.cells key with Some r -> !r | None -> 0

type counter = {
  ledger : t;
  key : string;
  mutable slot : int ref;
  mutable slot_generation : int;  (* -1 until the first bump *)
}

let unbound = ref 0

let counter ledger key = { ledger; key; slot = unbound; slot_generation = -1 }

let bump c =
  if c.slot_generation <> c.ledger.generation then begin
    c.slot <- cell c.ledger c.key;
    c.slot_generation <- c.ledger.generation
  end;
  Stdlib.incr c.slot

let keys t =
  Tbl.fold (fun k _ acc -> k :: acc) t.cells [] |> List.sort String.compare

let snapshot t = List.map (fun k -> (k, get t k)) (keys t)

let diff ~after ~before =
  let base k =
    match List.assoc_opt k before with Some v -> v | None -> 0
  in
  List.map (fun k -> (k, get after k - base k)) (keys after)

let reset t =
  Tbl.reset t.cells;
  t.generation <- t.generation + 1

let pp ppf t =
  List.iter (fun (k, v) -> Fmt.pf ppf "%-28s %d@." k v) (snapshot t)
