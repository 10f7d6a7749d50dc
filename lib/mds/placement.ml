type strategy = Hash | Round_robin | Colocate of float | Spread

type t = {
  strategy : strategy;
  servers : int;
  rng : Simkit.Rng.t option;
  (* Owner by inode number, -1 if unplaced. The cluster mints inode
     numbers from one counter, so the array is dense. *)
  mutable owner : int array;
  mutable next_rr : int;
}

(* Knuth multiplicative hash: spreads consecutive inode numbers. *)
let hash_ino ino servers =
  let h = ino * 0x9E3779B1 land max_int in
  h mod servers

let create ?rng ~strategy ~servers () =
  if servers <= 0 then invalid_arg "Placement.create: servers <= 0";
  (match strategy with
  | Colocate _ when rng = None ->
      invalid_arg "Placement.create: Colocate needs an rng"
  | _ -> ());
  { strategy; servers; rng; owner = Array.make 256 (-1); next_rr = 0 }

let servers t = t.servers

let placed t ino =
  ino >= 0 && ino < Array.length t.owner && t.owner.(ino) >= 0

let node_of t ino = if placed t ino then t.owner.(ino) else raise Not_found

let record t ino server =
  let len = Array.length t.owner in
  if ino >= len then begin
    let grown = Array.make (max (2 * len) (ino + 1)) (-1) in
    Array.blit t.owner 0 grown 0 len;
    t.owner <- grown
  end;
  t.owner.(ino) <- server

let assign_root t ino ~server =
  if server < 0 || server >= t.servers then
    invalid_arg "Placement.assign_root: server out of range";
  if ino < 0 then invalid_arg "Placement.assign_root: negative inode";
  record t ino server

let place t ~parent_server ino =
  if ino < 0 then invalid_arg "Placement.place: negative inode";
  if placed t ino then invalid_arg "Placement.place: inode already placed";
  let server =
    match t.strategy with
    | Hash -> hash_ino ino t.servers
    | Round_robin ->
        let s = t.next_rr in
        t.next_rr <- (t.next_rr + 1) mod t.servers;
        s
    | Colocate p -> (
        match t.rng with
        | None -> assert false
        | Some rng ->
            if Simkit.Rng.bernoulli rng (Float.max 0.0 (Float.min 1.0 p))
            then parent_server
            else hash_ino ino t.servers)
    | Spread ->
        if t.servers = 1 then 0
        else
          let slot = hash_ino ino (t.servers - 1) in
          if slot >= parent_server then slot + 1 else slot
  in
  record t ino server;
  server
