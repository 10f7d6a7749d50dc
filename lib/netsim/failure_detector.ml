let label_sweep = Simkit.Label.v Net "detector.sweep"

(* A peer's state byte, at its {!Address.index} in [state]. *)
let not_peer = '\000'
let alive = '\001'
let suspect = '\002'

type t = {
  engine : Simkit.Engine.t;
  timeout : int;  (* ns *)
  sweep_interval : Simkit.Time.span;
  (* The peers, in the order given to [create]: sweeps fire [on_suspect]
     and [suspected] lists peers in this order. *)
  peers : Address.t array;
  (* Per-peer state in flat tables keyed by {!Address.index}, so
     [heard_from] — n-1 calls per heartbeat interval on every node of a
     full mesh — reads one byte and writes one int, with no record or
     option box to chase. [state] also answers membership: a non-peer
     inside the range reads [not_peer]. *)
  state : Bytes.t;
  last_heard : int array;  (* ns; meaningful for peers only *)
  on_suspect : Address.t -> unit;
  on_alive : Address.t -> unit;
  mutable running : bool;
  mutable sweep : Simkit.Engine.handle option;
}

let create ~engine ~timeout ?sweep_interval ~peers ~on_suspect
    ?(on_alive = fun _ -> ()) () =
  let sweep_interval =
    match sweep_interval with
    | Some s -> s
    | None ->
        let q = Simkit.Time.span_to_ns timeout / 4 in
        Simkit.Time.span_ns (max 1 q)
  in
  let now = (Simkit.Engine.now engine :> int) in
  let peers = Array.of_list peers in
  let width =
    Array.fold_left (fun m a -> max m (Address.index a + 1)) 0 peers
  in
  let state = Bytes.make width not_peer in
  Array.iter (fun a -> Bytes.set state (Address.index a) alive) peers;
  {
    engine;
    timeout = Simkit.Time.span_to_ns timeout;
    sweep_interval;
    peers;
    state;
    last_heard = Array.make width now;
    on_suspect;
    on_alive;
    running = false;
    sweep = None;
  }

(* [a]'s state byte; [not_peer] for any address outside the table. *)
let[@inline] state_of t a =
  let i = Address.index a in
  if i >= 0 && i < Bytes.length t.state then Bytes.unsafe_get t.state i
  else not_peer

let check_peer t now a =
  let i = Address.index a in
  if Bytes.unsafe_get t.state i = alive
     && now >= Array.unsafe_get t.last_heard i + t.timeout
  then begin
    Bytes.unsafe_set t.state i suspect;
    t.on_suspect a
  end

let rec arm t =
  let h =
    Simkit.Engine.schedule t.engine ~label:label_sweep
      ~after:t.sweep_interval (fun () ->
        if t.running then begin
          let now = (Simkit.Engine.now t.engine :> int) in
          Array.iter (check_peer t now) t.peers;
          arm t
        end)
  in
  t.sweep <- Some h

let start t =
  if not t.running then begin
    t.running <- true;
    arm t
  end

let stop t =
  if t.running then begin
    t.running <- false;
    (match t.sweep with Some h -> Simkit.Engine.cancel h | None -> ());
    t.sweep <- None
  end

(* Addresses are equal exactly when their indices are, so [a] is the
   peer [create] was given. *)
let heard_from t a =
  let s = state_of t a in
  if s <> not_peer then begin
    let i = Address.index a in
    Array.unsafe_set t.last_heard i (Simkit.Engine.now t.engine :> int);
    if s = suspect then begin
      Bytes.unsafe_set t.state i alive;
      t.on_alive a
    end
  end

let is_suspected t a = state_of t a = suspect

let suspected t =
  Array.fold_right
    (fun a acc -> if is_suspected t a then a :: acc else acc)
    t.peers []

let suspected_count t =
  Array.fold_left
    (fun acc a -> if is_suspected t a then acc + 1 else acc)
    0 t.peers
