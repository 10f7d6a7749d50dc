(* Message-conservation ledger: per-tag counters over every copy the
   fabric accepts, classified at the delivery event by the branch taken
   there. The books must balance exactly —

     sent = delivered + dup_delivered + dropped + in_flight

   per tag at any instant. [in_flight] is maintained at the schedule /
   delivery-callback boundaries while the other terms come from the
   classification branches, so a new delivery-side branch that forgets
   to classify (the historical way message accounting drifts) breaks
   the law instead of vanishing. Send-time refusals ([rejected]) never
   enter the fabric and sit outside the law. *)
type t = {
  enabled : bool;
  tags : int;
  sent : int array;  (* copies accepted for transmission *)
  delivered : int array;  (* primary copies handed to the endpoint *)
  dup_delivered : int array;  (* duplicate copies handed to the endpoint *)
  dropped : int array;  (* copies dropped in flight (down / partition) *)
  rejected : int array;  (* refused at send time, before [sent] *)
  in_flight : int array;
}

let create ~tags =
  if tags <= 0 then invalid_arg "Network.Meter.create: tags must be positive";
  {
    enabled = true;
    tags;
    sent = Array.make tags 0;
    delivered = Array.make tags 0;
    dup_delivered = Array.make tags 0;
    dropped = Array.make tags 0;
    rejected = Array.make tags 0;
    in_flight = Array.make tags 0;
  }

let disabled () =
  {
    enabled = false;
    tags = 0;
    sent = [||];
    delivered = [||];
    dup_delivered = [||];
    dropped = [||];
    rejected = [||];
    in_flight = [||];
  }

let is_recording m = m.enabled
let tags m = m.tags
let sent m tag = m.sent.(tag)
let delivered m tag = m.delivered.(tag)
let dup_delivered m tag = m.dup_delivered.(tag)
let dropped m tag = m.dropped.(tag)
let rejected m tag = m.rejected.(tag)
let in_flight m tag = m.in_flight.(tag)

let note_rejected m tag =
  if tag >= 0 then m.rejected.(tag) <- m.rejected.(tag) + 1

let note_sent m tag =
  if tag >= 0 then begin
    m.sent.(tag) <- m.sent.(tag) + 1;
    m.in_flight.(tag) <- m.in_flight.(tag) + 1
  end

let note_arrival m tag =
  if tag >= 0 then m.in_flight.(tag) <- m.in_flight.(tag) - 1

let note_dropped m tag =
  if tag >= 0 then m.dropped.(tag) <- m.dropped.(tag) + 1

let note_delivered m tag ~dup =
  if tag >= 0 then
    if dup then m.dup_delivered.(tag) <- m.dup_delivered.(tag) + 1
    else m.delivered.(tag) <- m.delivered.(tag) + 1

let imbalance m tag =
  m.sent.(tag)
  - (m.delivered.(tag) + m.dup_delivered.(tag) + m.dropped.(tag)
     + m.in_flight.(tag))

(* Exact check, tolerance 0: one (tag, difference) pair per broken
   tag, empty when every tag balances (or the meter is off). *)
let check m =
  let bad = ref [] in
  for tag = m.tags - 1 downto 0 do
    let d = imbalance m tag in
    if d <> 0 then bad := (tag, d) :: !bad
  done;
  !bad
