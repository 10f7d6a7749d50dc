type t = {
  mutable clock : Time.t;
  (* Pending events, grouped in runs. A run is a FIFO of events for one
     instant, doubly linked through [next] and [prev]; only its head sits
     in [q], an inline 4-ary min-heap ordered by (at, seq). An event joins
     the run of [tail], the last event enqueued, when that event is still
     queued and due at the same instant, so a burst of same-instant
     events costs one heap entry, not one sift per event. The heap is
     specialized here so the hot loop compares the two int fields
     directly — no comparator closure, no [option] boxing on pop. It is
     indexed: every head records its slot, so [cancel] removes an event
     at once and the queue holds live events only. Slots at and beyond
     [qlen] hold [vacant], and a handle's links are reset when it
     leaves, so no dispatched or cancelled closure stays reachable from
     the queue. A batch — [count] same-instant events that call one
     callback — is one handle that stays in its place until its last
     member is dispatched. *)
  mutable q : handle array;
  mutable qlen : int;  (* run heads in [q] *)
  (* The last event enqueued while it is queued. When it leaves, its
     predecessor in its run takes over, or [vacant]. *)
  mutable tail : handle;
  mutable live : int;  (* queued events, run and batch members included *)
  mutable next_seq : int;
  mutable dispatched : int;
  (* Clock-advance observer: called with the target time just before the
     clock moves forward, so passive samplers can materialize readings at
     intermediate instants without ever scheduling events of their own.
     [has_observer] keeps the common (unobserved) path to one load and a
     conditional branch. *)
  mutable has_observer : bool;
  mutable observer : Time.t -> unit;
  (* Dispatch observer pair: [before_dispatch] runs just before an event's
     callback, [after_dispatch] just after (also on the exception path),
     receiving the event's label. Same passivity contract and same
     one-load-one-branch disabled cost as the clock observer; used by the
     host profiler ({!Obs.Prof}) to stamp clocks around each callback. *)
  mutable has_dispatch_observer : bool;
  mutable before_dispatch : unit -> unit;
  mutable after_dispatch : Label.t -> unit;
  (* Dispatch tap: a second, independent hook called with (at, label)
     just before each event's callback runs. Separate from the observer
     pair so a flight recorder ({!Obs.Recorder}) can ride along with the
     profiler — each slot holds at most one client. Same passivity
     contract and same one-load-one-branch disabled cost. *)
  mutable has_dispatch_tap : bool;
  mutable dispatch_tap : Time.t -> Label.t -> unit;
  (* High-water mark of [live] since creation or the last
     [reset_pending_high_water]. *)
  mutable live_hwm : int;
}

and handle = {
  owner : t;
  at : Time.t;
  seq : int;
  label : Label.t;
  callback : unit -> unit;
  (* Members not yet dispatched: 1 for a plain event, [count] for a
     fresh batch. *)
  mutable left : int;
  (* Index of the handle in [owner.q] while it heads a run; [follower]
     while it is queued behind another event of its run; [-1] once it
     has been dispatched or cancelled. *)
  mutable slot : int;
  (* Neighbours in the run; [vacant] at either end and once the handle
     has left the queue. *)
  mutable next : handle;
  mutable prev : handle;
}

exception Event_failure of string * exn

let follower = -2

(* Events order by (timestamp, sequence number): FIFO among equal
   timestamps, hence full determinism. [seq] is unique, so this is a
   strict total order and the pop sequence is independent of the heap's
   internal layout — removing an event early cannot reorder the others.
   Every enqueue moves [tail], so the seqs of a run are consecutive
   apart from cancelled events and no other live event sorts between two
   neighbours in a run: a head's successor can take over the head's heap
   slot with no sift. The instants compare as the ints they are, so the
   sifts' comparison inlines under any build profile. *)
let[@inline] before a b =
  let x = (a.at :> int) and y = (b.at :> int) in
  x < y || (x = y && a.seq < b.seq)

(* [vacant] fills every heap slot at or beyond [qlen], ends every run
   and is the [tail] of an engine with nothing queued. It is never
   queued and never handed out. Its owner [idle] never runs; [create]
   copies it. *)
let rec vacant =
  {
    owner = idle;
    at = Time.zero;
    seq = -1;
    label = Label.event;
    callback = (fun () -> ());
    left = 0;
    slot = -1;
    next = vacant;
    prev = vacant;
  }

and idle =
  {
    clock = Time.zero;
    q = [||];
    qlen = 0;
    tail = vacant;
    live = 0;
    next_seq = 0;
    dispatched = 0;
    has_observer = false;
    observer = (fun _ -> ());
    has_dispatch_observer = false;
    before_dispatch = (fun () -> ());
    after_dispatch = (fun _ -> ());
    has_dispatch_tap = false;
    dispatch_tap = (fun _ _ -> ());
    live_hwm = 0;
  }

let create () = { idle with clock = Time.zero }

let now t = t.clock

let set_clock_observer t f =
  t.has_observer <- true;
  t.observer <- f

let set_dispatch_observer t ~before ~after =
  t.has_dispatch_observer <- true;
  t.before_dispatch <- before;
  t.after_dispatch <- after

let set_dispatch_tap t f =
  t.has_dispatch_tap <- true;
  t.dispatch_tap <- f

(* Every clock advance funnels through here so the observer sees each
   forward move exactly once, before state at the new instant runs. *)
let advance_clock t at =
  if t.has_observer && Time.( > ) at t.clock then t.observer at;
  t.clock <- at

(* Growth first promotes the queued handles with a minor collection, so
   the blit copies old-to-old pointers. Without it, a cluster set-up
   that grew the heap five times measured about 15% slower on a 2-core
   x86-64 host. *)
let ensure_capacity t =
  if t.qlen = Array.length t.q then begin
    if t.qlen > 0 then Gc.minor ();
    let bigger = Array.make (max 256 (2 * t.qlen)) vacant in
    Array.blit t.q 0 bigger 0 t.qlen;
    t.q <- bigger
  end

let[@inline] place q i h =
  q.(i) <- h;
  h.slot <- i

(* Hole-based sifts: move elements into the hole and write [h] once,
   instead of repeated swaps. [sift_up] fills hole [i] with [h] or one
   of its ancestors; [sift_down] fills it with [h] or one of its
   descendants within the first [n] slots. *)
let sift_up q i h =
  let i = ref i in
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    let p = q.(parent) in
    if before h p then begin
      place q !i p;
      i := parent
    end
    else stop := true
  done;
  place q !i h

let sift_down q n i h =
  let i = ref i in
  let stop = ref false in
  while not !stop do
    let child = (4 * !i) + 1 in
    if child >= n then stop := true
    else begin
      let m = ref child in
      let hi = if child + 4 < n then child + 4 else n in
      for c = child + 1 to hi - 1 do
        if before q.(c) q.(!m) then m := c
      done;
      if before q.(!m) h then begin
        place q !i q.(!m);
        i := !m
      end
      else stop := true
    end
  done;
  place q !i h

let heap_push t h =
  ensure_capacity t;
  let i = t.qlen in
  t.qlen <- i + 1;
  sift_up t.q i h

(* Empty slot [i]: the last element moves into the hole and sifts
   whichever way restores the heap. *)
let remove_at t i =
  let q = t.q in
  let n = t.qlen - 1 in
  t.qlen <- n;
  let last = q.(n) in
  q.(n) <- vacant;
  if i < n then begin
    if i > 0 && before last q.((i - 1) lsr 2) then sift_up q i last
    else sift_down q n i last
  end

(* Take queued [h] off the queue. A head's successor inherits its heap
   slot with no sift, a head without one leaves through [remove_at], and
   a follower is unlinked in O(1). *)
let unqueue t h =
  let s = h.next in
  if t.tail == h then t.tail <- h.prev;
  if h.slot >= 0 then begin
    if s == vacant then remove_at t h.slot
    else begin
      s.prev <- vacant;
      h.next <- vacant;
      place t.q h.slot s
    end
  end
  else begin
    let p = h.prev in
    p.next <- s;
    if s != vacant then begin
      s.prev <- p;
      h.next <- vacant
    end;
    h.prev <- vacant
  end;
  h.slot <- -1;
  t.live <- t.live - h.left

let enqueue t ~at ~label ~count callback =
  let h =
    {
      owner = t;
      at;
      seq = t.next_seq;
      label;
      callback;
      left = count;
      slot = follower;
      next = vacant;
      prev = vacant;
    }
  in
  t.next_seq <- t.next_seq + 1;
  let tl = t.tail in
  if tl.slot <> -1 && Time.equal tl.at at then begin
    tl.next <- h;
    h.prev <- tl
  end
  else heap_push t h;
  t.tail <- h;
  t.live <- t.live + count;
  if t.live > t.live_hwm then t.live_hwm <- t.live;
  h

let schedule t ?(label = Label.event) ~after f =
  enqueue t ~at:(Time.add t.clock after) ~label ~count:1 f

let schedule_at t ?(label = Label.event) ~at f =
  if Time.( < ) at t.clock then
    invalid_arg "Engine.schedule_at: time in the past";
  enqueue t ~at ~label ~count:1 f

let schedule_batch t ?(label = Label.event) ~at ~count f =
  if count < 1 then invalid_arg "Engine.schedule_batch: count below 1";
  if Time.( < ) at t.clock then
    invalid_arg "Engine.schedule_batch: time in the past";
  enqueue t ~at ~label ~count f

let defer t ?(label = Label.deferred) f =
  enqueue t ~at:t.clock ~label ~count:1 f

let cancel h = if h.slot <> -1 then unqueue h.owner h

let is_pending h = h.slot <> -1

let pending t = t.live
let dispatched t = t.dispatched
let pending_high_water t = t.live_hwm
let reset_pending_high_water t = t.live_hwm <- t.live

(* Take the next member of the queue's head [h]: a batch with members
   behind this one keeps its place, anything else leaves the queue. *)
let take t h =
  if h.left > 1 then begin
    h.left <- h.left - 1;
    t.live <- t.live - 1
  end
  else unqueue t h

(* [h] has been taken, so a callback that cancels its own event is a
   no-op, and one that cancels its own batch drops the members left. *)
let dispatch t h =
  advance_clock t h.at;
  t.dispatched <- t.dispatched + 1;
  (* Tapped before the callback runs, so on a crash the recorder's last
     entry is the event that was executing. *)
  if t.has_dispatch_tap then t.dispatch_tap h.at h.label;
  if t.has_dispatch_observer then begin
    t.before_dispatch ();
    (try h.callback ()
     with exn ->
       t.after_dispatch h.label;
       raise (Event_failure (Label.name h.label, exn)));
    t.after_dispatch h.label
  end
  else
    try h.callback ()
    with exn -> raise (Event_failure (Label.name h.label, exn))

let step t =
  if t.qlen = 0 then false
  else begin
    let h = t.q.(0) in
    take t h;
    dispatch t h;
    true
  end

type outcome = Drained | Reached_limit | Reached_until

let run ?until ?max_events t =
  let budget = ref (match max_events with None -> -1 | Some n -> n) in
  let rec loop () =
    if !budget = 0 then Reached_limit
    else if t.qlen = 0 then Drained
    else
      let h = t.q.(0) in
      match until with
      | Some stop when Time.( > ) h.at stop ->
          advance_clock t stop;
          Reached_until
      | _ ->
          take t h;
          dispatch t h;
          if !budget > 0 then decr budget;
          loop ()
  in
  let outcome = loop () in
  (match (outcome, until) with
  | Drained, Some stop when Time.( < ) t.clock stop -> advance_clock t stop
  | _ -> ());
  outcome
