(* An event lives in a slot: an index into three per-engine arrays that
   grow together. [meta] holds the slot's int fields at
   [slot * stride + field], [callbacks] its callback and [labels] its
   label. Pending events are grouped in runs. A run is a FIFO of events
   for one instant, doubly linked through [f_next] and [f_prev]; only its
   head sits in [q], an inline 4-ary min-heap of slots ordered by
   (instant, seq). An event joins the run of [tail], the last event
   enqueued, when that event is still queued and due at the same instant,
   so a burst of same-instant events costs one heap entry, not one sift
   per event. The heap is indexed: every head records its heap index, so
   [cancel] removes an event at once and the queue holds live events
   only. A batch — [count] same-instant events that call one callback —
   is one slot that stays in its place until its last member is
   dispatched. An event that leaves the queue frees its slot: the slot
   drops the callback, its generation moves on, and it joins a LIFO free
   list for the next enqueue. A handle is the slot and the generation it
   was issued with, so it names nothing once its event has left. *)
type t = {
  mutable clock : Time.t;
  mutable meta : int array;
  mutable callbacks : (unit -> unit) array;
  mutable labels : Label.t array;
  mutable free : int;  (* first free slot, or [nil] *)
  mutable q : int array;  (* run heads, as slots *)
  mutable qlen : int;
  (* The last event enqueued while it is queued. When it leaves, its
     predecessor in its run takes over, or [nil]. *)
  mutable tail : int;
  mutable live : int;  (* queued events, run and batch members included *)
  mutable next_seq : int;
  mutable dispatched : int;
  (* The observer slot: passive hooks on clock moves and around each
     dispatch (see [observe] in the interface). Each site's flag keeps
     it to one load and a conditional branch while unobserved. *)
  mutable clock_observed : bool;
  mutable on_clock : Time.t -> unit;
  mutable dispatch_observed : bool;
  mutable before : Time.t -> Label.t -> unit;
  mutable after : Label.t -> unit;
  (* High-water mark of [live] since creation or the last
     [reset_pending_high_water]. *)
  mutable live_hwm : int;
}

type handle = int

exception Event_failure of string * exn

(* A slot's fields in [meta]. *)
let stride = 7
let f_at = 0 (* instant, ns *)
let f_seq = 1 (* enqueue order, the tie-break *)
let f_left = 2 (* members not yet dispatched: 1, or a batch's count *)

(* Heap index while the event heads a run, [follower] while it is
   queued behind another event of its run. *)
let f_pos = 3

(* Run successor while queued, next free slot while free; [nil] at
   either end. *)
let f_next = 4
let f_prev = 5 (* run predecessor; [nil] for a head *)

(* Bumped each time the slot is freed, so a handle issued before names
   nothing after. *)
let f_gen = 6
let nil = -1
let follower = -2

(* A handle is [slot lor (generation lsl slot_bits)]. A slot whose
   generation would pass [max_gen] is retired, never reused, so no two
   events of one engine share a handle; needing more than [max_slots]
   slots raises instead. *)
let slot_bits = 31
let max_slots = 1 lsl slot_bits
let max_gen = (1 lsl slot_bits) - 1
let none = -1
let initial_slots = 16
let nop () = ()

(* Chain fresh slots [lo, hi) into a free list that ends at [nil]. *)
let chain (meta : int array) lo hi =
  for s = lo to hi - 1 do
    meta.((s * stride) + f_next) <- (if s + 1 < hi then s + 1 else nil)
  done

let create () =
  let meta = Array.make (initial_slots * stride) 0 in
  chain meta 0 initial_slots;
  {
    clock = Time.zero;
    meta;
    callbacks = Array.make initial_slots nop;
    labels = Array.make initial_slots Label.event;
    free = 0;
    q = Array.make initial_slots nil;
    qlen = 0;
    tail = nil;
    live = 0;
    next_seq = 0;
    dispatched = 0;
    clock_observed = false;
    on_clock = ignore;
    dispatch_observed = false;
    before = (fun _ _ -> ());
    after = ignore;
    live_hwm = 0;
  }

let now t = t.clock

let observe t ?clock ?before ?after () =
  t.clock_observed <- Option.is_some clock;
  t.on_clock <- Option.value clock ~default:ignore;
  t.dispatch_observed <- Option.is_some before || Option.is_some after;
  t.before <- Option.value before ~default:(fun _ _ -> ());
  t.after <- Option.value after ~default:ignore

(* Every clock advance funnels through here so the observer sees each
   forward move exactly once, before state at the new instant runs. *)
let advance_clock t at =
  if t.clock_observed && Time.( > ) at t.clock then t.on_clock at;
  t.clock <- at

(* Double the slots; called with the free list empty. The slots never
   shrink: they stay sized to the peak of queued events. *)
let grow t =
  let n = Array.length t.callbacks in
  if n >= max_slots then failwith "Engine: more than 2^31 events queued";
  let n' = 2 * n in
  let meta = Array.make (n' * stride) 0 in
  Array.blit t.meta 0 meta 0 (n * stride);
  chain meta n n';
  let callbacks = Array.make n' nop in
  Array.blit t.callbacks 0 callbacks 0 n;
  let labels = Array.make n' Label.event in
  Array.blit t.labels 0 labels 0 n;
  let q = Array.make n' nil in
  Array.blit t.q 0 q 0 t.qlen;
  t.meta <- meta;
  t.callbacks <- callbacks;
  t.labels <- labels;
  t.q <- q;
  t.free <- n

(* Events order by (timestamp, sequence number): FIFO among equal
   timestamps, hence full determinism. [seq] is unique, so this is a
   strict total order and the pop sequence is independent of the heap's
   internal layout — removing an event early cannot reorder the others.
   Every enqueue moves [tail], so the seqs of a run are consecutive
   apart from cancelled events and no other live event sorts between two
   neighbours in a run: a head's successor can take over the head's heap
   slot with no sift. [earlier m at seq s]: does key (at, seq) sort
   before slot [s]? The annotations keep every comparison and array
   access specialized to ints. *)
let[@inline] earlier (m : int array) (at : int) (seq : int) s =
  let b = s * stride in
  let y = Array.unsafe_get m (b + f_at) in
  at < y || (at = y && seq < Array.unsafe_get m (b + f_seq))

let[@inline] before (m : int array) a b =
  earlier m
    (Array.unsafe_get m ((a * stride) + f_at))
    (Array.unsafe_get m ((a * stride) + f_seq))
    b

let[@inline] place (q : int array) (m : int array) i s =
  Array.unsafe_set q i s;
  Array.unsafe_set m ((s * stride) + f_pos) i

(* Hole-based sifts: move elements into the hole and write [s] once,
   instead of repeated swaps. [sift_up] fills hole [i] with [s] or one
   of its ancestors; [sift_down] fills it with [s] or one of its
   descendants within the first [n] entries. Every index read here is
   below [qlen] and every slot in [q] is below the capacity, hence the
   unchecked accesses. *)
let sift_up (q : int array) (m : int array) i s =
  let at = Array.unsafe_get m ((s * stride) + f_at)
  and seq = Array.unsafe_get m ((s * stride) + f_seq) in
  let i = ref i in
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    let p = Array.unsafe_get q parent in
    if earlier m at seq p then begin
      place q m !i p;
      i := parent
    end
    else stop := true
  done;
  place q m !i s

let sift_down (q : int array) (m : int array) n i s =
  let at = Array.unsafe_get m ((s * stride) + f_at)
  and seq = Array.unsafe_get m ((s * stride) + f_seq) in
  let i = ref i in
  let stop = ref false in
  while not !stop do
    let child = (4 * !i) + 1 in
    if child >= n then stop := true
    else begin
      let c = ref child in
      let best = ref (Array.unsafe_get q child) in
      let hi = if child + 4 < n then child + 4 else n in
      for k = child + 1 to hi - 1 do
        let x = Array.unsafe_get q k in
        if before m x !best then begin
          c := k;
          best := x
        end
      done;
      if earlier m at seq !best then stop := true
      else begin
        place q m !i !best;
        i := !c
      end
    end
  done;
  place q m !i s

let heap_push t s =
  let i = t.qlen in
  t.qlen <- i + 1;
  sift_up t.q t.meta i s

(* Empty heap index [i]: the last entry moves into the hole and sifts
   whichever way restores the heap. *)
let remove_at t i =
  let q = t.q and m = t.meta in
  let n = t.qlen - 1 in
  t.qlen <- n;
  let last = q.(n) in
  if i < n then begin
    if i > 0 && before m last q.((i - 1) lsr 2) then sift_up q m i last
    else sift_down q m n i last
  end

(* Free slot [s] once its event has left the queue: drop the callback,
   move the generation on and push the slot on the free list, unless
   its generation is spent. *)
let release t s =
  let m = t.meta in
  let b = s * stride in
  t.callbacks.(s) <- nop;
  let gen = m.(b + f_gen) + 1 in
  m.(b + f_gen) <- gen;
  if gen <= max_gen then begin
    m.(b + f_next) <- t.free;
    t.free <- s
  end

(* Take queued [s] off the queue and free it. A head's successor
   inherits its heap index with no sift, a head without one leaves
   through [remove_at], and a follower is unlinked in O(1). *)
let unqueue t s =
  let m = t.meta in
  let b = s * stride in
  let next = m.(b + f_next) and prev = m.(b + f_prev) in
  if t.tail = s then t.tail <- prev;
  let pos = m.(b + f_pos) in
  if pos >= 0 then begin
    if next = nil then remove_at t pos
    else begin
      m.((next * stride) + f_prev) <- nil;
      place t.q m pos next
    end
  end
  else begin
    m.((prev * stride) + f_next) <- next;
    if next <> nil then m.((next * stride) + f_prev) <- prev
  end;
  t.live <- t.live - m.(b + f_left);
  release t s

let enqueue t ~at ~label ~count callback =
  if t.free = nil then grow t;
  let s = t.free in
  let m = t.meta in
  let b = s * stride in
  let at = (at : Time.t :> int) in
  t.free <- m.(b + f_next);
  m.(b + f_at) <- at;
  m.(b + f_seq) <- t.next_seq;
  m.(b + f_left) <- count;
  m.(b + f_next) <- nil;
  t.callbacks.(s) <- callback;
  (* A reused slot often carries the label it had: skip the barrier. *)
  if t.labels.(s) != label then t.labels.(s) <- label;
  t.next_seq <- t.next_seq + 1;
  let tl = t.tail in
  if tl <> nil && m.((tl * stride) + f_at) = at then begin
    m.((tl * stride) + f_next) <- s;
    m.(b + f_prev) <- tl;
    m.(b + f_pos) <- follower
  end
  else begin
    m.(b + f_prev) <- nil;
    heap_push t s
  end;
  t.tail <- s;
  t.live <- t.live + count;
  if t.live > t.live_hwm then t.live_hwm <- t.live;
  s lor (m.(b + f_gen) lsl slot_bits)

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

(* The queued slot [h] names, or [nil]: its generation must still be
   the one [h] was issued with. *)
let[@inline] slot_of t h =
  let s = h land (max_slots - 1) in
  if
    s < Array.length t.callbacks
    && t.meta.((s * stride) + f_gen) = h lsr slot_bits
  then s
  else nil

let cancel t h =
  let s = slot_of t h in
  if s <> nil then unqueue t s

let is_pending t h = slot_of t h <> nil

let pending t = t.live
let dispatched t = t.dispatched
let pending_high_water t = t.live_hwm
let reset_pending_high_water t = t.live_hwm <- t.live

(* Take the next member of the queue's head [s]: a batch with members
   behind this one keeps its place, anything else leaves the queue. *)
let take t s =
  let b = (s * stride) + f_left in
  let left = t.meta.(b) in
  if left > 1 then begin
    t.meta.(b) <- left - 1;
    t.live <- t.live - 1
  end
  else unqueue t s

(* Dispatch the next member of head [s]. It is taken before its callback
   runs, so a callback that cancels its own event is a no-op, and one
   that cancels its own batch drops the members left. *)
let dispatch t s =
  let at = Time.of_ns t.meta.((s * stride) + f_at) in
  let label = t.labels.(s) and callback = t.callbacks.(s) in
  take t s;
  advance_clock t at;
  t.dispatched <- t.dispatched + 1;
  if t.dispatch_observed then begin
    (* [before] runs ahead of the callback, so on a crash the flight
       recorder's last entry is the event that was executing. *)
    t.before at label;
    (try callback ()
     with exn ->
       t.after label;
       raise (Event_failure (Label.name label, exn)));
    t.after label
  end
  else
    try callback () with exn -> raise (Event_failure (Label.name label, exn))

let step t =
  if t.qlen = 0 then false
  else begin
    dispatch t t.q.(0);
    true
  end

type outcome = Drained | Reached_limit | Reached_until

(* Dispatch until [budget] (negative: unbounded) runs out, the queue
   drains or the next event lies beyond [stop]. A plain function, so a
   run allocates no closure. *)
let rec loop t budget stop =
  if budget = 0 then Reached_limit
  else if t.qlen = 0 then Drained
  else
    let s = t.q.(0) in
    if t.meta.((s * stride) + f_at) > stop then Reached_until
    else begin
      dispatch t s;
      loop t (if budget > 0 then budget - 1 else budget) stop
    end

let run ?until ?max_events t =
  let budget = match max_events with None -> -1 | Some n -> n in
  match until with
  | None -> loop t budget max_int
  | Some stop ->
      let outcome = loop t budget (stop : Time.t :> int) in
      (match outcome with
      | Reached_until | Drained ->
          if Time.( < ) t.clock stop then advance_clock t stop
      | Reached_limit -> ());
      outcome
