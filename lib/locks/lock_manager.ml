let label_grant = Simkit.Label.v Locks "lock.grant"
let label_reentrant = Simkit.Label.v Locks "lock.reentrant"
let label_timeout = Simkit.Label.v Locks "lock.timeout"

module Tbl = Simkit.Tbl.Int

type mode = Shared | Exclusive

let pp_mode ppf = function
  | Shared -> Fmt.string ppf "S"
  | Exclusive -> Fmt.string ppf "X"

let compatible a b =
  match (a, b) with Shared, Shared -> true | _, _ -> false

type waiter = {
  owner : int;
  mode : mode;
  enqueued_at : Simkit.Time.t;
  on_grant : unit -> unit;
  on_timeout : unit -> unit;
  mutable timer : Simkit.Engine.handle;  (* [Engine.none] without a timeout *)
  mutable live : bool;  (* false once granted, timed out or cancelled *)
  mutable span : int;  (* open Obs wait span, -1 when none *)
}

type entry = {
  mutable holders : (int * mode) list;  (* newest first *)
  queue : waiter Queue.t;
  (* Number of queue members with [live = true], maintained at every
     enqueue / grant / timeout / cancel. [release_all] scans the whole
     table once per transaction, so the per-entry liveness test must not
     walk the queue. *)
  mutable live_waiters : int;
}

type stats = {
  acquired : int;
  waited : int;
  timeouts : int;
  total_wait : Simkit.Time.span;
  max_queue : int;
}

type t = {
  engine : Simkit.Engine.t;
  sink : Obs.Sink.t;
  name : string;
  table : entry Tbl.t;
  mutable acquired : int;
  mutable waited : int;
  mutable timeouts : int;
  mutable total_wait : Simkit.Time.span;
  mutable max_queue : int;
}

let create ~engine ?(sink = Obs.Sink.disabled ()) ~name () =
  {
    engine;
    sink;
    name;
    table = Tbl.create 64;
    acquired = 0;
    waited = 0;
    timeouts = 0;
    total_wait = Simkit.Time.zero_span;
    max_queue = 0;
  }

let entry t oid =
  match Tbl.find_opt t.table oid with
  | Some e -> e
  | None ->
      let e = { holders = []; queue = Queue.create (); live_waiters = 0 } in
      Tbl.replace t.table oid e;
      e

let live_queue_length e = e.live_waiters

(* Holder lists are short (one writer or a few readers); these are the
   [List] association functions with owners compared as ints. *)
let rec held_mode owner = function
  | [] -> None
  | (o, mode) :: rest ->
      if Int.equal o owner then Some mode else held_mode owner rest

let rec holds_any owner = function
  | [] -> false
  | (o, _) :: rest -> Int.equal o owner || holds_any owner rest

let rec without owner = function
  | [] -> []
  | ((o, _) as hold) :: rest ->
      if Int.equal o owner then rest else hold :: without owner rest

(* An entry with no holders and no live waiters is indistinguishable
   from an absent one ([entry] recreates exactly this state), so drop it
   from the table. Without pruning the table accumulates one entry per
   oid ever locked, and [release_all] — which runs once per transaction
   — degrades to a scan over every file ever created. Dead waiters
   still parked in [e.queue] are inert: their timers no-op on
   [w.live = false]. *)
let prune t oid e =
  if e.holders = [] && e.live_waiters = 0 then Tbl.remove t.table oid

(* A waiter can be granted when every current holder is compatible —
   except that a holder upgrading Shared -> Exclusive only needs to be the
   sole holder. *)
let grantable e w =
  let self = holds_any w.owner e.holders in
  match (self, w.mode) with
  | true, Exclusive ->
      (* Sole holder: every hold belongs to the upgrader. *)
      List.for_all (fun (o, _) -> o = w.owner) e.holders
  | true, Shared -> true
  | false, m -> List.for_all (fun (_, hm) -> compatible m hm) e.holders

let record_grant t w =
  t.acquired <- t.acquired + 1;
  let now = Simkit.Engine.now t.engine in
  let wait = Simkit.Time.diff now w.enqueued_at in
  if Simkit.Time.span_to_ns wait > 0 then begin
    t.waited <- t.waited + 1;
    t.total_wait <- Simkit.Time.add_span t.total_wait wait
  end

let set_holder e ~owner ~mode =
  e.holders <- (owner, mode) :: without owner e.holders

let grant t oid e w =
  w.live <- false;
  Obs.Tracer.finish t.sink.spans ~time:(Simkit.Engine.now t.engine)
    w.span;
  Simkit.Engine.cancel t.engine w.timer;
  set_holder e ~owner:w.owner ~mode:w.mode;
  record_grant t w;
  if Simkit.Trace.is_recording t.sink.trace then
    Simkit.Trace.emitf t.sink.trace
      ~time:(Simkit.Engine.now t.engine)
      ~source:t.name ~kind:"lock.grant" "txn %d %a oid %d" w.owner pp_mode
      w.mode oid;
  ignore (Simkit.Engine.defer t.engine ~label:label_grant w.on_grant)

(* Grant the longest compatible live prefix of the queue. Upgrades are
   handled naturally: an upgrading waiter at the head is granted as soon
   as the other holders drain. *)
let rec pump t oid e =
  match Queue.peek_opt e.queue with
  | None -> ()
  | Some w when not w.live ->
      ignore (Queue.take e.queue);
      pump t oid e
  | Some w ->
      if grantable e w then begin
        ignore (Queue.take e.queue);
        e.live_waiters <- e.live_waiters - 1;
        grant t oid e w;
        pump t oid e
      end

let acquire t ~owner ~oid ~mode ?timeout ~on_grant
    ?(on_timeout = fun () -> ()) () =
  let e = entry t oid in
  let held = held_mode owner e.holders in
  match (held, mode) with
  | Some Exclusive, _ | Some Shared, Shared ->
      (* Re-entrant, already strong enough. *)
      ignore (Simkit.Engine.defer t.engine ~label:label_reentrant on_grant)
  | (None | Some Shared), _ ->
      let w =
        {
          owner;
          mode;
          enqueued_at = Simkit.Engine.now t.engine;
          on_grant;
          on_timeout;
          timer = Simkit.Engine.none;
          live = true;
          span = -1;
        }
      in
      let empty_queue = live_queue_length e = 0 in
      if empty_queue && grantable e w then grant t oid e w
      else begin
        w.span <-
          Obs.Tracer.start t.sink.spans ~time:w.enqueued_at ~txn:owner
            ~category:Obs.Span.Lock_wait ~track:t.name ~name:"lock.wait";
        Queue.add w e.queue;
        e.live_waiters <- e.live_waiters + 1;
        let depth = live_queue_length e in
        if depth > t.max_queue then t.max_queue <- depth;
        if Simkit.Trace.is_recording t.sink.trace then
          Simkit.Trace.emitf t.sink.trace
            ~time:(Simkit.Engine.now t.engine)
            ~source:t.name ~kind:"lock.wait" "txn %d %a oid %d (depth %d)"
            owner pp_mode mode oid depth;
        match timeout with
        | None -> ()
        | Some span ->
            w.timer <-
              Simkit.Engine.schedule t.engine ~label:label_timeout
                ~after:span (fun () ->
                  if w.live then begin
                    w.live <- false;
                    e.live_waiters <- e.live_waiters - 1;
                    t.timeouts <- t.timeouts + 1;
                    Obs.Tracer.finish t.sink.spans
                      ~time:(Simkit.Engine.now t.engine)
                      w.span;
                    if Simkit.Trace.is_recording t.sink.trace then
                      Simkit.Trace.emitf t.sink.trace
                        ~time:(Simkit.Engine.now t.engine)
                        ~source:t.name ~kind:"lock.timeout" "txn %d oid %d"
                        owner oid;
                    (* The dead waiter may have been blocking the head. *)
                    pump t oid e;
                    prune t oid e;
                    w.on_timeout ()
                  end)
      end

let cancel_waiters t e ~owner =
  if e.live_waiters > 0 then
    Queue.iter
      (fun w ->
        if w.live && w.owner = owner then begin
          w.live <- false;
          e.live_waiters <- e.live_waiters - 1;
          Obs.Tracer.finish t.sink.spans
            ~time:(Simkit.Engine.now t.engine)
            w.span;
          Simkit.Engine.cancel t.engine w.timer
        end)
      e.queue

let release t ~owner ~oid =
  match Tbl.find_opt t.table oid with
  | None -> ()
  | Some e ->
      let had = holds_any owner e.holders in
      e.holders <- without owner e.holders;
      cancel_waiters t e ~owner;
      if had && Simkit.Trace.is_recording t.sink.trace then
        Simkit.Trace.emitf t.sink.trace
          ~time:(Simkit.Engine.now t.engine)
          ~source:t.name ~kind:"lock.release" "txn %d oid %d" owner oid;
      pump t oid e;
      prune t oid e

let release_all t ~owner =
  (* Mutating the table mid-[Tbl.iter] is unspecified, so collect
     the entries that went dead and prune them afterwards. *)
  let dead = ref [] in
  Tbl.iter
    (fun oid e ->
      if holds_any owner e.holders || live_queue_length e > 0 then begin
        e.holders <- without owner e.holders;
        cancel_waiters t e ~owner;
        pump t oid e;
        if e.holders = [] && e.live_waiters = 0 then dead := oid :: !dead
      end)
    t.table;
  List.iter (fun oid -> Tbl.remove t.table oid) !dead

let holds t ~owner ~oid =
  match Tbl.find_opt t.table oid with
  | None -> None
  | Some e -> held_mode owner e.holders

let holders t ~oid =
  match Tbl.find_opt t.table oid with None -> [] | Some e -> e.holders

let queue_length t ~oid =
  match Tbl.find_opt t.table oid with
  | None -> 0
  | Some e -> live_queue_length e

let live_waiters t =
  Tbl.fold (fun _ e acc -> acc + e.live_waiters) t.table 0

let stats t =
  {
    acquired = t.acquired;
    waited = t.waited;
    timeouts = t.timeouts;
    total_wait = t.total_wait;
    max_queue = t.max_queue;
  }
