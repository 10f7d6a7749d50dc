type key = { client : int; request : int }

type reply =
  | Busy
  | Done of Acp.Txn.outcome

type state =
  | Queued
  | Inflight
  | Completed of reply * int  (* reply, completion rank *)

type entry = {
  e_key : key;
  e_op : Mds.Op.t;
  mutable e_state : state;
  mutable waiters : (reply -> unit) list;  (* newest first *)
  mutable execs : int;
}

type t = {
  cluster : Cluster.t;
  max_inflight : int;
  queue_capacity : int;
  entries : (int * int, entry) Hashtbl.t;
  queue : (int * int) Queue.t;
  mutable inflight : int;
  mutable next_rank : int;
  mutable submitted : int;
  mutable admitted : int;
  mutable started : int;
  mutable completed : int;
  mutable replayed : int;
  mutable coalesced : int;
  mutable shed : int;
}

let ikey k = (k.client, k.request)

let create ?(max_inflight = 64) ?(queue_capacity = 256) cluster =
  if max_inflight < 1 then
    invalid_arg "Ingress.create: max_inflight must be positive";
  if queue_capacity < 0 then
    invalid_arg "Ingress.create: negative queue_capacity";
  let t =
    {
      cluster;
      max_inflight;
      queue_capacity;
      entries = Hashtbl.create 1024;
      queue = Queue.create ();
      inflight = 0;
      next_rank = 0;
      submitted = 0;
      admitted = 0;
      started = 0;
      completed = 0;
      replayed = 0;
      coalesced = 0;
      shed = 0;
    }
  in
  Cluster.set_ingress_probe cluster (fun () ->
      (Queue.length t.queue, t.inflight));
  t

let notify entry reply =
  let ws = List.rev entry.waiters in
  entry.waiters <- [];
  List.iter (fun f -> f reply) ws

(* Start the entry in the cluster. Completion may fire synchronously
   (planning failure, coordinator down), so the recursion into the next
   queued entry happens inside [complete]. *)
let rec start t entry =
  entry.e_state <- Inflight;
  entry.execs <- entry.execs + 1;
  t.inflight <- t.inflight + 1;
  t.started <- t.started + 1;
  Metrics.Ledger.incr (Cluster.ledger t.cluster) "ingress.started";
  Cluster.submit t.cluster entry.e_op ~on_done:(fun outcome ->
      complete t entry (Done outcome))

and complete t entry reply =
  (match entry.e_state with
  | Inflight -> ()
  | Queued | Completed _ ->
      invalid_arg "Ingress: completion for an entry not in flight");
  entry.e_state <- Completed (reply, t.next_rank);
  t.next_rank <- t.next_rank + 1;
  t.inflight <- t.inflight - 1;
  t.completed <- t.completed + 1;
  notify entry reply;
  start_next t

and start_next t =
  if t.inflight < t.max_inflight then
    match Queue.take_opt t.queue with
    | None -> ()
    | Some k -> (
        match Hashtbl.find_opt t.entries k with
        | Some ({ e_state = Queued; _ } as entry) -> start t entry
        | Some _ | None ->
            invalid_arg "Ingress: queued key not in Queued state")

let submit t ~key op ~on_reply =
  t.submitted <- t.submitted + 1;
  match Hashtbl.find_opt t.entries (ikey key) with
  | Some entry ->
      if not (Mds.Op.equal entry.e_op op) then
        invalid_arg
          (Fmt.str
             "Ingress.submit: key (%d,%d) reused for a different operation \
              (%a vs %a)"
             key.client key.request Mds.Op.pp op Mds.Op.pp entry.e_op);
      (match entry.e_state with
      | Completed (reply, _) ->
          (* Replay: the cached value itself, so the retried client sees
             the original reply verbatim and nothing re-executes. *)
          t.replayed <- t.replayed + 1;
          Metrics.Ledger.incr (Cluster.ledger t.cluster) "ingress.replayed";
          on_reply reply
      | Queued | Inflight ->
          (* A retry raced the original; ride on it. *)
          t.coalesced <- t.coalesced + 1;
          Metrics.Ledger.incr (Cluster.ledger t.cluster) "ingress.coalesced";
          entry.waiters <- on_reply :: entry.waiters)
  | None ->
      if t.inflight >= t.max_inflight && Queue.length t.queue >= t.queue_capacity
      then begin
        (* Shed before planning: no inode allocation, no transaction, no
           trace of the request anywhere in the MDS. *)
        t.shed <- t.shed + 1;
        Metrics.Ledger.incr (Cluster.ledger t.cluster) "ingress.shed";
        on_reply Busy
      end
      else begin
        let entry =
          {
            e_key = key;
            e_op = op;
            e_state = Queued;
            waiters = [ on_reply ];
            execs = 0;
          }
        in
        Hashtbl.replace t.entries (ikey key) entry;
        t.admitted <- t.admitted + 1;
        Metrics.Ledger.incr (Cluster.ledger t.cluster) "ingress.admitted";
        if t.inflight < t.max_inflight then start t entry
        else Queue.push (ikey key) t.queue
      end

let find_reply t ~key =
  match Hashtbl.find_opt t.entries (ikey key) with
  | Some { e_state = Completed (reply, _); _ } -> Some reply
  | Some _ | None -> None

let executions t ~key =
  match Hashtbl.find_opt t.entries (ikey key) with
  | Some e -> e.execs
  | None -> 0

let completed_in_order t =
  Hashtbl.fold
    (fun _ e acc ->
      match e.e_state with
      | Completed (Done outcome, rank) -> (rank, (e.e_key, e.e_op, outcome)) :: acc
      | Completed (Busy, _) | Queued | Inflight -> acc)
    t.entries []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

type stats = {
  submitted : int;
  admitted : int;
  started : int;
  completed : int;
  replayed : int;
  coalesced : int;
  shed : int;
  queue_len : int;
  inflight : int;
}

let stats (t : t) =
  {
    submitted = t.submitted;
    admitted = t.admitted;
    started = t.started;
    completed = t.completed;
    replayed = t.replayed;
    coalesced = t.coalesced;
    shed = t.shed;
    queue_len = Queue.length t.queue;
    inflight = t.inflight;
  }
