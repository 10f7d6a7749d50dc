(* Per-layer counts, read from the public stats of every cluster a run
   builds and summed over them. *)

open Opc

type t = {
  mutable clusters : int;
  mutable events : int;
  mutable pending_hwm : int;
  mutable sent : int;
  mutable dropped : int;
  mutable heartbeats : int;  (* Meter HEARTBEAT tag; traced runs only *)
  mutable metered : int;  (* every Meter tag; traced runs only *)
  mutable imbalanced_tags : int;  (* Meter.check failures *)
  mutable disk_requests : int;
  mutable disk_bytes : int;
  mutable device_util : float;  (* max over devices of busy / elapsed *)
  mutable lock_acquired : int;
  mutable lock_waited : int;
  mutable lock_timeouts : int;
  mutable lock_wait_ns : int;
  mutable lock_max_queue : int;
  mutable inodes : int;
  ledger : (string, int) Hashtbl.t;
  prof : (string, int) Hashtbl.t;  (* event label -> CPU ns; traced runs *)
  mutable prof_total_ns : int;
  mutable prof_residual_ns : int;
  edge_hits : int array;  (* traced runs only *)
}

let create () =
  {
    clusters = 0;
    events = 0;
    pending_hwm = 0;
    sent = 0;
    dropped = 0;
    heartbeats = 0;
    metered = 0;
    imbalanced_tags = 0;
    disk_requests = 0;
    disk_bytes = 0;
    device_util = 0.;
    lock_acquired = 0;
    lock_waited = 0;
    lock_timeouts = 0;
    lock_wait_ns = 0;
    lock_max_queue = 0;
    inodes = 0;
    ledger = Hashtbl.create 16;
    prof = Hashtbl.create 64;
    prof_total_ns = 0;
    prof_residual_ns = 0;
    edge_hits = Array.make Acp.Edges.count 0;
  }

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let get tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key)

let ledger_keys =
  [
    "msg.acp"; "log.sync"; "acp.fence"; "acp.stale_nack"; "txn.fallback";
    "txn.rejected"; "reply.duplicate";
  ]

(* Add one quiescent cluster's counts. *)
let observe t cluster =
  let engine = Cluster.engine cluster in
  t.clusters <- t.clusters + 1;
  t.events <- t.events + Simkit.Engine.dispatched engine;
  t.pending_hwm <- max t.pending_hwm (Simkit.Engine.pending_high_water engine);
  let net = Netsim.Network.stats (Cluster.network cluster) in
  t.sent <- t.sent + net.Netsim.Network.sent;
  t.dropped <-
    t.dropped + net.dropped_loss + net.dropped_down + net.dropped_partition;
  let meter = Cluster.meter cluster in
  if Netsim.Network.Meter.is_recording meter then begin
    for tag = 0 to Netsim.Network.Meter.tags meter - 1 do
      t.metered <- t.metered + Netsim.Network.Meter.sent meter tag
    done;
    t.heartbeats <-
      t.heartbeats + Netsim.Network.Meter.sent meter Acp.Codec.tag_count;
    t.imbalanced_tags <-
      t.imbalanced_tags + List.length (Netsim.Network.Meter.check meter)
  end;
  let elapsed = Simkit.Time.to_ns (Cluster.now cluster) in
  List.iter
    (fun disk ->
      let s = Storage.Disk.stats disk in
      t.disk_requests <- t.disk_requests + s.Storage.Disk.requests_completed;
      t.disk_bytes <- t.disk_bytes + s.bytes_transferred;
      if elapsed > 0 then
        t.device_util <-
          Float.max t.device_util
            (float_of_int (Simkit.Time.span_to_ns s.busy_time)
            /. float_of_int elapsed))
    (Storage.San.devices (Cluster.san cluster));
  Array.iter
    (fun node ->
      let s = Locks.Lock_manager.stats (Node.locks node) in
      t.lock_acquired <- t.lock_acquired + s.Locks.Lock_manager.acquired;
      t.lock_waited <- t.lock_waited + s.waited;
      t.lock_timeouts <- t.lock_timeouts + s.timeouts;
      t.lock_wait_ns <- t.lock_wait_ns + Simkit.Time.span_to_ns s.total_wait;
      t.lock_max_queue <- max t.lock_max_queue s.max_queue;
      t.inodes <-
        t.inodes
        + List.length (Mds.State.inodes (Mds.Store.durable (Node.store node))))
    (Cluster.nodes cluster);
  let ledger = Cluster.ledger cluster in
  List.iter (fun k -> bump t.ledger k (Metrics.Ledger.get ledger k)) ledger_keys;
  let prof = Cluster.prof cluster in
  if Obs.Prof.is_recording prof then begin
    let r = Obs.Prof.report prof in
    t.prof_total_ns <- t.prof_total_ns + r.Obs.Prof.total_cpu_ns;
    t.prof_residual_ns <- t.prof_residual_ns + r.residual_cpu_ns;
    List.iter
      (fun (b : Obs.Prof.bucket) -> bump t.prof b.label b.cpu_ns)
      r.buckets
  end;
  Obs.Coverage.merge_into ~acc:t.edge_hits (Cluster.coverage cluster)

let merge ts =
  let acc = create () in
  List.iter
    (fun t ->
      acc.clusters <- acc.clusters + t.clusters;
      acc.events <- acc.events + t.events;
      acc.pending_hwm <- max acc.pending_hwm t.pending_hwm;
      acc.sent <- acc.sent + t.sent;
      acc.dropped <- acc.dropped + t.dropped;
      acc.heartbeats <- acc.heartbeats + t.heartbeats;
      acc.metered <- acc.metered + t.metered;
      acc.imbalanced_tags <- acc.imbalanced_tags + t.imbalanced_tags;
      acc.disk_requests <- acc.disk_requests + t.disk_requests;
      acc.disk_bytes <- acc.disk_bytes + t.disk_bytes;
      acc.device_util <- Float.max acc.device_util t.device_util;
      acc.lock_acquired <- acc.lock_acquired + t.lock_acquired;
      acc.lock_waited <- acc.lock_waited + t.lock_waited;
      acc.lock_timeouts <- acc.lock_timeouts + t.lock_timeouts;
      acc.lock_wait_ns <- acc.lock_wait_ns + t.lock_wait_ns;
      acc.lock_max_queue <- max acc.lock_max_queue t.lock_max_queue;
      acc.inodes <- acc.inodes + t.inodes;
      Hashtbl.iter (bump acc.ledger) t.ledger;
      Hashtbl.iter (bump acc.prof) t.prof;
      acc.prof_total_ns <- acc.prof_total_ns + t.prof_total_ns;
      acc.prof_residual_ns <- acc.prof_residual_ns + t.prof_residual_ns;
      Array.iteri (fun i n -> acc.edge_hits.(i) <- acc.edge_hits.(i) + n)
        t.edge_hits)
    ts;
  acc

(* Share of profiled CPU booked to these event labels. The labels name
   the event that carried the work, and [net.deliver] and
   [disk.complete] run the handlers they deliver to, so a share is
   label attribution, not layer self-time. *)
let prof_share t labels =
  if t.prof_total_ns = 0 then 0.
  else
    float_of_int (List.fold_left (fun acc l -> acc + get t.prof l) 0 labels)
    /. float_of_int t.prof_total_ns

let edge_coverage t protocol =
  let edges = Acp.Edges.of_protocol protocol in
  let hit =
    List.length
      (List.filter (fun (e : Acp.Edges.edge) -> t.edge_hits.(e.id) > 0) edges)
  in
  float_of_int hit /. float_of_int (List.length edges)
