type node = {
  server : int;
  up : bool;
  wal : Storage.Wal.stats;
  locks : Locks.Lock_manager.stats;
  outstanding : int;
}

type t = {
  at : Simkit.Time.t;
  committed : int;
  aborted : int;
  reads : int;
  latency_mean : Simkit.Time.span;
  latency_p50 : Simkit.Time.span;
  latency_p95 : Simkit.Time.span;
  latency_max : Simkit.Time.span;
  mean_lock_hold : Simkit.Time.span;
  network : Netsim.Network.stats;
  disk : Storage.Disk.stats;
  nodes : node list;
  ledger : (string * int) list;
  mttr : Obs.Mttr.window list;
}

let collect cluster =
  let committed, aborted = Cluster.txn_counts cluster in
  let latency = Cluster.latency_committed cluster in
  {
    at = Cluster.now cluster;
    committed;
    aborted;
    reads = Metrics.Ledger.get (Cluster.ledger cluster) "txn.read";
    latency_mean = Metrics.Histogram.mean latency;
    latency_p50 = Metrics.Histogram.percentile latency 50.0;
    latency_p95 = Metrics.Histogram.percentile latency 95.0;
    latency_max = Metrics.Histogram.max_value latency;
    mean_lock_hold = Metrics.Histogram.mean (Cluster.lock_hold cluster);
    network = Netsim.Network.stats (Cluster.network cluster);
    disk =
      (let sum a (b : Storage.Disk.stats) =
         {
           Storage.Disk.requests_completed =
             a.Storage.Disk.requests_completed + b.Storage.Disk.requests_completed;
           bytes_transferred =
             a.Storage.Disk.bytes_transferred + b.Storage.Disk.bytes_transferred;
           requests_dropped =
             a.Storage.Disk.requests_dropped + b.Storage.Disk.requests_dropped;
           requests_rejected =
             a.Storage.Disk.requests_rejected + b.Storage.Disk.requests_rejected;
           busy_time =
             Simkit.Time.add_span a.Storage.Disk.busy_time
               b.Storage.Disk.busy_time;
         }
       in
       match
         List.map Storage.Disk.stats
           (Storage.San.devices (Cluster.san cluster))
       with
       | [] -> invalid_arg "Report.collect: no devices"
       | first :: rest -> List.fold_left sum first rest);
    nodes =
      Array.to_list
        (Array.map
           (fun n ->
             {
               server = Node.server n;
               up = Node.is_up n;
               wal = Storage.Wal.stats (Node.wal n);
               locks = Locks.Lock_manager.stats (Node.locks n);
               outstanding = Node.outstanding n;
             })
           (Cluster.nodes cluster));
    ledger = Metrics.Ledger.snapshot (Cluster.ledger cluster);
    mttr =
      Obs.Mttr.windows (Obs.Journal.entries (Cluster.sink cluster).journal);
  }

let pp ppf r =
  let span = Simkit.Time.pp_span in
  Fmt.pf ppf "@[<v>simulated time %a@," Simkit.Time.pp r.at;
  Fmt.pf ppf "transactions: %d committed, %d aborted, %d reads@," r.committed
    r.aborted r.reads;
  Fmt.pf ppf
    "commit latency: mean %a, p50 %a, p95 %a, max %a; mean lock hold %a@,"
    span r.latency_mean span r.latency_p50 span r.latency_p95 span
    r.latency_max span r.mean_lock_hold;
  Fmt.pf ppf
    "network: %d sent, %d delivered, dropped %d loss / %d down / %d \
     partition@,"
    r.network.Netsim.Network.sent r.network.Netsim.Network.delivered
    r.network.Netsim.Network.dropped_loss r.network.Netsim.Network.dropped_down
    r.network.Netsim.Network.dropped_partition;
  Fmt.pf ppf "disk: %d transfers, %dB, busy %a, %d dropped, %d rejected@,"
    r.disk.Storage.Disk.requests_completed r.disk.Storage.Disk.bytes_transferred
    span r.disk.Storage.Disk.busy_time r.disk.Storage.Disk.requests_dropped
    r.disk.Storage.Disk.requests_rejected;
  List.iter
    (fun n ->
      Fmt.pf ppf
        "mds%d: %s, %d sync / %d async writes, %d lock acquisitions (%d \
         waited, %d timeouts), %d outstanding@,"
        n.server
        (if n.up then "up" else "down")
        n.wal.Storage.Wal.sync_writes n.wal.Storage.Wal.async_writes
        n.locks.Locks.Lock_manager.acquired n.locks.Locks.Lock_manager.waited
        n.locks.Locks.Lock_manager.timeouts n.outstanding)
    r.nodes;
  if r.mttr <> [] then begin
    Fmt.pf ppf "recovery windows:@,";
    List.iter (fun w -> Fmt.pf ppf "  %a@," Obs.Mttr.pp w) r.mttr
  end;
  Fmt.pf ppf "ledger:@,";
  List.iter (fun (k, v) -> Fmt.pf ppf "  %-28s %d@," k v) r.ledger;
  Fmt.pf ppf "@]"

let print r = Fmt.pr "%a@." pp r
