type fig6_point = {
  protocol : Acp.Protocol.kind;
  throughput : float;
  committed : int;
  aborted : int;
  mean_latency : Simkit.Time.span;
  mean_lock_hold : Simkit.Time.span;
}

let paper_fig6 = function
  | Acp.Protocol.Prn -> 15.0
  | Acp.Protocol.Prc -> 15.06
  | Acp.Protocol.Ep -> 16.0
  | Acp.Protocol.Opc -> 24.0
  (* The paper stops at 1PC. L1PC removes 1PC's two log forces, and in
     this disk-bound regime the figure is set by the shared spindle, so
     the published 1PC number is the reference its series is read
     against (the measured column shows the actual gap). *)
  | Acp.Protocol.Lp1 -> 24.0

let fig6_config =
  {
    Opc_cluster.Config.default with
    servers = 4;
    placement = Mds.Placement.Spread;
    txn_timeout = Simkit.Time.span_s 120;
    record_trace = false;
  }

let run_fig6_point ?(config = fig6_config) ?(count = 100) protocol =
  let config = { config with Opc_cluster.Config.protocol } in
  let cluster = Opc_cluster.Cluster.create config in
  let dir =
    Opc_cluster.Cluster.add_directory cluster
      ~parent:(Opc_cluster.Cluster.root cluster)
      ~name:"data" ~server:0 ()
  in
  let wl = Workload.storm cluster ~dir ~count () in
  (match Opc_cluster.Cluster.settle ~deadline:(Simkit.Time.span_s 3600) cluster with
  | Opc_cluster.Cluster.Quiescent -> ()
  | Opc_cluster.Cluster.Deadline_exceeded ->
      failwith "fig6: cluster did not settle before the deadline"
  | Opc_cluster.Cluster.Stuck -> failwith "fig6: cluster is stuck");
  let stats = Workload.stats wl in
  {
    protocol;
    throughput = Workload.throughput_per_s stats;
    committed = stats.Workload.committed;
    aborted = stats.Workload.aborted;
    mean_latency =
      Metrics.Histogram.mean (Opc_cluster.Cluster.latency_committed cluster);
    mean_lock_hold =
      Metrics.Histogram.mean (Opc_cluster.Cluster.lock_hold cluster);
  }

let run_fig6 ?config ?count () =
  List.map (fun k -> run_fig6_point ?config ?count k) Acp.Protocol.all

type measured_costs = {
  kind : Acp.Protocol.kind;
  sync_writes_per_txn : float;
  async_writes_per_txn : float;
  acp_messages_per_txn : float;
}

let run_table1_measured ?(config = fig6_config) ?(count = 20) protocol =
  let config = { config with Opc_cluster.Config.protocol } in
  let cluster = Opc_cluster.Cluster.create config in
  let dir =
    Opc_cluster.Cluster.add_directory cluster
      ~parent:(Opc_cluster.Cluster.root cluster)
      ~name:"data" ~server:0 ()
  in
  (* Warm-up: one transaction outside the measurement window. *)
  Opc_cluster.Cluster.submit cluster
    (Mds.Op.create_file ~parent:dir ~name:"warmup")
    ~on_done:(fun _ -> ());
  (match Opc_cluster.Cluster.settle cluster with
  | Opc_cluster.Cluster.Quiescent -> ()
  | _ -> failwith "table1: warm-up did not settle");
  let before =
    Metrics.Ledger.snapshot (Opc_cluster.Cluster.ledger cluster)
  in
  (* One at a time, so per-transaction division is exact. *)
  let rec one i =
    if i < count then
      Opc_cluster.Cluster.submit cluster
        (Mds.Op.create_file ~parent:dir ~name:(Printf.sprintf "t1_%d" i))
        ~on_done:(fun outcome ->
          match outcome with
          | Acp.Txn.Committed -> one (i + 1)
          | Acp.Txn.Aborted reason ->
              failwith ("table1: unexpected abort: " ^ reason))
  in
  one 0;
  (match Opc_cluster.Cluster.settle cluster with
  | Opc_cluster.Cluster.Quiescent -> ()
  | _ -> failwith "table1: run did not settle");
  let diff =
    Metrics.Ledger.diff ~after:(Opc_cluster.Cluster.ledger cluster) ~before
  in
  let get k = match List.assoc_opt k diff with Some v -> v | None -> 0 in
  let per k = float_of_int (get k) /. float_of_int count in
  {
    kind = protocol;
    sync_writes_per_txn = per "log.sync";
    async_writes_per_txn = per "log.async";
    acp_messages_per_txn = per "msg.acp";
  }

type breakdown_point = {
  kind : Acp.Protocol.kind;
  summary : Obs.Breakdown.summary;
  tracer : Obs.Tracer.t;
}

let run_breakdown ?(config = fig6_config) ?(count = 20) protocol =
  let config =
    { config with Opc_cluster.Config.protocol; record_spans = true }
  in
  let cluster = Opc_cluster.Cluster.create config in
  let dir =
    Opc_cluster.Cluster.add_directory cluster
      ~parent:(Opc_cluster.Cluster.root cluster)
      ~name:"data" ~server:0 ()
  in
  (* Warm-up: one transaction outside the measurement window. *)
  Opc_cluster.Cluster.submit cluster
    (Mds.Op.create_file ~parent:dir ~name:"warmup")
    ~on_done:(fun _ -> ());
  (match Opc_cluster.Cluster.settle cluster with
  | Opc_cluster.Cluster.Quiescent -> ()
  | _ -> failwith "breakdown: warm-up did not settle");
  let since = Opc_cluster.Cluster.now cluster in
  (* Fully isolated transactions: settle (not just reply) between
     submissions, so no trailing work of one transaction — post-reply
     commit forces, asynchronous appends — occupies the shared device
     when the next one starts. Table I's critical-path counts describe
     exactly this regime; back-to-back pipelining would put a
     neighbour's queueing on the measured path. *)
  for i = 0 to count - 1 do
    Opc_cluster.Cluster.submit cluster
      (Mds.Op.create_file ~parent:dir ~name:(Printf.sprintf "bd_%d" i))
      ~on_done:(fun outcome ->
        match outcome with
        | Acp.Txn.Committed -> ()
        | Acp.Txn.Aborted reason ->
            failwith ("breakdown: unexpected abort: " ^ reason));
    match Opc_cluster.Cluster.settle cluster with
    | Opc_cluster.Cluster.Quiescent -> ()
    | _ -> failwith "breakdown: run did not settle"
  done;
  let tracer = (Opc_cluster.Cluster.sink cluster).spans in
  let paths = Obs.Breakdown.paths ~since tracer in
  { kind = protocol; summary = Obs.Breakdown.summarize paths; tracer }

(* The canonical worker-side rejection: deleting a directory whose
   entry lives on the coordinator but whose (non-empty) inode lives on
   the worker. Planning succeeds — only the worker's Unref can see the
   children — so the abort happens inside the protocol, where Table-I
   style accounting applies. *)
let run_abort_measured ?(config = fig6_config) ?(count = 20) protocol =
  let config = { config with Opc_cluster.Config.protocol } in
  let cluster = Opc_cluster.Cluster.create config in
  let root = Opc_cluster.Cluster.root cluster in
  let dir =
    Opc_cluster.Cluster.add_directory cluster ~parent:root ~name:"data"
      ~server:0 ()
  in
  let sub =
    Opc_cluster.Cluster.add_directory cluster ~parent:dir ~name:"sub"
      ~server:1 ()
  in
  let _child =
    Opc_cluster.Cluster.add_directory cluster ~parent:sub ~name:"child" ()
  in
  let delete_sub ~k =
    Opc_cluster.Cluster.submit cluster
      (Mds.Op.delete ~parent:dir ~name:"sub")
      ~on_done:(fun outcome ->
        match outcome with
        | Acp.Txn.Aborted _ -> k ()
        | Acp.Txn.Committed -> failwith "abort experiment: unexpected commit")
  in
  (* Warm-up outside the measurement window. *)
  delete_sub ~k:(fun () -> ());
  (match Opc_cluster.Cluster.settle cluster with
  | Opc_cluster.Cluster.Quiescent -> ()
  | _ -> failwith "abort run: warm-up did not settle");
  let before =
    Metrics.Ledger.snapshot (Opc_cluster.Cluster.ledger cluster)
  in
  let rec one i = if i < count then delete_sub ~k:(fun () -> one (i + 1)) in
  one 0;
  (match Opc_cluster.Cluster.settle cluster with
  | Opc_cluster.Cluster.Quiescent -> ()
  | _ -> failwith "abort run: did not settle");
  let diff =
    Metrics.Ledger.diff ~after:(Opc_cluster.Cluster.ledger cluster) ~before
  in
  let get k = match List.assoc_opt k diff with Some v -> v | None -> 0 in
  let per k = float_of_int (get k) /. float_of_int count in
  {
    kind = protocol;
    sync_writes_per_txn = per "log.sync";
    async_writes_per_txn = per "log.async";
    acp_messages_per_txn = per "msg.acp";
  }

type sweep_point = { x : float; series : (Acp.Protocol.kind * float) list }

let sweep ~xs ~config_of ?(count = 100) () =
  List.map
    (fun x ->
      let series =
        List.map
          (fun kind ->
            let p = run_fig6_point ~config:(config_of x) ~count kind in
            (kind, p.throughput))
          Acp.Protocol.all
      in
      { x; series })
    xs

let sweep_disk_bandwidth
    ?(bandwidths = [ 100; 200; 400; 800; 1600; 3200; 6400 ]) ?count () =
  let config_of kbps =
    {
      fig6_config with
      Opc_cluster.Config.san =
        {
          fig6_config.Opc_cluster.Config.san with
          Storage.San.disk =
            {
              fig6_config.Opc_cluster.Config.san.Storage.San.disk with
              Storage.Disk.bandwidth_bytes_per_s = kbps * 1000;
            };
        };
    }
  in
  sweep
    ~xs:(List.map float_of_int bandwidths)
    ~config_of:(fun x -> config_of (int_of_float x))
    ?count ()

let sweep_network_latency
    ?(latencies_us = [ 10; 50; 100; 500; 1000; 5000; 10000 ]) ?count () =
  let config_of us =
    {
      fig6_config with
      Opc_cluster.Config.network =
        {
          fig6_config.Opc_cluster.Config.network with
          Netsim.Network.latency = Simkit.Time.span_us us;
        };
    }
  in
  sweep
    ~xs:(List.map float_of_int latencies_us)
    ~config_of:(fun x -> config_of (int_of_float x))
    ?count ()

let sweep_concurrency ?(counts = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 ])
    () =
  List.map
    (fun count ->
      let series =
        List.map
          (fun kind ->
            let p = run_fig6_point ~config:fig6_config ~count kind in
            (kind, p.throughput))
          Acp.Protocol.all
      in
      { x = float_of_int count; series })
    counts

let sweep_colocation ?(probabilities = [ 0.0; 0.25; 0.5; 0.75; 0.9; 1.0 ])
    ?count () =
  let config_of p =
    { fig6_config with Opc_cluster.Config.placement = Mds.Placement.Colocate p }
  in
  sweep ~xs:probabilities ~config_of ?count ()

let run_batched_point ?(config = fig6_config) ?(count = 100) ~batch protocol =
  let config = { config with Opc_cluster.Config.protocol } in
  let cluster = Opc_cluster.Cluster.create config in
  let dir =
    Opc_cluster.Cluster.add_directory cluster
      ~parent:(Opc_cluster.Cluster.root cluster)
      ~name:"data" ~server:0 ()
  in
  let batcher =
    Opc_cluster.Batching.create cluster ~window:(Simkit.Time.span_ms 1)
      ~max_batch:batch
  in
  let committed = ref 0 and aborted = ref 0 in
  let first = Opc_cluster.Cluster.now cluster in
  let last = ref first in
  for i = 0 to count - 1 do
    Opc_cluster.Batching.submit batcher
      (Mds.Op.create_file ~parent:dir ~name:(Printf.sprintf "b%d" i))
      ~on_done:(fun outcome ->
        last := Opc_cluster.Cluster.now cluster;
        match outcome with
        | Acp.Txn.Committed -> incr committed
        | Acp.Txn.Aborted _ -> incr aborted)
  done;
  Opc_cluster.Batching.flush_all batcher;
  (match
     Opc_cluster.Cluster.settle ~deadline:(Simkit.Time.span_s 3600) cluster
   with
  | Opc_cluster.Cluster.Quiescent -> ()
  | _ -> failwith "batched storm did not settle");
  let span = Simkit.Time.span_to_float_s (Simkit.Time.diff !last first) in
  {
    protocol;
    throughput =
      (if span > 0.0 then float_of_int !committed /. span else 0.0);
    committed = !committed;
    aborted = !aborted;
    mean_latency =
      Metrics.Histogram.mean (Opc_cluster.Cluster.latency_committed cluster);
    mean_lock_hold =
      Metrics.Histogram.mean (Opc_cluster.Cluster.lock_hold cluster);
  }

let run_multi_dir_point ~config ~count ~dirs:dir_count protocol =
  let config = { config with Opc_cluster.Config.protocol } in
  let cluster = Opc_cluster.Cluster.create config in
  let root = Opc_cluster.Cluster.root cluster in
  let dirs =
    Array.init dir_count (fun i ->
        Opc_cluster.Cluster.add_directory cluster ~parent:root
          ~name:(Printf.sprintf "data%d" i)
          ~server:(i mod config.Opc_cluster.Config.servers)
          ())
  in
  let committed = ref 0 in
  let first = Opc_cluster.Cluster.now cluster in
  let last = ref first in
  for i = 0 to count - 1 do
    Opc_cluster.Cluster.submit cluster
      (Mds.Op.create_file
         ~parent:dirs.(i mod dir_count)
         ~name:(Printf.sprintf "f%d" i))
      ~on_done:(fun outcome ->
        last := Opc_cluster.Cluster.now cluster;
        match outcome with
        | Acp.Txn.Committed -> incr committed
        | Acp.Txn.Aborted _ -> ())
  done;
  (match
     Opc_cluster.Cluster.settle ~deadline:(Simkit.Time.span_s 3600) cluster
   with
  | Opc_cluster.Cluster.Quiescent -> ()
  | _ -> failwith "multi-dir storm did not settle");
  let span = Simkit.Time.span_to_float_s (Simkit.Time.diff !last first) in
  if span > 0.0 then float_of_int !committed /. span else 0.0

let sweep_directories ?(dir_counts = [ 1; 2; 4 ]) ?(count = 100)
    ?(independent_disks = false) () =
  let config =
    if independent_disks then
      {
        fig6_config with
        Opc_cluster.Config.san =
          {
            fig6_config.Opc_cluster.Config.san with
            Storage.San.shared_device = false;
          };
      }
    else fig6_config
  in
  List.map
    (fun dirs ->
      let series =
        List.map
          (fun kind -> (kind, run_multi_dir_point ~config ~count ~dirs kind))
          Acp.Protocol.all
      in
      { x = float_of_int dirs; series })
    dir_counts

let compare_group_commit ?(count = 100) () =
  let grouped_config =
    {
      fig6_config with
      Opc_cluster.Config.san =
        { fig6_config.Opc_cluster.Config.san with Storage.San.group_commit = true };
    }
  in
  List.map
    (fun kind ->
      let plain = (run_fig6_point ~count kind).throughput in
      let grouped =
        (run_fig6_point ~config:grouped_config ~count kind).throughput
      in
      (kind, plain, grouped))
    Acp.Protocol.all

let compare_shared_vs_independent ?(count = 100) () =
  let independent_config =
    {
      fig6_config with
      Opc_cluster.Config.san =
        { fig6_config.Opc_cluster.Config.san with Storage.San.shared_device = false };
    }
  in
  List.map
    (fun kind ->
      let shared = (run_fig6_point ~count kind).throughput in
      let independent =
        (run_fig6_point ~config:independent_config ~count kind).throughput
      in
      (kind, shared, independent))
    Acp.Protocol.all

(* ------------------------------------------------------------------ *)
(* Scale campaign                                                      *)
(* ------------------------------------------------------------------ *)

type scale_point = {
  protocol : Acp.Protocol.kind;
  servers : int;
  submitted : int;
  committed : int;
  aborted : int;
  events : int;
  sim_elapsed : Simkit.Time.span;
  ops_per_s : float;
  latency_p50 : Simkit.Time.span;
  latency_p95 : Simkit.Time.span;
  latency_p99 : Simkit.Time.span;
  profile : Obs.Prof.report option;
}

let scale_config ~servers ~seed =
  {
    fig6_config with
    Opc_cluster.Config.servers;
    seed;
    txn_timeout = Simkit.Time.span_s 60;
    (* One log device per server: the sharded-store regime where
       coordinator count is the scaling axis, not a single spindle. *)
    san =
      {
        fig6_config.Opc_cluster.Config.san with
        Storage.San.shared_device = false;
      };
  }

let run_scale_point ?config ?(clients_per_server = 2) ~servers ~txns ~seed
    protocol =
  let config =
    match config with
    | Some c -> { c with Opc_cluster.Config.protocol; servers; seed }
    | None ->
        { (scale_config ~servers ~seed) with Opc_cluster.Config.protocol }
  in
  let cluster = Opc_cluster.Cluster.create config in
  let root = Opc_cluster.Cluster.root cluster in
  let dirs =
    Array.init servers (fun i ->
        Opc_cluster.Cluster.add_directory cluster ~parent:root
          ~name:(Printf.sprintf "scale%d" i)
          ~server:i ())
  in
  let clients = clients_per_server * servers in
  let ops_per_client = max 1 (txns / clients) in
  let rng = Simkit.Rng.create ~seed in
  (* Create/delete only (renames can deadlock and stall on the lock
     timeout — noise, not throughput) over uniformly chosen directories:
     every server coordinates an equal share. *)
  let mix =
    {
      Workload.create_weight = 70;
      delete_weight = 25;
      rename_weight = 0;
      lookup_weight = 5;
    }
  in
  let wl =
    Workload.closed_loop cluster ~dirs ~clients ~ops_per_client ~mix
      ~zipf_s:0.0 ~rng ()
  in
  (match
     Opc_cluster.Cluster.settle ~deadline:(Simkit.Time.span_s 86_400) cluster
   with
  | Opc_cluster.Cluster.Quiescent -> ()
  | Opc_cluster.Cluster.Deadline_exceeded ->
      failwith "scale: cluster did not settle before the deadline"
  | Opc_cluster.Cluster.Stuck -> failwith "scale: cluster is stuck");
  let stats = Workload.stats wl in
  let sim_elapsed =
    Simkit.Time.diff stats.Workload.last_reply stats.Workload.first_submit
  in
  let p50, p95, p99 =
    match
      Metrics.Histogram.quantiles
        (Opc_cluster.Cluster.latency_committed cluster)
        [ 0.50; 0.95; 0.99 ]
    with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  {
    protocol;
    servers;
    submitted = stats.Workload.submitted;
    committed = stats.Workload.committed;
    aborted = stats.Workload.aborted;
    events = Simkit.Engine.dispatched (Opc_cluster.Cluster.engine cluster);
    sim_elapsed;
    ops_per_s = Workload.throughput_per_s stats;
    latency_p50 = p50;
    latency_p95 = p95;
    latency_p99 = p99;
    profile =
      (let prof = (Opc_cluster.Cluster.sink cluster).prof in
       if Obs.Prof.is_recording prof then Some (Obs.Prof.report prof)
       else None);
  }

let sweep_batching ?(batch_sizes = [ 1; 2; 4; 8; 16; 32 ]) ?(count = 100) () =
  List.map
    (fun batch ->
      let series =
        List.map
          (fun kind ->
            let p = run_batched_point ~count ~batch kind in
            (kind, p.throughput))
          Acp.Protocol.all
      in
      { x = float_of_int batch; series })
    batch_sizes

(* ------------------------------------------------------------------ *)
(* Recovery timeline                                                   *)
(* ------------------------------------------------------------------ *)

type timeline_point = {
  kind : Acp.Protocol.kind;
  committed : int;
  aborted : int;
  crash_server : int;
  crash_time : Simkit.Time.t;
  journal : Obs.Journal.entry list;
  series : Obs.Timeseries.t;
  windows : Obs.Mttr.window list;
}

let timeline_config =
  {
    fig6_config with
    Opc_cluster.Config.txn_timeout = Simkit.Time.span_ms 300;
    heartbeat_interval = Simkit.Time.span_ms 20;
    detector_timeout = Simkit.Time.span_ms 100;
    restart_delay = Simkit.Time.span_ms 50;
    auto_restart = true;
    record_journal = true;
    sample_period = Some (Simkit.Time.span_ms 5);
  }

let crash_run ?(config = timeline_config) ?(seed = 1) ?(crash_server = 1)
    ?(crash_at_ms = 100) ?(before_crash = fun _ _ -> ()) protocol =
  let config = { config with Opc_cluster.Config.protocol; seed } in
  let cluster = Opc_cluster.Cluster.create config in
  let root = Opc_cluster.Cluster.root cluster in
  let servers = config.Opc_cluster.Config.servers in
  let dirs =
    Array.init servers (fun i ->
        Opc_cluster.Cluster.add_directory cluster ~parent:root
          ~name:(Printf.sprintf "d%d" i) ~server:i ())
  in
  (* Same stream derivation as the chaos runner, so a timeline run with
     the chaos defaults reproduces a chaos run's workload exactly. *)
  ignore
    (Workload.closed_loop cluster ~dirs ~clients:6 ~ops_per_client:15
       ~mix:Chaos.Runner.chaos_mix
       ~rng:(Simkit.Rng.create ~seed:(seed + 1_000_003))
       ());
  let crash_time =
    Simkit.Time.add
      (Opc_cluster.Cluster.now cluster)
      (Simkit.Time.span_ms crash_at_ms)
  in
  before_crash cluster crash_time;
  Opc_cluster.Fault.inject cluster
    [ Opc_cluster.Fault.Crash { server = crash_server; at = crash_time } ];
  Opc_cluster.Cluster.run_for cluster (Simkit.Time.span_ms 600);
  let fail what =
    failwith
      (Printf.sprintf "crash run %s seed %d: %s" (Acp.Protocol.name protocol)
         seed what)
  in
  (match
     Opc_cluster.Cluster.settle ~deadline:(Simkit.Time.span_s 120) cluster
   with
  | Opc_cluster.Cluster.Quiescent -> ()
  | Opc_cluster.Cluster.Deadline_exceeded ->
      fail "cluster did not settle before the deadline"
  | Opc_cluster.Cluster.Stuck -> fail "cluster is stuck");
  (cluster, crash_time)

let run_timeline ?config ?seed ?(crash_server = 1) ?crash_at_ms protocol =
  let cluster, crash_time =
    crash_run ?config ?seed ~crash_server ?crash_at_ms protocol
  in
  let committed, aborted = Opc_cluster.Cluster.txn_counts cluster in
  let sink = Opc_cluster.Cluster.sink cluster in
  let journal = Obs.Journal.entries sink.journal in
  {
    kind = protocol;
    committed;
    aborted;
    crash_server;
    crash_time;
    journal;
    series = sink.sampler;
    windows = Obs.Mttr.windows journal;
  }

(* ------------------------------------------------------------------ *)
(* Crash-point matrix                                                  *)
(* ------------------------------------------------------------------ *)

let fault_grid_ms = List.init 31 (fun i -> 2 * i)

let run_fault_cell ~protocol ~server ms =
  let config =
    {
      Opc_cluster.Config.default with
      servers = 2;
      protocol;
      placement = Mds.Placement.Spread;
      txn_timeout = Simkit.Time.span_ms 300;
      heartbeat_interval = Simkit.Time.span_ms 20;
      detector_timeout = Simkit.Time.span_ms 100;
      restart_delay = Simkit.Time.span_ms 50;
    }
  in
  let cluster = Opc_cluster.Cluster.create config in
  let dir =
    Opc_cluster.Cluster.add_directory cluster
      ~parent:(Opc_cluster.Cluster.root cluster)
      ~name:"d" ~server:0 ()
  in
  let outcome = ref None in
  Opc_cluster.Cluster.submit cluster
    (Mds.Op.create_file ~parent:dir ~name:"f")
    ~on_done:(fun o -> outcome := Some o);
  Opc_cluster.Fault.crash_at cluster ~server
    ~at:(Simkit.Time.of_ns (ms * 1_000_000));
  (match Opc_cluster.Cluster.settle cluster with
  | Opc_cluster.Cluster.Quiescent -> ()
  | _ -> failwith "faults: did not settle");
  (match Opc_cluster.Cluster.check_invariants cluster with
  | [] -> ()
  | _ -> failwith "faults: invariant violation");
  match !outcome with
  | Some Acp.Txn.Committed -> "C"
  | Some (Acp.Txn.Aborted _) -> "A"
  | None -> failwith "faults: no reply"

let run_fault_matrix () =
  List.concat_map
    (fun protocol ->
      List.map
        (fun server ->
          ( protocol,
            server,
            String.concat ""
              (List.map (run_fault_cell ~protocol ~server) fault_grid_ms) ))
        [ 0; 1 ])
    Acp.Protocol.all
