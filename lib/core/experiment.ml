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

(* Settle [cluster] or fail with a message that names the [run]. *)
let settle ?deadline run cluster =
  match Opc_cluster.Cluster.settle ?deadline cluster with
  | Opc_cluster.Cluster.Quiescent -> ()
  | Opc_cluster.Cluster.Deadline_exceeded ->
      failwith (run ^ ": cluster did not settle before the deadline")
  | Opc_cluster.Cluster.Stuck -> failwith (run ^ ": cluster is stuck")

(* A cluster under [config] running [protocol], with the §IV workload
   directory "data" on server 0. *)
let data_cluster config protocol =
  let cluster =
    Opc_cluster.Cluster.create { config with Opc_cluster.Config.protocol }
  in
  ( cluster,
    Opc_cluster.Cluster.add_directory cluster
      ~parent:(Opc_cluster.Cluster.root cluster)
      ~name:"data" ~server:0 () )

let fig6_point cluster protocol ~throughput ~committed ~aborted =
  {
    protocol;
    throughput;
    committed;
    aborted;
    mean_latency =
      Metrics.Histogram.mean (Opc_cluster.Cluster.latency_committed cluster);
    mean_lock_hold =
      Metrics.Histogram.mean (Opc_cluster.Cluster.lock_hold cluster);
  }

let run_fig6_point ?(config = fig6_config) ?(count = 100) protocol =
  let cluster, dir = data_cluster config protocol in
  let wl = Workload.storm cluster ~dir ~count () in
  settle ~deadline:(Simkit.Time.span_s 3600) "fig6" cluster;
  let stats = Workload.stats wl in
  fig6_point cluster protocol
    ~throughput:(Workload.throughput_per_s stats)
    ~committed:stats.Workload.committed ~aborted:stats.Workload.aborted

let run_fig6 ?config ?count () =
  List.map (fun k -> run_fig6_point ?config ?count k) Acp.Protocol.all

type measured_costs = {
  kind : Acp.Protocol.kind;
  sync_writes_per_txn : float;
  async_writes_per_txn : float;
  acp_messages_per_txn : float;
}

(* The ledger's write and message counters per transaction, over
   [count] transactions run one at a time after one warm-up outside the
   window: [txn i ~k] submits transaction [i] (-1 for the warm-up) and
   calls [k] on the expected outcome, which submits the next one. One
   at a time, so per-transaction division is exact. *)
let measure_costs run cluster ~count protocol txn =
  txn (-1) ~k:ignore;
  settle (run ^ " warm-up") cluster;
  let before =
    Metrics.Ledger.snapshot (Opc_cluster.Cluster.ledger cluster)
  in
  let rec one i = if i < count then txn i ~k:(fun () -> one (i + 1)) in
  one 0;
  settle run cluster;
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

let run_table1_measured ?(config = fig6_config) ?(count = 20) protocol =
  let cluster, dir = data_cluster config protocol in
  measure_costs "table1" cluster ~count protocol (fun i ~k ->
      let name = if i < 0 then "warmup" else Printf.sprintf "t1_%d" i in
      Opc_cluster.Cluster.submit cluster
        (Mds.Op.create_file ~parent:dir ~name)
        ~on_done:(function
          | Acp.Txn.Committed -> k ()
          | Acp.Txn.Aborted reason ->
              failwith ("table1: unexpected abort: " ^ reason)))

type breakdown_point = {
  kind : Acp.Protocol.kind;
  summary : Obs.Breakdown.summary;
  tracer : Obs.Tracer.t;
}

let run_breakdown ?(config = fig6_config) ?(count = 20) protocol =
  let cluster, dir =
    data_cluster
      { config with Opc_cluster.Config.record_spans = true }
      protocol
  in
  (* Warm-up: one transaction outside the measurement window. *)
  Opc_cluster.Cluster.submit cluster
    (Mds.Op.create_file ~parent:dir ~name:"warmup")
    ~on_done:(fun _ -> ());
  settle "breakdown warm-up" cluster;
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
    settle "breakdown" cluster
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
  let cluster, dir = data_cluster config protocol in
  let sub =
    Opc_cluster.Cluster.add_directory cluster ~parent:dir ~name:"sub"
      ~server:1 ()
  in
  let _child =
    Opc_cluster.Cluster.add_directory cluster ~parent:sub ~name:"child" ()
  in
  measure_costs "abort run" cluster ~count protocol (fun _ ~k ->
      Opc_cluster.Cluster.submit cluster
        (Mds.Op.delete ~parent:dir ~name:"sub")
        ~on_done:(function
          | Acp.Txn.Aborted _ -> k ()
          | Acp.Txn.Committed ->
              failwith "abort experiment: unexpected commit"))

type sweep_point = { x : float; series : (Acp.Protocol.kind * float) list }

(* One point per value of [xs], at [x v], with [point v kind] for every
   protocol. *)
let sweep xs ~x point =
  List.map
    (fun v ->
      {
        x = x v;
        series = List.map (fun kind -> (kind, point v kind)) Acp.Protocol.all;
      })
    xs

let fig6_throughput ?config ?count kind =
  (run_fig6_point ?config ?count kind).throughput

let with_san f =
  {
    fig6_config with
    Opc_cluster.Config.san = f fig6_config.Opc_cluster.Config.san;
  }

let independent_devices =
  with_san (fun san -> { san with Storage.San.shared_device = false })

let sweep_disk_bandwidth
    ?(bandwidths = [ 100; 200; 400; 800; 1600; 3200; 6400 ]) ?count () =
  sweep bandwidths ~x:float_of_int (fun kbps ->
      fig6_throughput ?count
        ~config:
          (with_san (fun san ->
               {
                 san with
                 Storage.San.disk =
                   {
                     san.Storage.San.disk with
                     Storage.Disk.bandwidth_bytes_per_s = kbps * 1000;
                   };
               })))

let sweep_network_latency
    ?(latencies_us = [ 10; 50; 100; 500; 1000; 5000; 10000 ]) ?count () =
  sweep latencies_us ~x:float_of_int (fun us ->
      fig6_throughput ?count
        ~config:
          {
            fig6_config with
            Opc_cluster.Config.network =
              {
                fig6_config.Opc_cluster.Config.network with
                Netsim.Network.latency = Simkit.Time.span_us us;
              };
          })

let sweep_concurrency ?(counts = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 ])
    () =
  sweep counts ~x:float_of_int (fun count kind -> fig6_throughput ~count kind)

let sweep_colocation ?(probabilities = [ 0.0; 0.25; 0.5; 0.75; 0.9; 1.0 ])
    ?count () =
  sweep probabilities ~x:Fun.id (fun p ->
      fig6_throughput ?count
        ~config:
          {
            fig6_config with
            Opc_cluster.Config.placement = Mds.Placement.Colocate p;
          })

(* The Figure-6 burst: [count] CREATEs submitted at once, the [i]-th
   through [submit i], then [flush ()], then settled. Returns the
   committed and aborted counts and the committed rate from the first
   submission to the last reply. *)
let burst run cluster ~count ~submit ~flush =
  let committed = ref 0 and aborted = ref 0 in
  let first = Opc_cluster.Cluster.now cluster in
  let last = ref first in
  for i = 0 to count - 1 do
    submit i ~on_done:(fun outcome ->
        last := Opc_cluster.Cluster.now cluster;
        match outcome with
        | Acp.Txn.Committed -> incr committed
        | Acp.Txn.Aborted _ -> incr aborted)
  done;
  flush ();
  settle ~deadline:(Simkit.Time.span_s 3600) run cluster;
  let span = Simkit.Time.span_to_float_s (Simkit.Time.diff !last first) in
  ( !committed,
    !aborted,
    if span > 0.0 then float_of_int !committed /. span else 0.0 )

let run_batched_point ?(config = fig6_config) ?(count = 100) ~batch protocol =
  let cluster, dir = data_cluster config protocol in
  let batcher =
    Opc_cluster.Batching.create cluster ~window:(Simkit.Time.span_ms 1)
      ~max_batch:batch
  in
  let committed, aborted, throughput =
    burst "batched storm" cluster ~count
      ~submit:(fun i ->
        Opc_cluster.Batching.submit batcher
          (Mds.Op.create_file ~parent:dir ~name:(Printf.sprintf "b%d" i)))
      ~flush:(fun () -> Opc_cluster.Batching.flush_all batcher)
  in
  fig6_point cluster protocol ~throughput ~committed ~aborted

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
  let _, _, throughput =
    burst "multi-dir storm" cluster ~count
      ~submit:(fun i ->
        Opc_cluster.Cluster.submit cluster
          (Mds.Op.create_file
             ~parent:dirs.(i mod dir_count)
             ~name:(Printf.sprintf "f%d" i)))
      ~flush:ignore
  in
  throughput

let sweep_directories ?(dir_counts = [ 1; 2; 4 ]) ?(count = 100)
    ?(independent_disks = false) () =
  let config =
    if independent_disks then independent_devices else fig6_config
  in
  sweep dir_counts ~x:float_of_int (fun dirs ->
      run_multi_dir_point ~config ~count ~dirs)

let sweep_batching ?(batch_sizes = [ 1; 2; 4; 8; 16; 32 ]) ?(count = 100) () =
  sweep batch_sizes ~x:float_of_int (fun batch kind ->
      (run_batched_point ~count ~batch kind).throughput)

(* Figure-6 throughput per protocol under {!fig6_config} and under [b]. *)
let compare_with b ?count () =
  List.map
    (fun kind ->
      ( kind,
        fig6_throughput ?count kind,
        fig6_throughput ~config:b ?count kind ))
    Acp.Protocol.all

let compare_group_commit =
  compare_with
    (with_san (fun san -> { san with Storage.San.group_commit = true }))

let compare_shared_vs_independent = compare_with independent_devices

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

(* One log device per server: the sharded-store regime where
   coordinator count is the scaling axis, not a single spindle. *)
let scale_config ~servers ~seed =
  {
    independent_devices with
    Opc_cluster.Config.servers;
    seed;
    txn_timeout = Simkit.Time.span_s 60;
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
  settle ~deadline:(Simkit.Time.span_s 86_400) "scale" cluster;
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
    Chaos.Runner.regime with
    record_journal = true;
    sample_period = Some (Simkit.Time.span_ms 5);
  }

let crash_run ?(config = timeline_config) ?(seed = 1) ?(crash_server = 1)
    ?(crash_at_ms = 100) ?(before_crash = fun _ _ -> ()) protocol =
  let config = { config with Opc_cluster.Config.protocol; seed } in
  let cluster = Opc_cluster.Cluster.create config in
  let servers = config.Opc_cluster.Config.servers in
  let dirs = Chaos.Runner.layout cluster ~servers ~dirs:servers in
  (* Same stream as the chaos runner, so a timeline run with the chaos
     defaults reproduces a chaos run's workload exactly. *)
  ignore
    (Workload.closed_loop cluster ~dirs ~clients:6 ~ops_per_client:15
       ~mix:Chaos.Runner.chaos_mix
       ~rng:(Chaos.Runner.closed_loop_rng seed)
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
  settle ~deadline:(Simkit.Time.span_s 120)
    (Printf.sprintf "crash run %s seed %d" (Acp.Protocol.name protocol) seed)
    cluster;
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
  let cluster =
    Opc_cluster.Cluster.create
      { Chaos.Runner.regime with servers = 2; protocol }
  in
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
  settle "faults" cluster;
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
