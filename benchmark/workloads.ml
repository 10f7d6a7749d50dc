(* The five workloads. Each runs PrN, 1PC and L1PC, one after another,
   on clusters of its own; one protocol's share of a pass fills a
   [cell]. PrC and EP are left out: they share two_phase.ml with PrN,
   whose paths are the most expensive of the three, and the tier-1
   goldens pin them. *)

open Opc

(* [Timed]: collectors off, as users run it. [Traced]: the host
   profiler and the coverage taps on, and the generator's own time
   booked. [Spans]: span recording on, for the critical-path
   decomposition of a short replay. *)
type mode = Timed | Traced | Spans

type cell = {
  protocol : Acp.Protocol.kind;
  layers : Layers.t;
  mutable latency : Metrics.Histogram.t;
  mutable read_latency : Metrics.Histogram.t;
  mutable wall_ns : int;  (* host time from first submit to quiescence *)
  mutable chunks : int array;  (* wall_ns cut into chunks (Host.cut) *)
  mutable gen_ns : int;  (* the generator's share of it; Traced only *)
  mutable minor_words : float;
  mutable live_words : int;  (* retained by the first cluster; 0 if unmeasured *)
  mutable sim_ns : int;  (* simulated time from first submit to last reply *)
  mutable mutations : int;
  mutable committed : int;
  mutable aborted : int;
  mutable reads : int;
  mutable readdirs : int;
  mutable readdir_entries : int;
  mutable runs : int;  (* chaos runs *)
  mutable faults : int;  (* chaos schedule events *)
  mutable violations : int;  (* chaos oracle violations *)
  mutable failed_ops : int;
  mutable failures : string list;  (* failed checks, newest first *)
  mutable paths : Obs.Breakdown.path list;  (* Spans only *)
}

let new_cell protocol =
  {
    protocol;
    layers = Layers.create ();
    latency = Metrics.Histogram.create ();
    read_latency = Metrics.Histogram.create ();
    wall_ns = 0;
    chunks = [||];
    gen_ns = 0;
    minor_words = 0.;
    live_words = 0;
    sim_ns = 0;
    mutations = 0;
    committed = 0;
    aborted = 0;
    reads = 0;
    readdirs = 0;
    readdir_entries = 0;
    runs = 0;
    faults = 0;
    violations = 0;
    failed_ops = 0;
    failures = [];
    paths = [];
  }

let completed c = c.committed + c.aborted + c.reads

let fail cell msg =
  if not (List.mem msg cell.failures) then cell.failures <- msg :: cell.failures

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let with_mode mode (c : Config.t) =
  match mode with
  | Timed -> c
  | Traced -> { c with record_prof = true; record_coverage = true }
  | Spans -> { c with record_spans = true }

let settle cell ?(deadline = Simkit.Time.span_s 86_400) cluster =
  let outcome = Cluster.settle ~deadline cluster in
  (match outcome with
  | Cluster.Quiescent -> ()
  | Cluster.Deadline_exceeded ->
      fail cell "a cluster did not reach Quiescent before its deadline"
  | Cluster.Stuck -> fail cell "a cluster got Stuck before reaching Quiescent");
  outcome

(* Every Obs.Breakdown category must sum exactly to its window. *)
let check_paths cell paths =
  let ns = Simkit.Time.span_to_ns in
  if
    List.exists
      (fun (p : Obs.Breakdown.path) ->
        ns p.network + ns p.log_force + ns p.disk_queue + ns p.lock_wait
        + ns p.compute
        <> ns p.window)
      paths
  then fail cell "Obs.Breakdown categories do not sum to a window";
  cell.paths <- cell.paths @ paths

let observe cell ~mode ?since cluster =
  if Cluster.check_invariants cluster <> [] then
    fail cell "Cluster.check_invariants found a violation";
  Layers.observe cell.layers cluster;
  cell.latency <-
    Metrics.Histogram.merge cell.latency (Cluster.latency_committed cluster);
  if mode = Spans then check_paths cell (Obs.Breakdown.paths ?since (Cluster.obs cluster))

(* [build] a cluster, then time [load] on it (host clock and minor
   words); with [live], also measure the live heap the cluster holds. *)
let timed_load cell ~live ~build ~load =
  let live0 = if live then live_words () else 0 in
  let built = build () in
  let a0 = Gc.minor_words () and t0 = Host.now_ns () in
  let result = Host.timed (fun () -> load built) in
  cell.wall_ns <- cell.wall_ns + (Host.now_ns () - t0);
  cell.minor_words <- cell.minor_words +. (Gc.minor_words () -. a0);
  if live then cell.live_words <- live_words () - live0;
  (built, result, t0)

(* Build one cluster, time its load from first submit to quiescence,
   then check it and count what it did. [load] submits and settles and
   returns the simulated time it spanned. *)
let drive cell ~mode ~live ~config ~bootstrap ~load =
  let cat = Acp.Protocol.name cell.protocol in
  let (cluster, gen, _), sim, t0 =
    timed_load cell ~live
      ~build:(fun () ->
        Host.span ~cat "cluster build" (fun () ->
            let cluster = Cluster.create (with_mode mode config) in
            let target = bootstrap cluster in
            (cluster, Gen.create ~timed:(mode = Traced) cluster, target)))
      ~load:(fun (cluster, gen, target) -> load cluster target gen)
  in
  Host.add ~cat ~start_ns:t0 "load and settle"
    ~args:[ ("generator_ms", Bench_json.Json.Float (float gen.Gen.gen_ns /. 1e6)) ];
  cell.sim_ns <- cell.sim_ns + sim;
  cell.gen_ns <- cell.gen_ns + gen.gen_ns;
  cell.mutations <- cell.mutations + gen.mutations;
  cell.committed <- cell.committed + gen.committed;
  cell.aborted <- cell.aborted + gen.aborted;
  cell.reads <- cell.reads + gen.reads;
  cell.readdirs <- cell.readdirs + gen.readdirs;
  cell.readdir_entries <- cell.readdir_entries + gen.readdir_entries;
  cell.read_latency <- Metrics.Histogram.merge cell.read_latency gen.read_latency;
  List.iter (fail cell) (Gen.check gen);
  cell.failed_ops <- cell.failed_ops + gen.failed_ops;
  observe cell ~mode ?since:gen.mark cluster

type t = {
  name : string;
  why : string;
  injects_faults : bool;  (* so aborts are correct outcomes *)
  servers : int;
  build : smoke:bool -> seed:int -> Acp.Protocol.kind -> unit;
      (* set-up only: what [run] builds before its first submit *)
  run : smoke:bool -> seed:int -> mode:mode -> check:bool -> cell -> unit;
      (* [check]: also measure the live heap and run the one-off checks *)
}

let sim_ns_between a b = Simkit.Time.span_to_ns (Simkit.Time.diff b a)

(* ------------------------------------------------------------------ *)
(* fig6-burst                                                          *)
(* ------------------------------------------------------------------ *)

(* test_golden.ml's Figure 6 digits (E2): burst 1 is that experiment. *)
let fig6_golden = Acp.Protocol.[ (Prn, "16.28"); (Opc, "24.60"); (Lp1, "2487.56") ]

let fig6_bootstrap cluster =
  Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"data"
    ~server:0 ()

let fig6_config p = { Experiment.fig6_config with Config.protocol = p }

let fig6 =
  let run ~smoke ~seed ~mode ~check cell =
    let bursts = if mode = Spans || smoke then 2 else 50 in
    let rng = Simkit.Rng.create ~seed in
    drive cell ~mode ~live:check ~config:(fig6_config cell.protocol)
      ~bootstrap:fig6_bootstrap ~load:(fun cluster data gen ->
        let sim = ref 0 in
        for b = 1 to bursts do
          let dir =
            if b = 1 then data
            else
              Cluster.add_directory cluster ~parent:(Cluster.root cluster)
                ~name:("burst" ^ string_of_int b) ~server:0 ()
          in
          (* Burst 1 is the paper's 100; the seed sizes the others. *)
          let count = if b = 1 then 100 else Simkit.Rng.int_in rng 90 110 in
          let start = Cluster.now cluster in
          Gen.burst gen ~dir ~count;
          ignore (settle cell cluster);
          let span = sim_ns_between start gen.Gen.last_reply in
          sim := !sim + span;
          (if b = 1 then
             let digits =
               Printf.sprintf "%.2f"
                 (float_of_int gen.committed /. (float_of_int span /. 1e9))
             in
             if List.assoc cell.protocol fig6_golden <> digits then
               fail cell
                 (Printf.sprintf "fig6 burst 1 gave %s ops/s for %s, E2 pins %s"
                    digits (Acp.Protocol.name cell.protocol)
                    (List.assoc cell.protocol fig6_golden)));
          Gen.check_burst gen ~dir ~count;
          ignore (settle cell cluster);
          if b mod 5 = 0 then Host.cut ()
        done;
        !sim)
  in
  {
    name = "fig6-burst";
    why =
      "the paper's Figure 6 on one shared 400 KB/s disk: storage and a 100-deep \
       directory lock queue set latency, host work is light";
    injects_faults = false;
    servers = 4;
    build =
      (fun ~smoke:_ ~seed:_ p ->
        ignore (fig6_bootstrap (Cluster.create (fig6_config p))));
    run;
  }

(* ------------------------------------------------------------------ *)
(* Closed loops: write-4, read-4, scale-64                             *)
(* ------------------------------------------------------------------ *)

let closed_config ~servers ~seed p =
  { (Experiment.scale_config ~servers ~seed) with Config.protocol = p }

let dirs_of ~servers cluster =
  Array.init servers (fun i ->
      Cluster.add_directory cluster ~parent:(Cluster.root cluster)
        ~name:("d" ^ string_of_int i) ~server:i ())

let closed ~name ~why ~servers ~clients ~ops ~mix =
  let run ~smoke ~seed ~mode ~check cell =
    let ops = if smoke then 100 else if mode = Spans then 1_000 else ops in
    (* Spans: decompose only the windows after the first 80% of the
       operations; the walk is quadratic in the spans it keeps. *)
    let mark_at = if mode = Spans then ops * 4 / 5 else -1 in
    drive cell ~mode ~live:check
      ~config:(closed_config ~servers ~seed cell.protocol)
      ~bootstrap:(dirs_of ~servers) ~load:(fun cluster dirs gen ->
        Gen.closed_loop gen ~dirs ~clients ~ops ~mix
          ~rng:(Simkit.Rng.create ~seed) ~mark_at ();
        ignore (settle cell cluster);
        match gen.Gen.first_submit with
        | Some start -> sim_ns_between start gen.last_reply
        | None -> 0)
  in
  {
    name;
    why;
    injects_faults = false;
    servers;
    build =
      (fun ~smoke:_ ~seed p ->
        ignore (dirs_of ~servers (Cluster.create (closed_config ~servers ~seed p))));
    run;
  }

let write_4 =
  closed ~name:"write-4"
    ~why:
      "4 servers with private logs, 8 clients, 70/25/5 create/delete/lookup: \
       ACP handlers, WAL forces and lock grants do most host work"
    ~servers:4 ~clients:8 ~ops:20_000
    ~mix:{ Gen.create = 70; delete = 25; lookup = 5; readdir = 0 }

let read_4 =
  closed ~name:"read-4"
    ~why:
      "the write-4 cluster read-mostly, 15/5/75/5 create/delete/lookup/readdir \
       over growing directories: work moves to mds and shared locks"
    ~servers:4 ~clients:8 ~ops:40_000
    ~mix:{ Gen.create = 15; delete = 5; lookup = 75; readdir = 5 }

let scale_64 =
  closed ~name:"scale-64"
    ~why:
      "64 servers, 128 clients, write mix: all-to-all heartbeats dominate, so \
       netsim delivery, the failure detector and the event heap set host time"
    ~servers:64 ~clients:128 ~ops:20_000
    ~mix:{ Gen.create = 70; delete = 25; lookup = 5; readdir = 0 }

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

let spec = Chaos.Runner.default_spec

(* Campaign seeds that fail on this tree, from a scan of seeds 1 to
   100,000 per protocol (README, finding 4): L1PC recovery raises out of
   Common.replay or breaks a namespace invariant; PrN and 1PC miss the
   settle deadline with messages still in flight. The workload skips
   them, so it measures passing runs only. *)
let known_failures =
  Acp.Protocol.
    [
      (Prn, [ 33184 ]);
      (Opc, [ 78594; 91798 ]);
      (Lp1, [ 6076; 8756; 56564; 57030; 62525; 80689; 91141; 95883 ]);
    ]

(* One pass runs 300 campaign seeds per protocol from
   1000 * ((seed - 1) mod 100) + 1, the scanned range. *)
let chaos_seeds ~smoke ~mode ~seed protocol =
  let n = if smoke then 3 else if mode = Spans then 10 else 300 in
  let skip = Option.value ~default:[] (List.assoc_opt protocol known_failures) in
  let rec from s n =
    if n = 0 then []
    else if List.mem s skip then from (s + 1) n
    else s :: from (s + 1) (n - 1)
  in
  from ((1000 * ((seed - 1) mod 100)) + 1) n

let chaos_dirs cluster =
  Array.init spec.dir_count (fun i ->
      Cluster.add_directory cluster ~parent:(Cluster.root cluster)
        ~name:(Printf.sprintf "d%d" i) ~server:(i mod spec.servers) ())

(* Chaos.Runner.execute's run body, keeping the cluster so the
   benchmark can read its engine, latencies and layer stats: the seeded
   workload and fault schedule, the cleanup event that restores a
   fault-free environment once the window closes, then settle. *)
let chaos_load cell cluster ~dirs ~(config : Config.t) ~schedule ~seed =
  let workload =
    Workload.closed_loop cluster ~dirs ~clients:spec.clients
      ~ops_per_client:spec.ops_per_client ~mix:Chaos.Runner.chaos_mix
      ~rng:(Simkit.Rng.create ~seed:(seed + 1_000_003))
      ()
  in
  let origin = Cluster.now cluster in
  let settled =
    try
      Fault.inject cluster
        (Chaos.Schedule.to_faults ~origin ~servers:spec.servers schedule);
      let baseline = config.network in
      ignore
        (Simkit.Engine.schedule_at (Cluster.engine cluster)
           ~label:(Simkit.Label.v Chaos "chaos.cleanup")
           ~at:(Simkit.Time.add origin (Simkit.Time.span_ms (spec.window_ms + 1)))
           (fun () ->
             Cluster.heal cluster;
             Cluster.set_drop_probability cluster
               baseline.Netsim.Network.drop_probability;
             Cluster.set_duplicate_probability cluster
               baseline.Netsim.Network.duplicate_probability;
             Cluster.set_disk_slowdown cluster 1.0;
             Cluster.set_fencing_available cluster true));
      Cluster.run_for cluster (Simkit.Time.span_ms (spec.window_ms + 200));
      Ok
        (settle cell
           ~deadline:(Simkit.Time.span_ms spec.settle_deadline_ms)
           cluster)
    with exn -> Error (Printexc.to_string exn)
  in
  (workload, settled)

(* One campaign run, judged by the chaos oracles. The first seeds of
   every checked pass are also compared with Runner.execute. *)
let chaos_run cell ~mode ~live ~seed =
  let protocol = cell.protocol in
  let config = Chaos.Runner.config_of spec ~protocol ~seed in
  let schedule = Chaos.Runner.generate_schedule spec ~seed in
  let (cluster, dirs), (workload, settled), _ =
    timed_load cell ~live
      ~build:(fun () ->
        let cluster = Cluster.create (with_mode mode config) in
        (cluster, chaos_dirs cluster))
      ~load:(fun (cluster, dirs) ->
        chaos_load cell cluster ~dirs ~config ~schedule ~seed)
  in
  let violations =
    match settled with
    | Ok settled -> Chaos.Oracle.check cluster ~workload ~dirs ~settled
    | Error e -> [ Chaos.Oracle.Run_exception e ]
  in
  if violations <> [] then
    fail cell
      (Fmt.str "chaos oracle failed for %s seed %d: %a"
         (Acp.Protocol.name protocol) seed Chaos.Oracle.pp_violation
         (List.hd violations));
  let stats = Workload.stats workload in
  cell.runs <- cell.runs + 1;
  cell.faults <- cell.faults + Chaos.Schedule.length schedule;
  cell.violations <- cell.violations + List.length violations;
  cell.failed_ops <- cell.failed_ops + List.length violations;
  cell.mutations <- cell.mutations + stats.Workload.submitted;
  cell.committed <- cell.committed + stats.committed;
  cell.aborted <- cell.aborted + stats.aborted;
  cell.reads <- cell.reads + stats.reads;
  cell.sim_ns <- cell.sim_ns + sim_ns_between stats.first_submit stats.last_reply;
  observe cell ~mode cluster;
  (stats, Obs.Coverage.counts (Cluster.coverage cluster))

let chaos =
  let run ~smoke ~seed ~mode ~check cell =
    List.iteri
      (fun i s ->
        if i mod 10 = 0 then Host.cut ();
        let stats, edge_hits =
          chaos_run cell ~mode ~live:(check && i = 0) ~seed:s
        in
        if check && i < 3 then begin
          let o = Chaos.Runner.execute spec ~protocol:cell.protocol ~seed:s in
          if
            o.Chaos.Runner.committed <> stats.Workload.committed
            || o.aborted <> stats.aborted
            || o.edge_hits <> edge_hits
          then
            fail cell
              (Printf.sprintf "the chaos run of seed %d differs from \
                               Chaos.Runner.execute" s)
        end)
      (chaos_seeds ~smoke ~mode ~seed cell.protocol)
  in
  {
    name = "chaos";
    why =
      "Chaos.Runner's campaign regime, 300 seeded fault schedules per protocol: \
       detection, fencing, recovery and the oracles run only here";
    injects_faults = true;
    servers = spec.servers;
    build =
      (fun ~smoke ~seed p ->
        let s = List.hd (chaos_seeds ~smoke ~mode:Timed ~seed p) in
        ignore
          (chaos_dirs
             (Cluster.create (Chaos.Runner.config_of spec ~protocol:p ~seed:s))));
    run;
  }

let all = [ fig6; write_4; read_4; scale_64; chaos ]
let find name = List.find_opt (fun w -> w.name = name) all
