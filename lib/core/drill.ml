type status = { committed : int; aborted : int; serving : int }

type run = {
  seed : int;
  crash_server : int;
  servers : int;
  before : status;
  after : status;
  windows : Obs.Mttr.window list;
}

type segment = { p50_ns : int; p99_ns : int }

type stats = {
  protocol : Acp.Protocol.kind;
  runs : run list;
  windows : int;
  detect : segment;
  fence : segment;
  scan : segment;
  resolve : segment;
  total : segment;
  dfs_p99_ns : int;
}

type slo = { fence_p99_ns : int; dfs_p99_ns : int; total_p99_ns : int }

(* Committed budgets, calibrated from the 5-seed campaign (see
   EXPERIMENTS.md, "Recovery drills & incident autopsy") with ~1.5x
   headroom, so seed-to-seed jitter never trips the gate but a
   structural regression — an extra resend round before takeover, a
   lost fence short-circuit, a slower log scan — does.

   Measured p99s at calibration time: detect 100 ms for everyone (one
   detector sweep); fence 10 ms for 1PC and 0 for the rest; d+f+s
   310-381 ms, L1PC lowest because logless recovery has no log
   partition to scan.

   Shape, not noise: L1PC's fence budget is exactly {e zero} — logless
   recovery must never touch the SAN fencing controller — and its
   other budgets sit strictly under 1PC's. *)
let slo_for = function
  | Acp.Protocol.Lp1 ->
      { fence_p99_ns = 0; dfs_p99_ns = 450_000_000; total_p99_ns = 500_000_000 }
  | Acp.Protocol.Opc ->
      {
        fence_p99_ns = 30_000_000;
        dfs_p99_ns = 550_000_000;
        total_p99_ns = 600_000_000;
      }
  | Acp.Protocol.Prn | Acp.Protocol.Prc | Acp.Protocol.Ep ->
      {
        fence_p99_ns = 30_000_000;
        dfs_p99_ns = 600_000_000;
        total_p99_ns = 650_000_000;
      }

let impossible_slo = { fence_p99_ns = 0; dfs_p99_ns = 0; total_p99_ns = 0 }

let label_probe = Simkit.Label.v Cluster "drill.probe"

let snapshot cluster =
  let committed, aborted = Opc_cluster.Cluster.txn_counts cluster in
  let serving =
    Array.fold_left
      (fun acc n -> if Opc_cluster.Node.is_up n then acc + 1 else acc)
      0
      (Opc_cluster.Cluster.nodes cluster)
  in
  { committed; aborted; serving }

let run_one ?(seed = 1) ?(crash_server = 1) protocol =
  let config =
    {
      Experiment.timeline_config with
      (* Unlike the timeline experiment's 50 ms restart — which beats the
         100 ms detector sweep, so the victim recovers before anyone
         suspects it — drills keep the victim down for 300 ms so the
         survivor walks the whole takeover path: suspect, fence (logged
         protocols only), scan. That is the path the SLOs budget. *)
      Opc_cluster.Config.restart_delay = Simkit.Time.span_ms 300;
    }
  in
  (* Scheduled before the fault is injected, so at the shared instant the
     probe's lower sequence number runs first: [before] is the state the
     crash interrupts. *)
  let before = ref { committed = 0; aborted = 0; serving = 0 } in
  let probe cluster crash_time =
    ignore
      (Simkit.Engine.schedule_at
         (Opc_cluster.Cluster.engine cluster)
         ~label:label_probe ~at:crash_time
         (fun () -> before := snapshot cluster))
  in
  let cluster, _ =
    Experiment.crash_run ~config ~seed ~crash_server ~before_crash:probe
      protocol
  in
  {
    seed;
    crash_server;
    servers = config.Opc_cluster.Config.servers;
    before = !before;
    after = snapshot cluster;
    windows =
      Obs.Mttr.windows
        (Obs.Journal.entries (Opc_cluster.Cluster.sink cluster).journal);
  }

(* Nearest-rank percentile over ns values; 0 when empty (checked
   separately — an empty campaign is a structural failure). *)
let percentile p values =
  match List.sort compare values with
  | [] -> 0
  | sorted ->
      let n = List.length sorted in
      let rank =
        max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1))
      in
      List.nth sorted rank

let seg values = { p50_ns = percentile 50. values; p99_ns = percentile 99. values }

let campaign ?(seeds = 5) ?(first_seed = 1) protocol =
  let runs =
    List.init seeds (fun i -> run_one ~seed:(first_seed + i) protocol)
  in
  let ws = List.concat_map (fun (r : run) -> r.windows) runs in
  let span f = List.map (fun w -> Simkit.Time.span_to_ns (f w)) ws in
  {
    protocol;
    runs;
    windows = List.length ws;
    detect = seg (span (fun (w : Obs.Mttr.window) -> w.detect));
    fence = seg (span (fun (w : Obs.Mttr.window) -> w.fence));
    scan = seg (span (fun (w : Obs.Mttr.window) -> w.scan));
    resolve = seg (span (fun (w : Obs.Mttr.window) -> w.resolve));
    total = seg (List.map (fun w -> Simkit.Time.span_to_ns (Obs.Mttr.total w)) ws);
    dfs_p99_ns =
      percentile 99.
        (List.map
           (fun (w : Obs.Mttr.window) ->
             Simkit.Time.to_ns w.scan_at - Simkit.Time.to_ns w.start)
           ws);
  }

let check ?slo stats =
  let slo = match slo with Some s -> s | None -> slo_for stats.protocol in
  let name = Acp.Protocol.name stats.protocol in
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
  if stats.windows < List.length stats.runs then
    fail "%s FAILS recovery SLO: %d windows measured over %d drills" name
      stats.windows
      (List.length stats.runs);
  List.iter
    (fun r ->
      if r.before.serving <> r.servers then
        fail "%s FAILS recovery SLO: seed %d had %d/%d nodes serving at the \
              crash instant"
          name r.seed r.before.serving r.servers;
      if r.after.serving <> r.servers then
        fail "%s FAILS recovery SLO: seed %d settled with %d/%d nodes serving"
          name r.seed r.after.serving r.servers)
    stats.runs;
  if stats.fence.p99_ns > slo.fence_p99_ns then
    fail "%s FAILS recovery SLO: fence p99 %dns > budget %dns" name
      stats.fence.p99_ns slo.fence_p99_ns;
  if stats.dfs_p99_ns > slo.dfs_p99_ns then
    fail "%s FAILS recovery SLO: detect+fence+scan p99 %dns > budget %dns"
      name stats.dfs_p99_ns slo.dfs_p99_ns;
  if stats.total.p99_ns > slo.total_p99_ns then
    fail "%s FAILS recovery SLO: total MTTR p99 %dns > budget %dns" name
      stats.total.p99_ns slo.total_p99_ns;
  List.rev !fails
