(* One workload, measured: a first pass that warms up (traced when
   per-layer numbers are wanted), timed repetitions for the requested
   seconds with set-up and calibration samples between them, then a last
   pass that measures the live heap. Every pass starts from Gc.compact
   and is checked. Host time is the sum over chunks of each chunk's
   fastest repetition and set-up time the median over samples, both
   scaled to the calibration's reference speed and given with their
   quartiles; every other end-to-end metric is exact and must repeat bit
   for bit. *)

open Opc
module W = Workloads

type stat = { value : float; q1 : float; q3 : float }

type result = {
  workload : W.t;
  reps : int;
  speed : float;  (* what host times were scaled by (Calib) *)
  attempted : int;
  failed : int;
  failures : string list;
  end_to_end : (Catalog.metric * stat) list;
  per_layer : (Catalog.metric * float) list;  (* [] unless traced *)
}

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  (* Linear interpolation between closest ranks. *)
  let q p =
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)
  in
  { value = q 0.5; q1 = q 0.25; q3 = q 0.75 }

let exact v = { value = v; q1 = v; q3 = v }
let sum f cells = List.fold_left (fun acc c -> acc + f c) 0 cells
let fsum f cells = List.fold_left (fun acc c -> acc +. f c) 0. cells
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let ms span = float_of_int (Simkit.Time.span_to_ns span) /. 1e6
let cell_of p cells = List.find (fun c -> c.W.protocol = p) cells
let wall_ms cells = float_of_int (sum (fun c -> c.W.wall_ns) cells) /. 1e6

(* Mean of the slowest 5%, from 100 evenly spaced quantiles above p95.
   Simulated latencies sit on a lattice of hop and block times, so a
   percentile jumps a whole step between seeds; a mean moves smoothly.
   The slowest 1% of scale-64 varied 10-17% between seeds. *)
let tail_mean_ms h =
  let qs = List.init 100 (fun i -> 0.95 +. (float_of_int (i + 1) /. 2_000.)) in
  fsum ms (Metrics.Histogram.quantiles h qs) /. 100.

let run_pass (w : W.t) ~smoke ~seed ~mode ~check =
  List.map
    (fun p ->
      let cell = W.new_cell p in
      w.run ~smoke ~seed ~mode ~check cell;
      cell.chunks <- Host.chunks ();
      cell)
    Catalog.protocols

let chunks_of rep = Array.concat (List.map (fun c -> c.W.chunks) rep)

(* Checked: a workload cuts every repetition into the same chunks. *)
let same_chunks reps =
  let n = Array.length (chunks_of (List.hd reps)) in
  List.for_all (fun r -> Array.length (chunks_of r) = n) reps

(* Host time of a pass with the machine's slow spells taken out: chunk
   k does the same work in every repetition, so its fastest repetition
   is the one the machine disturbed least. The sum over chunks of those
   minima, in ms (the fastest whole repetition if the check failed). *)
let fastest_chunks_ms reps =
  if not (same_chunks reps) then List.fold_left (fun m r -> Float.min m (wall_ms r)) infinity reps
  else
    let runs = List.map chunks_of reps in
    let total = ref 0 in
    Array.iteri
      (fun k first -> total := !total + List.fold_left (fun m r -> min m r.(k)) first runs)
      (List.hd runs);
    float_of_int !total /. 1e6

(* Set-up time of one pass: every protocol's clusters built, repeated
   until a sample covers [min_ns]. *)
let setup_sample (w : W.t) ~smoke ~seed ~min_ns =
  Gc.compact ();
  let t0 = Host.now_ns () in
  let builds = ref 0 in
  while !builds = 0 || Host.now_ns () - t0 < min_ns do
    List.iter (w.build ~smoke ~seed) Catalog.protocols;
    incr builds
  done;
  float_of_int (Host.now_ns () - t0) /. float_of_int !builds /. 1e9

(* The exact end-to-end metrics of one pass, which must repeat bit for
   bit between passes of one seed (live_mb apart: only the last pass
   measures it). *)
let exact_metrics (cells : W.cell list) =
  let completed = sum W.completed cells in
  let per_op x = x /. float_of_int completed in
  [
    ("events_per_op", per_op (float_of_int (sum (fun c -> c.W.layers.events) cells)));
    ("alloc_kw_per_op", per_op (fsum (fun c -> c.W.minor_words) cells) /. 1000.);
    ("commit_share", ratio (sum (fun c -> c.W.committed) cells) (sum (fun c -> c.W.mutations) cells));
    ("msgs_per_op", per_op (float_of_int (sum (fun c -> c.W.layers.sent) cells)));
  ]
  @ List.concat_map
      (fun p ->
        let n = Catalog.pname p in
        let c = cell_of p cells in
        [
          ("ops_per_sim_s." ^ n, float_of_int c.W.committed /. (float_of_int c.sim_ns /. 1e9));
          ("latency_mean_ms." ^ n, ms (Metrics.Histogram.mean c.latency));
          ("latency_tail_ms." ^ n, tail_mean_ms c.latency);
        ])
      Catalog.protocols

(* Host times are scaled by [speed], the calibration's reference over
   its median sample in this run (Calib). Host noise on a shared machine
   only ever adds time, so the fastest repetition of each chunk and the
   fastest set-up sample are the steadiest estimates; the quartiles of
   whole repetitions and of the set-up samples go with them. *)
let end_to_end ~speed ~setup ~reps ~live_words =
  let kops = float_of_int (sum W.completed (List.hd reps)) /. 1000. in
  let scaled s = { value = s.value *. speed; q1 = s.q1 *. speed; q3 = s.q3 *. speed } in
  let host = quartiles (List.map (fun rep -> wall_ms rep /. kops) reps) in
  let e =
    ("setup_s", scaled { (quartiles setup) with value = List.fold_left Float.min infinity setup })
    :: ("host_ms_per_kop", scaled { host with value = fastest_chunks_ms reps /. kops })
    :: ("live_mb", exact (float_of_int (live_words * (Sys.word_size / 8)) /. 1e6))
    :: List.map (fun (name, v) -> (name, exact v)) (exact_metrics (List.hd reps))
  in
  List.map (fun (m : Catalog.metric) -> (m, List.assoc m.name e)) Catalog.end_to_end

let clamp lo hi n = max lo (min hi n)

let per_layer (w : W.t) ~smoke ~traced ~spans ~host_ms ~gen_share =
  let l = Layers.merge (List.map (fun c -> c.W.layers) traced) in
  let completed = sum W.completed traced in
  let per_op n = ratio n completed in
  let ledger k = Layers.get l.ledger k in
  let size n = if smoke then clamp 1_000 5_000 n else clamp 20_000 200_000 n in
  let kernel name f = Host.span ~cat:"kernel" name f in
  let readdirs = sum (fun c -> c.W.readdirs) traced in
  let entries = sum (fun c -> c.W.readdir_entries) traced in
  let read_latency =
    List.fold_left
      (fun acc c -> Metrics.Histogram.merge acc c.W.read_latency)
      (Metrics.Histogram.create ()) traced
  in
  let wall = sum (fun c -> c.W.wall_ns) traced in
  let v =
    [
      ("simkit.pending_hwm", float_of_int l.pending_hwm);
      ( "simkit.kernel_ns_per_event",
        kernel "event" (fun () ->
            Kernels.event ~depth:l.pending_hwm ~n:(size l.events)) );
      ("prof.residual_share", ratio l.prof_residual_ns l.prof_total_ns);
      ("netsim.heartbeat_share", ratio l.heartbeats l.metered);
      ("netsim.dropped_per_kop", 1000. *. per_op l.dropped);
      ( "netsim.kernel_ns_per_msg",
        kernel "message" (fun () ->
            Kernels.message ~servers:w.servers ~n:(size l.sent)) );
      ("prof.net_deliver_share", Layers.prof_share l [ "net.deliver" ]);
      ("prof.detector_sweep_share", Layers.prof_share l [ "detector.sweep" ]);
      ("storage.requests_per_op", per_op l.disk_requests);
      ("storage.kb_per_op", per_op l.disk_bytes /. 1000.);
      ("storage.device_util", l.device_util);
      ( "storage.kernel_ns_per_force",
        kernel "force" (fun () -> Kernels.force ~n:(size (ledger "log.sync"))) );
      ("prof.disk_complete_share", Layers.prof_share l [ "disk.complete" ]);
      ("locks.acquires_per_op", per_op l.lock_acquired);
      ("locks.wait_share", ratio l.lock_waited l.lock_acquired);
      ("locks.mean_wait_ms", ratio l.lock_wait_ns l.lock_waited /. 1e6);
      ("locks.max_queue", float_of_int l.lock_max_queue);
      ("locks.timeouts", float_of_int l.lock_timeouts);
      ( "locks.kernel_ns_per_acquire",
        kernel "acquire" (fun () -> Kernels.acquire ~n:(size l.lock_acquired)) );
      ( "prof.lock_grant_share",
        Layers.prof_share l [ "lock.grant"; "lock.reentrant"; "lock.timeout" ] );
      ("mds.inodes", ratio l.inodes l.clusters);
      ("mds.readdir_entries_per_op", per_op entries);
      ("read_p99_ms", ms (Metrics.Histogram.quantile read_latency 0.99));
      ( "mds.kernel_ns_per_apply",
        kernel "apply" (fun () ->
            Kernels.apply ~n:(size (2 * sum (fun c -> c.W.mutations) traced))) );
      ( "mds.kernel_ns_per_readdir_entry",
        kernel "readdir" (fun () ->
            Kernels.readdir
              ~entries:
                (if readdirs > 0 then entries / readdirs
                 else l.inodes / max 1 (l.clusters * w.servers))
              ~n:(size (max entries l.inodes))) );
      ("acp.fences", float_of_int (ledger "acp.fence"));
      ("acp.stale_nacks", float_of_int (ledger "acp.stale_nack"));
      ("acp.fallbacks", float_of_int (ledger "txn.fallback"));
      ("prof.heartbeat_share", Layers.prof_share l [ "heartbeat" ]);
      ( "prof.compute_share",
        Layers.prof_share l [ "compute"; "local.compute"; "read.compute" ] );
      ("cluster.rejected", float_of_int (ledger "txn.rejected"));
      ( "chaos.faults_per_run",
        ratio (sum (fun c -> c.W.faults) traced) (sum (fun c -> c.W.runs) traced) );
      ("chaos.violations", float_of_int (sum (fun c -> c.W.violations) traced));
      ("obs.trace_overhead", float_of_int wall /. 1e6 /. host_ms);
      ("gen.host_share", gen_share);
    ]
    @ List.concat_map
        (fun p ->
          let n = Catalog.pname p in
          let c = cell_of p traced in
          let cl k = Layers.get c.W.layers.ledger k in
          let msgs = ratio (cl "msg.acp") c.committed in
          let model = (Acp.Cost_model.failure_free p).total_messages in
          let paths = (cell_of p spans).W.paths in
          let mean f =
            if paths = [] then 0.
            else fsum f paths /. float_of_int (List.length paths)
          in
          let mean_ms f = mean (fun p -> ms (f p)) in
          let open Obs.Breakdown in
          [
            ("acp.msgs_per_txn." ^ n, msgs);
            ("acp.forces_per_txn." ^ n, ratio (cl "log.sync") c.committed);
            ( "acp.msg_efficiency." ^ n,
              if msgs = 0. then 0. else float_of_int model /. msgs );
            ("path.network_ms." ^ n, mean_ms (fun p -> p.network));
            ("path.log_force_ms." ^ n, mean_ms (fun p -> p.log_force));
            ("path.disk_queue_ms." ^ n, mean_ms (fun p -> p.disk_queue));
            ("path.lock_wait_ms." ^ n, mean_ms (fun p -> p.lock_wait));
            ("path.compute_ms." ^ n, mean_ms (fun p -> p.compute));
            ("path.forces." ^ n, mean (fun p -> float_of_int p.forces));
            ("path.messages." ^ n, mean (fun p -> float_of_int p.messages));
            ("chaos.edge_coverage." ^ n, Layers.edge_coverage c.layers p);
          ])
        Catalog.protocols
  in
  List.map (fun (m : Catalog.metric) -> (m, List.assoc m.name v)) Catalog.per_layer

let measure (w : W.t) ~smoke ~seed ~seconds ~trace =
  let pass ~mode ~check =
    Gc.compact ();
    Host.span ~cat:w.name
      (match mode with
      | W.Timed -> "timed pass"
      | W.Traced -> "traced pass"
      | W.Spans -> "span replay")
      (fun () -> run_pass w ~smoke ~seed ~mode ~check)
  in
  (* Set-up samples are spread over the run, so some of them miss the
     shared machine's slow spells: three on the fresh heap, then one
     before each timed repetition. The first sample after a pass ran up
     to 70% slow (the pass's garbage), so that one is thrown away. *)
  let setup = ref [] in
  let sample () =
    Host.span ~cat:w.name "set-up sample" (fun () ->
        setup_sample w ~smoke ~seed
          ~min_ns:(if smoke then 1_000_000 else 50_000_000))
  in
  for _ = 1 to if smoke then 1 else 3 do
    setup := sample () :: !setup
  done;
  (* The first pass warms up; with [trace] it is the traced run. *)
  let first = pass ~mode:(if trace then W.Traced else W.Timed) ~check:false in
  let spans = if trace then pass ~mode:W.Spans ~check:false else [] in
  let start = Host.now_ns () in
  let min_reps = if smoke then 1 else 3 in
  (* A calibration sample before each timed repetition and one after the
     last, so the machine's speed is read over the same stretch of time.
     Smoke runs skip it: it would take most of their time. *)
  let calibration = ref [] in
  let calibrate () =
    if not smoke then calibration := float_of_int (Calib.sample ()) :: !calibration
  in
  let rec timed acc n =
    if n >= min_reps && Host.now_ns () - start >= int_of_float (seconds *. 1e9) then begin
      calibrate ();
      List.rev acc
    end
    else begin
      ignore (sample ());
      setup := sample () :: !setup;
      calibrate ();
      timed (pass ~mode:W.Timed ~check:false :: acc) (n + 1)
    end
  in
  let reps = timed [] 0 in
  let speed =
    if smoke then 1. else float_of_int Calib.reference_ns /. (quartiles !calibration).value
  in
  (* Last, because measuring the live heap forces full major collections
     with a cluster live, after which OCaml 5.1 lets the heap of the next
     passes grow several-fold. *)
  let final = pass ~mode:W.Timed ~check:true in
  let rep1 = List.hd reps in
  let all_cells = List.concat (first :: spans :: final :: reps) in
  let fault_free_sum f = if w.injects_faults then 0 else sum f all_cells in
  let host_ms = List.fold_left (fun acc r -> Float.min acc (wall_ms r)) infinity reps in
  let gen_share = ratio (sum (fun c -> c.W.gen_ns) first) (sum (fun c -> c.W.wall_ns) first) in
  let failures =
    List.concat_map (fun c -> List.rev c.W.failures) all_cells
    @ List.filter_map
        (fun (failed, msg) -> if failed then Some msg else None)
        [
          ( fault_free_sum (fun c -> c.W.aborted) > 0,
            "an operation aborted in a fault-free workload" );
          ( fault_free_sum (fun c -> Layers.get c.W.layers.ledger "reply.duplicate") > 0,
            "a transaction replied twice in a fault-free workload" );
          ( sum (fun c -> c.W.layers.imbalanced_tags) all_cells > 0,
            "Meter.check found an unbalanced wire tag" );
          ( List.exists (fun r -> exact_metrics r <> exact_metrics rep1) (final :: reps),
            "exact metrics differ between repetitions" );
          (not (same_chunks reps), "repetitions were cut into different chunks");
          (* The collectors allocate, so a traced pass differs in that. *)
          ( List.remove_assoc "alloc_kw_per_op" (exact_metrics first)
            <> List.remove_assoc "alloc_kw_per_op" (exact_metrics rep1),
            "exact metrics differ between the first pass and the repetitions" );
          (* Smoke runs are too short for fixed costs to amortise. *)
          (trace && (not smoke) && gen_share >= 0.05, "gen.host_share is 5% or more");
        ]
  in
  let failures =
    List.fold_left (fun acc f -> if List.mem f acc then acc else acc @ [ f ]) [] failures
  in
  {
    workload = w;
    reps = List.length reps;
    speed;
    attempted = sum (fun c -> c.W.mutations + c.reads) all_cells;
    failed = sum (fun c -> c.W.failed_ops) all_cells + fault_free_sum (fun c -> c.W.aborted);
    failures;
    end_to_end =
      end_to_end ~speed ~setup:!setup ~reps
        ~live_words:(List.fold_left (fun acc c -> max acc c.W.live_words) 0 final);
    per_layer =
      (if trace then per_layer w ~smoke ~traced:first ~spans ~host_ms ~gen_share
       else []);
  }
