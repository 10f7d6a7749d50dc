type spec = {
  servers : int;
  dir_count : int;
  clients : int;
  ops_per_client : int;
  window_ms : int;
  settle_deadline_ms : int;
}

let default_spec =
  {
    servers = 4;
    dir_count = 4;
    clients = 6;
    ops_per_client = 15;
    window_ms = 600;
    settle_deadline_ms = 120_000;
  }

(* Read-inclusive variant of the paper's write-dominated profile, so
   chaos runs also exercise the shared-lock lookup path. *)
let chaos_mix =
  Workload.
    { create_weight = 55; delete_weight = 20; rename_weight = 15;
      lookup_weight = 10 }

type tag_stats = {
  tag : string;
  sent : int;
  delivered : int;
  dup_delivered : int;
  dropped : int;
  rejected : int;
  in_flight : int;
}

type outcome = {
  seed : int;
  protocol : Acp.Protocol.kind;
  schedule : Schedule.t;
  origin : Simkit.Time.t;
  violations : Oracle.violation list;
  committed : int;
  aborted : int;
  trace : Simkit.Trace.entry list;
  journal : Obs.Journal.entry list;
  edge_hits : int array;
      (* per-Edges.id traversal counters, [||] when coverage was off *)
  fault_phases : (int * string * string) list;
      (* (schedule index, fault, protocol phase it landed in) *)
  meter : tag_stats list;  (* per-wire-tag conservation ledger *)
}

let passed o = o.violations = []

let regime =
  {
    Opc_cluster.Config.default with
    placement = Mds.Placement.Spread;
    txn_timeout = Simkit.Time.span_ms 300;
    heartbeat_interval = Simkit.Time.span_ms 20;
    detector_timeout = Simkit.Time.span_ms 100;
    restart_delay = Simkit.Time.span_ms 50;
    auto_restart = true;
  }

let config_of spec ~protocol ~seed =
  {
    regime with
    servers = spec.servers;
    protocol;
    seed;
    (* Coverage is passive (no RNG draws, no engine events), so turning
       it on for every chaos run changes nothing about the runs while
       arming the conservation oracle and the fault-phase matrix. *)
    record_coverage = true;
  }

let layout cluster ~servers ~dirs =
  let root = Opc_cluster.Cluster.root cluster in
  Array.init dirs (fun i ->
      Opc_cluster.Cluster.add_directory cluster ~parent:root
        ~name:(Printf.sprintf "d%d" i)
        ~server:(i mod servers) ())

(* Workload draws must not depend on how many draws schedule generation
   consumed, or replaying an edited schedule would perturb the workload
   and break bit-identical replay. Hence independently derived streams,
   not splits of the schedule RNG. *)
let closed_loop_rng seed = Simkit.Rng.create ~seed:(seed + 1_000_003)
let open_loop_rng seed = Simkit.Rng.create ~seed:(seed + 2_000_003)

let generate_schedule spec ~seed =
  Schedule.generate
    ~rng:(Simkit.Rng.create ~seed)
    ~servers:spec.servers ~window_ms:spec.window_ms

let check_schedule ~servers schedule =
  match Schedule.validate ~servers schedule with
  | Ok () -> ()
  | Error e -> invalid_arg ("Runner.check_schedule: " ^ e)

let label_cleanup = Simkit.Label.v Chaos "chaos.cleanup"

let arm ?observe cluster ~servers ~window_ms schedule =
  let origin = Opc_cluster.Cluster.now cluster in
  Opc_cluster.Fault.inject ?observe cluster
    (Schedule.to_faults ~origin ~servers schedule);
  (* Once the window closes, restore a fault-free environment so a
     failure to quiesce afterwards is a genuine liveness bug, not a
     schedule that never stopped hurting. *)
  let baseline = (Opc_cluster.Cluster.config cluster).network in
  ignore
    (Simkit.Engine.schedule_at
       (Opc_cluster.Cluster.engine cluster)
       ~label:label_cleanup
       ~at:(Simkit.Time.add origin (Simkit.Time.span_ms (window_ms + 1)))
       (fun () ->
         Opc_cluster.Cluster.heal cluster;
         Opc_cluster.Cluster.set_drop_probability cluster
           baseline.Netsim.Network.drop_probability;
         Opc_cluster.Cluster.set_duplicate_probability cluster
           baseline.Netsim.Network.duplicate_probability;
         Opc_cluster.Cluster.set_disk_slowdown cluster 1.0;
         Opc_cluster.Cluster.set_fencing_available cluster true))

let each_seed ?(protocols = Acp.Protocol.all) ?(first_seed = 0) ~seeds run =
  List.concat_map
    (fun protocol ->
      List.init seeds (fun i -> run ~protocol ~seed:(first_seed + i)))
    protocols

let meter_stats cluster =
  let m = (Opc_cluster.Cluster.sink cluster).meter in
  if not (Obs.Meter.is_recording m) then []
  else
    List.init (Obs.Meter.tags m) (fun tag ->
        {
          tag =
            (if tag = Acp.Codec.tag_count then "HEARTBEAT"
             else Acp.Codec.tag_name tag);
          sent = Obs.Meter.sent m tag;
          delivered = Obs.Meter.delivered m tag;
          dup_delivered = Obs.Meter.dup_delivered m tag;
          dropped = Obs.Meter.dropped m tag;
          rejected = Obs.Meter.rejected m tag;
          in_flight = Obs.Meter.in_flight m tag;
        })

(* Common run body, parameterized by the cluster config so the autopsy
   path can replay the same (spec, protocol, seed, schedule) with every
   collector enabled. Returns the cluster too — observability callers
   read the tracer/journal/recorder/profiler off it after the run. *)
let run ?schedule spec ~(config : Opc_cluster.Config.t) ~seed =
  let protocol = config.Opc_cluster.Config.protocol in
  let schedule =
    match schedule with Some s -> s | None -> generate_schedule spec ~seed
  in
  check_schedule ~servers:spec.servers schedule;
  let cluster = Opc_cluster.Cluster.create config in
  let dirs = layout cluster ~servers:spec.servers ~dirs:spec.dir_count in
  let workload =
    Workload.closed_loop cluster ~dirs ~clients:spec.clients
      ~ops_per_client:spec.ops_per_client ~mix:chaos_mix
      ~rng:(closed_loop_rng seed) ()
  in
  let origin = Opc_cluster.Cluster.now cluster in
  (* Fault-phase attribution: at the instant a fault fires, the
     cluster's most recent coverage edge names the protocol phase it
     landed in ("idle" before any transition). The hook rides the
     existing on_fire slot, so it cannot perturb event order. *)
  let fault_phases = ref [] in
  let sink = Opc_cluster.Cluster.sink cluster in
  let cover = sink.coverage in
  let observe ~index e =
    let phase =
      match Obs.Coverage.last_hit cover with
      | -1 -> "idle"
      | id -> (Acp.Edges.get id).Acp.Edges.dst
    in
    fault_phases :=
      (index, Fmt.str "@[<h>%a@]" Opc_cluster.Fault.pp_event e, phase)
      :: !fault_phases
  in
  let violations =
    try
      arm ~observe cluster ~servers:spec.servers ~window_ms:spec.window_ms
        schedule;
      Opc_cluster.Cluster.run_for cluster
        (Simkit.Time.span_ms (spec.window_ms + 200));
      let settled =
        Opc_cluster.Cluster.settle
          ~deadline:(Simkit.Time.span_ms spec.settle_deadline_ms)
          cluster
      in
      Oracle.check cluster ~workload ~dirs ~settled
    with exn -> [ Oracle.Run_exception (Printexc.to_string exn) ]
  in
  let committed, aborted = Opc_cluster.Cluster.txn_counts cluster in
  let outcome =
    {
      seed;
      protocol;
      schedule;
      origin;
      violations;
      committed;
      aborted;
      trace = Simkit.Trace.entries sink.trace;
      journal = Obs.Journal.entries sink.journal;
      edge_hits = Obs.Coverage.counts cover;
      fault_phases = List.rev !fault_phases;
      meter = meter_stats cluster;
    }
  in
  (outcome, cluster)

let execute ?schedule spec ~protocol ~seed =
  fst (run ?schedule spec ~config:(config_of spec ~protocol ~seed) ~seed)

let execute_config ?schedule spec ~config ~seed =
  fst (run ?schedule spec ~config ~seed)

let pp_outcome ppf o =
  if passed o then
    Fmt.pf ppf "%a seed %d: pass (%d committed, %d aborted)"
      Acp.Protocol.pp o.protocol o.seed o.committed o.aborted
  else
    Fmt.pf ppf "@[<v>%a seed %d: FAIL@,%a@,schedule: %a@]" Acp.Protocol.pp
      o.protocol o.seed
      Fmt.(list ~sep:cut Oracle.pp_violation)
      o.violations Schedule.pp o.schedule

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)
(* ------------------------------------------------------------------ *)

type campaign = { spec : spec; outcomes : outcome list }

let failures c = List.filter (fun o -> not (passed o)) c.outcomes

let campaign ?protocols ?first_seed ~seeds spec =
  { spec; outcomes = each_seed ?protocols ?first_seed ~seeds (execute spec) }

let table c =
  let t =
    Metrics.Table.create
      ~columns:
        [ "protocol"; "runs"; "pass"; "fail"; "committed"; "aborted" ]
  in
  let protocols =
    List.filter
      (fun p -> List.exists (fun o -> o.protocol = p) c.outcomes)
      Acp.Protocol.all
  in
  List.iter
    (fun p ->
      let runs = List.filter (fun o -> o.protocol = p) c.outcomes in
      let pass = List.length (List.filter passed runs) in
      let committed =
        List.fold_left (fun acc o -> acc + o.committed) 0 runs
      in
      let aborted = List.fold_left (fun acc o -> acc + o.aborted) 0 runs in
      Metrics.Table.add_rowf t "%s|%d|%d|%d|%d|%d" (Acp.Protocol.name p)
        (List.length runs) pass
        (List.length runs - pass)
        committed aborted)
    protocols;
  t

(* ------------------------------------------------------------------ *)
(* Shrinking a failure                                                 *)
(* ------------------------------------------------------------------ *)

let still_fails spec ~protocol ~seed schedule =
  not (passed (execute ~schedule spec ~protocol ~seed))

let shrink ?max_attempts spec outcome =
  Shrink.minimize ?max_attempts
    ~still_fails:
      (still_fails spec ~protocol:outcome.protocol ~seed:outcome.seed)
    outcome.schedule

let repro_snippet spec ~protocol ~seed schedule =
  Fmt.str
    "@[<v>(* chaos repro: %s, seed %d *)@,\
     let schedule =@,\
    \  %a@,\
     @,\
     let () =@,\
    \  let spec =@,\
    \    { Chaos.Runner.default_spec with@,\
    \      servers = %d; dir_count = %d; clients = %d;@,\
    \      ops_per_client = %d; window_ms = %d } in@,\
    \  let o =@,\
    \    Chaos.Runner.execute ~schedule spec@,\
    \      ~protocol:Acp.Protocol.%s ~seed:%d in@,\
    \  List.iter@,\
    \    (Fmt.pr \"%%a@@.\" Chaos.Oracle.pp_violation)@,\
    \    o.Chaos.Runner.violations@]"
    (Acp.Protocol.name protocol) seed Schedule.pp_ocaml schedule spec.servers
    spec.dir_count spec.clients spec.ops_per_client spec.window_ms
    (match protocol with
    | Acp.Protocol.Prn -> "Prn"
    | Acp.Protocol.Prc -> "Prc"
    | Acp.Protocol.Ep -> "Ep"
    | Acp.Protocol.Opc -> "Opc"
    | Acp.Protocol.Lp1 -> "Lp1")
    seed

(* ------------------------------------------------------------------ *)
(* Observed replay and incident autopsy                                *)
(* ------------------------------------------------------------------ *)

let repro_command spec ~protocol ~seed =
  Printf.sprintf
    "dune exec bin/chaos.exe -- -p %s --seeds 1 --first-seed %d --servers %d \
     --clients %d --ops %d --duration %d%s --shrink"
    (Acp.Protocol.name protocol)
    seed spec.servers spec.clients spec.ops_per_client spec.window_ms
    (if spec.settle_deadline_ms = default_spec.settle_deadline_ms then ""
     else Printf.sprintf " --settle-deadline %d" spec.settle_deadline_ms)

(* A 1PC or L1PC cluster also hosts the PrN fallback engine, so a
   run's bitmap meaningfully covers both maps; reporting the other
   three protocols' edges as "never hit" would be noise, not a gap. *)
let hosted_protocols = function
  | Acp.Protocol.Opc -> [ Acp.Protocol.Opc; Acp.Protocol.Prn ]
  | Acp.Protocol.Lp1 -> [ Acp.Protocol.Lp1; Acp.Protocol.Prn ]
  | p -> [ p ]

let coverage_summaries ~protocol edge_hits =
  if Array.length edge_hits = 0 then []
  else
    List.map
      (fun p ->
        let edges = Acp.Edges.of_protocol p in
        let never =
          List.filter (fun (e : Acp.Edges.edge) -> edge_hits.(e.id) = 0) edges
        in
        {
          Obs.Autopsy.cov_protocol = Acp.Protocol.name p;
          declared = List.length edges;
          edges_hit = List.length edges - List.length never;
          never_hit = List.map Acp.Edges.name never;
        })
      (hosted_protocols protocol)

let observed_config spec ~protocol ~seed =
  {
    (config_of spec ~protocol ~seed) with
    record_spans = true;
    record_journal = true;
    sample_period = Some (Simkit.Time.span_ms 5);
    record_prof = true;
    recorder_size = Some 4096;
  }

let execute_observed ?schedule spec ~protocol ~seed =
  let outcome, cluster =
    run ?schedule spec ~config:(observed_config spec ~protocol ~seed) ~seed
  in
  let verdict =
    if passed outcome then "pass"
    else
      Fmt.str "%a"
        Fmt.(list ~sep:(any "; ") Oracle.pp_violation)
        outcome.violations
  in
  let sink = Opc_cluster.Cluster.sink cluster in
  let source =
    {
      Obs.Autopsy.verdict;
      protocol = Acp.Protocol.name protocol;
      seed;
      repro = repro_command spec ~protocol ~seed;
      schedule = Fmt.str "%a" Schedule.pp_ocaml outcome.schedule;
      diagnostics =
        Fmt.str "%a" Opc_cluster.Cluster.pp_diagnostics
          (Opc_cluster.Cluster.settle_diagnostics cluster);
      sink;
      profile = Some (Obs.Prof.report sink.prof);
      coverage = coverage_summaries ~protocol outcome.edge_hits;
    }
  in
  (outcome, source)

let autopsy ?max_attempts ~dir spec (o : outcome) =
  let schedule =
    if passed o then o.schedule
    else (shrink ?max_attempts spec o).Shrink.schedule
  in
  let _, source =
    execute_observed ~schedule spec ~protocol:o.protocol ~seed:o.seed
  in
  let bundle_dir =
    Filename.concat dir
      (Printf.sprintf "INCIDENT_%s_%d" (Acp.Protocol.name o.protocol) o.seed)
  in
  ignore (Obs.Autopsy.write ~dir:bundle_dir source);
  (* A bundle nobody can parse is worse than none: prove the artifacts
     are well-formed before handing the directory to a human. *)
  (match Obs.Autopsy.validate bundle_dir with
  | Ok () -> ()
  | Error e -> failwith ("Runner.autopsy: bundle failed validation: " ^ e));
  bundle_dir
