(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation plus this reproduction's ablation studies (experiment
   index in DESIGN.md §4).

     dune exec bench/main.exe              -- everything below in order
     dune exec bench/main.exe table1       -- E1: Table I
     dune exec bench/main.exe fig6         -- E2: Figure 6
     dune exec bench/main.exe latency      -- A6: latency decomposition
     dune exec bench/main.exe ablate-disk  -- A1: disk-bandwidth sweep
     dune exec bench/main.exe ablate-net   -- A2: network-latency sweep
     dune exec bench/main.exe ablate-conc  -- A3: concurrency sweep
     dune exec bench/main.exe ablate-colo  -- locality sweep
     dune exec bench/main.exe ablate-batch -- A4: aggregation (the paper's SVI)
     dune exec bench/main.exe aborts       -- E1b: abort-path accounting
     dune exec bench/main.exe shared-disk  -- A9: shared vs private devices
     dune exec bench/main.exe ablate-dirs  -- A10: coordinator scaling
     dune exec bench/main.exe group-commit -- A11: WAL group commit
     dune exec bench/main.exe faults       -- A5: crash-point matrix
     dune exec bench/main.exe micro        -- Bechamel micro-benchmarks
     dune exec bench/main.exe scale        -- A12: 4->64-server scale campaign
     dune exec bench/main.exe breakdown    -- A13: measured critical-path spans
     dune exec bench/main.exe timeline     -- A14: recovery journal, gauges, MTTR
     dune exec bench/main.exe profile      -- A14b: host CPU/alloc attribution
     dune exec bench/main.exe check        -- events/s gate vs a scale baseline
     dune exec bench/main.exe overload     -- A15: open-loop goodput curves

   Every subcommand writes its results as machine-readable JSON — to
   BENCH_<name>.json by default, or wherever [--json PATH] points
   (creating missing parent directories) — reads it back through the
   strict Obs.Json reader (exit 1 if it does not parse) and prints the
   path on success; schemas in EXPERIMENTS.md. [scale] additionally takes
   [--smoke] (tiny sweep for CI), [--seeds N] and [--txns N].
   [breakdown] drops one Chrome trace per protocol under BENCH_traces/
   and exits nonzero if the measured critical-path force/message counts
   disagree with Table I. [timeline] ([--smoke] = 1PC only) writes one
   lifecycle journal per protocol as BENCH_timeline.<protocol>.jsonl
   and exits nonzero if a recovery window's start disagrees with the
   injected crash instant. [profile] runs one host-profiled scale point
   per protocol and writes BENCH_profile.json plus a speedscope flame
   graph per protocol. [check] re-measures the heaviest 1PC point
   of [--against] (default BENCH_scale.json) and exits nonzero if
   events/s fell more than [--tolerance] (default 0.15) below the
   baseline, naming the subsystem whose self-time grew most when the
   baseline carries a profile section. Unknown subcommands and flags
   exit with status 2. *)

let section title =
  Fmt.pr "@.== %s ==@." title

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

module Json = Obs.Json

(* Every artifact the bench writes must read back through the strict
   reader; a failure names the file. *)
let reads_back path =
  match Json.of_file path with
  | _ -> true
  | exception Json.Parse_error msg ->
      Fmt.epr "bench: %s is invalid JSON: %s@." path msg;
      false

(* ------------------------------------------------------------------ *)
(* E1 — Table I                                                        *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "E1 / Table I: protocol cost accounting (analytic = paper)";
  Opc.Metrics.Table.print (Opc.Acp.Cost_model.table ());
  Fmt.pr "@.-- instrumented simulation (totals per transaction) --@.";
  let t =
    Opc.Metrics.Table.create
      ~columns:[ ""; "sync writes/txn"; "async writes/txn"; "ACP msgs/txn" ]
  in
  let rows =
    List.map
      (fun kind ->
        let m = Opc.Experiment.run_table1_measured kind in
        Opc.Metrics.Table.add_row t
          [
            Opc.Acp.Protocol.name kind;
            Fmt.str "%.2f" m.Opc.Experiment.sync_writes_per_txn;
            Fmt.str "%.2f" m.Opc.Experiment.async_writes_per_txn;
            Fmt.str "%.2f" m.Opc.Experiment.acp_messages_per_txn;
          ];
        Json.Obj
          [
            ("protocol", Json.Str (Opc.Acp.Protocol.name kind));
            ("sync_writes_per_txn", Json.Float m.sync_writes_per_txn);
            ("async_writes_per_txn", Json.Float m.async_writes_per_txn);
            ("acp_messages_per_txn", Json.Float m.acp_messages_per_txn);
          ])
      Opc.Acp.Protocol.all
  in
  Opc.Metrics.Table.print t;
  Json.Obj [ ("benchmark", Json.Str "table1"); ("rows", Json.List rows) ]

(* ------------------------------------------------------------------ *)
(* E2 — Figure 6                                                       *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  section "E2 / Figure 6: distributed namespace operations per second";
  Fmt.pr
    "(100 concurrent CREATEs in one directory; 1us methods, 100us network, \
     400 KB/s shared disk)@.";
  let t =
    Opc.Metrics.Table.create
      ~columns:
        [
          "";
          "paper [ops/s]";
          "measured [ops/s]";
          "committed";
          "aborted";
          "mean latency";
          "mean lock hold";
        ]
  in
  let points = Opc.Experiment.run_fig6 () in
  let rows =
    List.map
      (fun (p : Opc.Experiment.fig6_point) ->
        Opc.Metrics.Table.add_row t
          [
            Opc.Acp.Protocol.name p.protocol;
            Fmt.str "%.2f" (Opc.Experiment.paper_fig6 p.protocol);
            Fmt.str "%.2f" p.throughput;
            string_of_int p.committed;
            string_of_int p.aborted;
            Fmt.str "%a" Opc.Simkit.Time.pp_span p.mean_latency;
            Fmt.str "%a" Opc.Simkit.Time.pp_span p.mean_lock_hold;
          ];
        Json.Obj
          [
            ("protocol", Json.Str (Opc.Acp.Protocol.name p.protocol));
            ("paper_ops_per_s", Json.Float (Opc.Experiment.paper_fig6 p.protocol));
            ("ops_per_s", Json.Float p.throughput);
            ("committed", Json.Int p.committed);
            ("aborted", Json.Int p.aborted);
            ( "mean_latency_ns",
              Json.Int (Opc.Simkit.Time.span_to_ns p.mean_latency) );
            ( "mean_lock_hold_ns",
              Json.Int (Opc.Simkit.Time.span_to_ns p.mean_lock_hold) );
          ])
      points
  in
  Opc.Metrics.Table.print t;
  let find k =
    (List.find (fun (p : Opc.Experiment.fig6_point) -> p.protocol = k) points)
      .throughput
  in
  let gain =
    (find Opc.Acp.Protocol.Opc -. find Opc.Acp.Protocol.Prn)
    /. find Opc.Acp.Protocol.Prn *. 100.0
  in
  Fmt.pr "1PC gain over PrN: %+.1f%% (paper: >55%%)@." gain;
  Json.Obj
    [
      ("benchmark", Json.Str "fig6");
      ("rows", Json.List rows);
      ("opc_gain_over_prn_pct", Json.Float gain);
    ]

(* ------------------------------------------------------------------ *)
(* A6 — latency decomposition                                          *)
(* ------------------------------------------------------------------ *)

let latency () =
  section
    "A6: why 1PC wins — critical path and lock hold of one isolated CREATE";
  let t =
    Opc.Metrics.Table.create
      ~columns:
        [ ""; "client latency"; "lock hold"; "paper critical path (sync,msgs)" ]
  in
  let rows =
    List.map
      (fun protocol ->
        let p = Opc.Experiment.run_fig6_point ~count:1 protocol in
        let c = Opc.Acp.Cost_model.failure_free protocol in
        Opc.Metrics.Table.add_row t
          [
            Opc.Acp.Protocol.name protocol;
            Fmt.str "%a" Opc.Simkit.Time.pp_span p.mean_latency;
            Fmt.str "%a" Opc.Simkit.Time.pp_span p.mean_lock_hold;
            Fmt.str "(%d, %d)" c.Opc.Acp.Cost_model.critical_sync
              c.Opc.Acp.Cost_model.critical_messages;
          ];
        Json.Obj
          [
            ("protocol", Json.Str (Opc.Acp.Protocol.name protocol));
            ("latency_ns", Json.Int (Opc.Simkit.Time.span_to_ns p.mean_latency));
            ( "lock_hold_ns",
              Json.Int (Opc.Simkit.Time.span_to_ns p.mean_lock_hold) );
            ("critical_sync", Json.Int c.Opc.Acp.Cost_model.critical_sync);
            ( "critical_messages",
              Json.Int c.Opc.Acp.Cost_model.critical_messages );
          ])
      Opc.Acp.Protocol.all
  in
  Opc.Metrics.Table.print t;
  Json.Obj [ ("benchmark", Json.Str "latency"); ("rows", Json.List rows) ]

(* ------------------------------------------------------------------ *)
(* Breakdown — measured critical-path decomposition                    *)
(* ------------------------------------------------------------------ *)

(* Span-recorded runs, one isolated CREATE at a time, decomposed into
   the paper's critical-path categories. The measured force/message
   counts are cross-checked against Table I — a mismatch is a hard
   failure (nonzero exit), because it means the instrumentation, the
   walk, or a protocol drifted. Also drops one Chrome trace per
   protocol next to the JSON for chrome://tracing / Perfetto. *)
(* [wrong_l1pc_row] is a negative control for CI: it swaps L1PC's
   expected Table-I row for a deliberately wrong one, so the run MUST
   report a mismatch and exit nonzero — proving the cross-check gate
   actually compares rather than rubber-stamping. *)
let breakdown ?(wrong_l1pc_row = false) ~count () =
  section
    (Fmt.str
       "breakdown: critical-path latency decomposition (%d isolated CREATEs \
        per protocol)"
       count);
  let points =
    List.map (fun kind -> Opc.Experiment.run_breakdown ~count kind)
      Opc.Acp.Protocol.all
  in
  Opc.Metrics.Table.print
    (Obs.Breakdown.to_table
       (List.map
          (fun (p : Opc.Experiment.breakdown_point) ->
            (Opc.Acp.Protocol.name p.kind, p.summary))
          points));
  let failures = ref 0 in
  let rows =
    List.map
      (fun (p : Opc.Experiment.breakdown_point) ->
        let name = Opc.Acp.Protocol.name p.kind in
        let costs = Opc.Acp.Cost_model.paper_table1 p.kind in
        let costs =
          if wrong_l1pc_row && p.kind = Opc.Acp.Protocol.Lp1 then
            {
              costs with
              Opc.Acp.Cost_model.critical_sync = 1;
              critical_messages = 3;
            }
          else costs
        in
        let s = p.summary in
        let check label expected got =
          match got with
          | Some g when g = expected -> true
          | _ ->
              incr failures;
              Fmt.epr
                "bench breakdown: %s %s mismatch: Table I says %d, measured \
                 %a@."
                name label expected
                Fmt.(option ~none:(any "non-uniform") int)
                got;
              false
        in
        let forces_ok =
          check "critical forces" costs.Opc.Acp.Cost_model.critical_sync
            s.Obs.Breakdown.uniform_forces
        in
        let messages_ok =
          check "critical messages" costs.Opc.Acp.Cost_model.critical_messages
            s.uniform_messages
        in
        let trace_path = Fmt.str "BENCH_traces/%s.trace.json" name in
        Obs.Export.to_file trace_path p.tracer;
        Json.Obj
          [
            ("protocol", Json.Str name);
            ("txns", Json.Int s.txns);
            ("mean_window_ns", Json.Float s.mean_window);
            ("mean_network_ns", Json.Float s.mean_network);
            ("mean_log_force_ns", Json.Float s.mean_log_force);
            ("mean_disk_queue_ns", Json.Float s.mean_disk_queue);
            ("mean_lock_wait_ns", Json.Float s.mean_lock_wait);
            ("mean_compute_ns", Json.Float s.mean_compute);
            ("mean_forces", Json.Float s.mean_forces);
            ("mean_messages", Json.Float s.mean_messages);
            ( "critical_forces_table1",
              Json.Int costs.Opc.Acp.Cost_model.critical_sync );
            ( "critical_messages_table1",
              Json.Int costs.Opc.Acp.Cost_model.critical_messages );
            ("matches_table1", Json.Bool (forces_ok && messages_ok));
            ("chrome_trace", Json.Str trace_path);
          ])
      points
  in
  Fmt.pr
    "(per-txn critical path; open BENCH_traces/<protocol>.trace.json in \
     chrome://tracing to see the spans)@.";
  if !failures > 0 then
    Fmt.epr "bench breakdown: %d cross-check failure(s)@." !failures;
  ( Json.Obj
      [
        ("benchmark", Json.Str "breakdown");
        ("txns_per_protocol", Json.Int count);
        ("rows", Json.List rows);
      ],
    !failures = 0 )

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)
(* ------------------------------------------------------------------ *)

let print_sweep ~x_label points =
  let t =
    Opc.Metrics.Table.create
      ~columns:
        ((x_label :: List.map Opc.Acp.Protocol.name Opc.Acp.Protocol.all)
        @ [ "1PC/PrN" ])
  in
  List.iter
    (fun (p : Opc.Experiment.sweep_point) ->
      let v k = List.assoc k p.Opc.Experiment.series in
      Opc.Metrics.Table.add_row t
        ((Fmt.str "%g" p.Opc.Experiment.x
         :: List.map (fun k -> Fmt.str "%.1f" (v k)) Opc.Acp.Protocol.all)
        @ [ Fmt.str "%.2fx" (v Opc.Acp.Protocol.Opc /. v Opc.Acp.Protocol.Prn) ]
        ))
    points;
  Opc.Metrics.Table.print t

let sweep_json ~name ~x_label points =
  Json.Obj
    [
      ("benchmark", Json.Str name);
      ("x_label", Json.Str x_label);
      ( "points",
        Json.List
          (List.map
             (fun (p : Opc.Experiment.sweep_point) ->
               Json.Obj
                 (("x", Json.Float p.Opc.Experiment.x)
                 :: List.map
                      (fun (k, v) ->
                        (Opc.Acp.Protocol.name k, Json.Float v))
                      p.Opc.Experiment.series))
             points) );
    ]

let ablate_disk () =
  section "A1: throughput [ops/s] vs shared-disk bandwidth [KB/s]";
  let points = Opc.Experiment.sweep_disk_bandwidth () in
  print_sweep ~x_label:"KB/s" points;
  sweep_json ~name:"ablate-disk" ~x_label:"KB/s" points

let ablate_net () =
  section "A2: throughput [ops/s] vs one-way network latency [us]";
  let points = Opc.Experiment.sweep_network_latency () in
  print_sweep ~x_label:"us" points;
  sweep_json ~name:"ablate-net" ~x_label:"us" points

let ablate_conc () =
  section "A3: throughput [ops/s] vs offered concurrency";
  let points = Opc.Experiment.sweep_concurrency () in
  print_sweep ~x_label:"in flight" points;
  sweep_json ~name:"ablate-conc" ~x_label:"in_flight" points

let ablate_colo () =
  section "locality: throughput [ops/s] vs colocation probability";
  let points = Opc.Experiment.sweep_colocation () in
  print_sweep ~x_label:"p(colocated)" points;
  sweep_json ~name:"ablate-colo" ~x_label:"p_colocated" points

let ablate_batch () =
  section
    "A4 / paper SVI: throughput [ops/s] vs aggregation batch size (100 \
     CREATEs, one directory)";
  let points = Opc.Experiment.sweep_batching () in
  print_sweep ~x_label:"batch" points;
  sweep_json ~name:"ablate-batch" ~x_label:"batch" points

(* ------------------------------------------------------------------ *)
(* E1b — abort-path accounting                                         *)
(* ------------------------------------------------------------------ *)

let aborts () =
  section
    "E1b / SII-D: abort-path accounting (worker votes NO; analytic vs \
     measured per transaction)";
  let t =
    Opc.Metrics.Table.create
      ~columns:
        [
          "";
          "sync (analytic)";
          "sync (measured)";
          "async (a)";
          "async (m)";
          "ACP msgs (a)";
          "ACP msgs (m)";
        ]
  in
  let rows =
    List.map
      (fun kind ->
        let a = Opc.Acp.Cost_model.worker_rejected kind in
        let m = Opc.Experiment.run_abort_measured kind in
        Opc.Metrics.Table.add_row t
          [
            Opc.Acp.Protocol.name kind;
            string_of_int a.Opc.Acp.Cost_model.total_sync;
            Fmt.str "%.2f" m.Opc.Experiment.sync_writes_per_txn;
            string_of_int a.Opc.Acp.Cost_model.total_async;
            Fmt.str "%.2f" m.Opc.Experiment.async_writes_per_txn;
            string_of_int a.Opc.Acp.Cost_model.total_messages;
            Fmt.str "%.2f" m.Opc.Experiment.acp_messages_per_txn;
          ];
        Json.Obj
          [
            ("protocol", Json.Str (Opc.Acp.Protocol.name kind));
            ("sync_analytic", Json.Int a.Opc.Acp.Cost_model.total_sync);
            ("sync_measured", Json.Float m.Opc.Experiment.sync_writes_per_txn);
            ("async_analytic", Json.Int a.Opc.Acp.Cost_model.total_async);
            ("async_measured", Json.Float m.async_writes_per_txn);
            ("messages_analytic", Json.Int a.Opc.Acp.Cost_model.total_messages);
            ("messages_measured", Json.Float m.acp_messages_per_txn);
          ])
      Opc.Acp.Protocol.all
  in
  Opc.Metrics.Table.print t;
  Fmt.pr "PrC aborts cost exactly PrN aborts (the SII-D claim); EP pays \
          one wasted eager prepare; 1PC aborts without any message.@.";
  Json.Obj [ ("benchmark", Json.Str "aborts"); ("rows", Json.List rows) ]

(* ------------------------------------------------------------------ *)
(* A10 — coordinator scaling                                           *)
(* ------------------------------------------------------------------ *)

let ablate_dirs () =
  section
    "A10: coordinator scaling — 100 CREATEs spread over N directories on \
     N servers";
  Fmt.pr "-- shared device (the paper's architecture) --@.";
  let shared = Opc.Experiment.sweep_directories () in
  print_sweep ~x_label:"dirs" shared;
  Fmt.pr "-- one device per server --@.";
  let independent = Opc.Experiment.sweep_directories ~independent_disks:true () in
  print_sweep ~x_label:"dirs" independent;
  Fmt.pr
    "(on the shared spindle more coordinators barely help; with private \
     devices throughput scales with the directory count)@.";
  Json.Obj
    [
      ("benchmark", Json.Str "ablate-dirs");
      ("shared", sweep_json ~name:"shared" ~x_label:"dirs" shared);
      ( "independent",
        sweep_json ~name:"independent" ~x_label:"dirs" independent );
    ]

(* ------------------------------------------------------------------ *)
(* A11 — group commit                                                  *)
(* ------------------------------------------------------------------ *)

let group_commit () =
  section
    "A11: log-manager group commit — Figure-6 throughput without / with \
     coalesced forces";
  let t =
    Opc.Metrics.Table.create
      ~columns:[ ""; "plain [ops/s]"; "group commit [ops/s]"; "speedup" ]
  in
  let rows =
    List.map
      (fun (kind, plain, grouped) ->
        Opc.Metrics.Table.add_row t
          [
            Opc.Acp.Protocol.name kind;
            Fmt.str "%.1f" plain;
            Fmt.str "%.1f" grouped;
            Fmt.str "%.2fx" (grouped /. plain);
          ];
        Json.Obj
          [
            ("protocol", Json.Str (Opc.Acp.Protocol.name kind));
            ("plain_ops_per_s", Json.Float plain);
            ("grouped_ops_per_s", Json.Float grouped);
          ])
      (Opc.Experiment.compare_group_commit ())
  in
  Opc.Metrics.Table.print t;
  Fmt.pr
    "(group commit coalesces concurrent forces into one transfer. Every \
     protocol gains; 1PC gains most — its single lock-held force per \
     transaction coalesces across the whole burst, while the 2PC \
     family's voting round trips keep breaking the batchable windows)@.";
  Json.Obj [ ("benchmark", Json.Str "group-commit"); ("rows", Json.List rows) ]

(* ------------------------------------------------------------------ *)
(* A9 — shared vs independent devices                                  *)
(* ------------------------------------------------------------------ *)

let shared_disk () =
  section
    "A9: the shared-storage assumption — Figure-6 throughput, one shared \
     400 KB/s device vs one private device per server";
  let t =
    Opc.Metrics.Table.create
      ~columns:[ ""; "shared [ops/s]"; "independent [ops/s]"; "speedup" ]
  in
  let rows =
    List.map
      (fun (kind, shared, independent) ->
        Opc.Metrics.Table.add_row t
          [
            Opc.Acp.Protocol.name kind;
            Fmt.str "%.1f" shared;
            Fmt.str "%.1f" independent;
            Fmt.str "%.2fx" (independent /. shared);
          ];
        Json.Obj
          [
            ("protocol", Json.Str (Opc.Acp.Protocol.name kind));
            ("shared_ops_per_s", Json.Float shared);
            ("independent_ops_per_s", Json.Float independent);
          ])
      (Opc.Experiment.compare_shared_vs_independent ())
  in
  Opc.Metrics.Table.print t;
  Fmt.pr
    "(client-visible rate of the 100-transaction burst; 1PC profits most \
     because its only lock-held force gets a dedicated device, and its \
     coordinator-side commits drain off the client path)@.";
  Json.Obj [ ("benchmark", Json.Str "shared-disk"); ("rows", Json.List rows) ]

(* ------------------------------------------------------------------ *)
(* A5 — crash-point matrix                                             *)
(* ------------------------------------------------------------------ *)

let faults () =
  section
    "A5: crash-point outcomes (one CREATE, crash every 2ms; every cell \
     passed atomicity + invariant checks)";
  let rows =
    List.map
      (fun (protocol, server, cells) ->
        let name = Opc.Acp.Protocol.name protocol in
        Fmt.pr "%-4s crash %s  %s@." name
          (if server = 0 then "coord " else "worker")
          cells;
        Json.Obj
          [
            ("protocol", Json.Str name);
            ( "crashed",
              Json.Str (if server = 0 then "coordinator" else "worker") );
            ("outcomes", Json.Str cells);
          ])
      (Opc.Experiment.run_fault_matrix ())
  in
  Fmt.pr "(time axis: 0..60ms in 2ms steps; 1PC always commits because \
          the coordinator re-executes from its REDO record)@.";
  Json.Obj
    [
      ("benchmark", Json.Str "faults");
      ( "grid_ms",
        Json.List
          (List.map (fun ms -> Json.Int ms) Opc.Experiment.fault_grid_ms) );
      ("rows", Json.List rows);
    ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "micro-benchmarks (Bechamel; real time per run)";
  let open Bechamel in
  let engine_events =
    Test.make ~name:"simkit: engine 1000 events"
      (Staged.stage (fun () ->
           let e = Opc.Simkit.Engine.create () in
           for i = 1 to 1000 do
             ignore
               (Opc.Simkit.Engine.schedule e
                  ~after:(Opc.Simkit.Time.span_ns i) (fun () -> ()))
           done;
           ignore (Opc.Simkit.Engine.run e)))
  in
  let txn_of kind =
    Test.make
      ~name:(Printf.sprintf "e2e: one %s CREATE" (Opc.Acp.Protocol.name kind))
      (Staged.stage (fun () ->
           let cluster =
             Opc.Cluster.create
               {
                 Opc.Config.default with
                 servers = 2;
                 protocol = kind;
                 placement = Opc.Mds.Placement.Spread;
               }
           in
           let dir =
             Opc.Cluster.add_directory cluster
               ~parent:(Opc.Cluster.root cluster)
               ~name:"d" ~server:0 ()
           in
           Opc.Cluster.submit cluster
             (Opc.Mds.Op.create_file ~parent:dir ~name:"f")
             ~on_done:(fun _ -> ());
           match Opc.Cluster.settle cluster with
           | Opc.Cluster.Quiescent -> ()
           | _ -> failwith "micro: did not settle"))
  in
  let tests =
    Test.make_grouped ~name:"opc"
      (engine_events :: List.map txn_of Opc.Acp.Protocol.all)
  in
  let benchmark () =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
    in
    Benchmark.all cfg instances tests
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false
        ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  let results = analyze (benchmark ()) in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Bechamel.Analyze.OLS.estimates result with
      | Some [ est ] ->
          Fmt.pr "%-28s %12.1f ns/run@." name est;
          rows :=
            Json.Obj [ ("name", Json.Str name); ("ns_per_run", Json.Float est) ]
            :: !rows
      | _ -> Fmt.pr "%-28s (no estimate)@." name)
    results;
  Json.Obj
    [ ("benchmark", Json.Str "micro"); ("rows", Json.List (List.rev !rows)) ]

(* ------------------------------------------------------------------ *)
(* Host profiling (shared by `profile`, `scale`, `check`)              *)
(* ------------------------------------------------------------------ *)

(* One profiled scale point: same workload as the timed sweep, but with
   [record_prof] on. Profiled runs are never the timed ones — the
   observer pair costs a clock read per dispatch, which would pollute
   events/s — yet they replay the identical event sequence, so the
   attribution describes exactly the run the gate measures. *)
let run_profiled_point ~servers ~txns ~seed kind =
  let config =
    {
      (Opc.Experiment.scale_config ~servers ~seed) with
      Opc_cluster.Config.record_prof = true;
    }
  in
  let p = Opc.Experiment.run_scale_point ~config ~servers ~txns ~seed kind in
  match p.Opc.Experiment.profile with
  | Some r -> (p, r)
  | None -> failwith "profiled run returned no profile"

let prof_share part whole =
  if whole = 0 then 0.0 else float_of_int part /. float_of_int whole

let prof_subsystems_json (r : Obs.Prof.report) =
  Json.List
    (List.map
       (fun (name, cpu_ns, minor_words) ->
         Json.Obj
           [
             ("subsystem", Json.Str name);
             ("cpu_ns", Json.Int cpu_ns);
             ("minor_words", Json.Int minor_words);
             ("share", Json.Float (prof_share cpu_ns r.Obs.Prof.total_cpu_ns));
           ])
       (Obs.Prof.by_subsystem r))

let prof_buckets_json (r : Obs.Prof.report) =
  Json.List
    (List.map
       (fun (b : Obs.Prof.bucket) ->
         Json.Obj
           [
             ("subsystem", Json.Str b.subsystem);
             ("label", Json.Str b.label);
             ("dispatches", Json.Int b.dispatches);
             ("cpu_ns", Json.Int b.cpu_ns);
             ("minor_words", Json.Int b.minor_words);
             ("max_cpu_ns", Json.Int b.max_cpu_ns);
           ])
       r.Obs.Prof.buckets)

(* A14b: where does the host CPU go? One profiled scale point per
   protocol; top-N text table, full buckets in BENCH_profile.json and a
   speedscope flame graph per protocol. Exits nonzero if any profile
   comes back empty or the telescoping invariant
   (buckets + residual = total) breaks — both would mean the observer
   pair is broken, not that the code got slower. *)
let profile ~smoke ~txns () =
  let servers = if smoke then 4 else 8 in
  let seed = 1 in
  section
    (Fmt.str "profile: host CPU/allocation by (subsystem, label), %d \
              servers x %d txns, seed %d%s"
       servers txns seed
       (if smoke then " (smoke)" else ""));
  let ok = ref true in
  let points =
    List.map
      (fun kind ->
        let name = Opc.Acp.Protocol.name kind in
        let p, r = run_profiled_point ~servers ~txns ~seed kind in
        let bucket_cpu =
          List.fold_left
            (fun acc (b : Obs.Prof.bucket) -> acc + b.cpu_ns)
            0 r.Obs.Prof.buckets
        in
        if r.Obs.Prof.buckets = [] then begin
          Fmt.epr "profile: %s produced no buckets@." name;
          ok := false
        end;
        if bucket_cpu + r.Obs.Prof.residual_cpu_ns <> r.Obs.Prof.total_cpu_ns
        then begin
          Fmt.epr
            "profile: %s buckets (%d ns) + residual (%d ns) do not sum to \
             total (%d ns)@."
            name bucket_cpu r.Obs.Prof.residual_cpu_ns r.Obs.Prof.total_cpu_ns;
          ok := false
        end;
        Fmt.pr "@.%s: %d events, %.1f ms CPU, %.2f Mw minor@." name
          p.Opc.Experiment.events
          (float_of_int r.Obs.Prof.total_cpu_ns /. 1e6)
          (float_of_int r.Obs.Prof.total_minor_words /. 1e6);
        Opc.Metrics.Table.print (Obs.Prof.to_table ~top:10 r);
        let speedscope = Fmt.str "BENCH_profile.%s.speedscope.json" name in
        Obs.Prof.speedscope_to_file ~path:speedscope
          ~name:(Fmt.str "%s scale point (%d servers)" name servers)
          r;
        (* Catches escaping bugs at bench time, not in the browser. *)
        if not (reads_back speedscope) then ok := false;
        Fmt.pr "wrote %s@." speedscope;
        Json.Obj
          [
            ("protocol", Json.Str name);
            ("servers", Json.Int servers);
            ("seed", Json.Int seed);
            ("txns", Json.Int txns);
            ("events", Json.Int p.Opc.Experiment.events);
            ("total_cpu_ns", Json.Int r.Obs.Prof.total_cpu_ns);
            ("total_minor_words", Json.Int r.Obs.Prof.total_minor_words);
            ("total_dispatches", Json.Int r.Obs.Prof.total_dispatches);
            ("residual_cpu_ns", Json.Int r.Obs.Prof.residual_cpu_ns);
            ( "residual_minor_words",
              Json.Int r.Obs.Prof.residual_minor_words );
            ("subsystems", prof_subsystems_json r);
            ("buckets", prof_buckets_json r);
            ("speedscope", Json.Str speedscope);
          ])
      Opc.Acp.Protocol.all
  in
  ( Json.Obj
      [
        ("benchmark", Json.Str "profile");
        ("smoke", Json.Bool smoke);
        ("servers", Json.Int servers);
        ("seed", Json.Int seed);
        ("txns", Json.Int txns);
        ("points", Json.List points);
      ],
    !ok )

(* ------------------------------------------------------------------ *)
(* Scale campaign                                                      *)
(* ------------------------------------------------------------------ *)

(* Engine performance at cluster sizes the paper never ran: a sharded
   64-server metadata service under a seeded closed-loop load, every
   protocol, multiple seeds. Prints a table and always writes
   BENCH_scale.json (schema in EXPERIMENTS.md) — the JSON is the
   artifact; the table is a courtesy. *)
let scale ~smoke ~seeds ~txns () =
  section
    (Fmt.str "scale campaign: %d txns/point, seeds 1..%d%s" txns seeds
       (if smoke then " (smoke)" else ""));
  let server_counts = if smoke then [ 4; 8 ] else [ 4; 8; 16; 32; 64 ] in
  let t =
    Opc.Metrics.Table.create
      ~columns:
        [
          "protocol";
          "servers";
          "seed";
          "committed";
          "aborted";
          "events";
          "wall [s]";
          "events/s";
          "ops/s (sim)";
          "p50";
          "p95";
          "p99";
        ]
  in
  let points = ref [] in
  List.iter
    (fun servers ->
      List.iter
        (fun kind ->
          for seed = 1 to seeds do
            (* Start every timed point from a canonical heap so its
               events/s does not depend on sweep position — `bench
               check` re-measures single points against these. *)
            Gc.compact ();
            let c0 = Sys.time () in
            let t0 = Unix.gettimeofday () in
            let p = Opc.Experiment.run_scale_point ~servers ~txns ~seed kind in
            let wall = Unix.gettimeofday () -. t0 in
            let cpu = Sys.time () -. c0 in
            let events_per_s = float_of_int p.Opc.Experiment.events /. wall in
            let events_per_cpu_s =
              float_of_int p.Opc.Experiment.events /. cpu
            in
            let live_words = (Gc.stat ()).Gc.live_words in
            Opc.Metrics.Table.add_row t
              [
                Opc.Acp.Protocol.name kind;
                string_of_int servers;
                string_of_int seed;
                string_of_int p.committed;
                string_of_int p.aborted;
                string_of_int p.events;
                Fmt.str "%.2f" wall;
                Fmt.str "%.0f" events_per_s;
                Fmt.str "%.1f" p.ops_per_s;
                Fmt.str "%a" Opc.Simkit.Time.pp_span p.latency_p50;
                Fmt.str "%a" Opc.Simkit.Time.pp_span p.latency_p95;
                Fmt.str "%a" Opc.Simkit.Time.pp_span p.latency_p99;
              ];
            points :=
              Json.Obj
                [
                  ("protocol", Json.Str (Opc.Acp.Protocol.name kind));
                  ("servers", Json.Int servers);
                  ("seed", Json.Int seed);
                  ("txns", Json.Int txns);
                  ("submitted", Json.Int p.submitted);
                  ("committed", Json.Int p.committed);
                  ("aborted", Json.Int p.aborted);
                  ("events", Json.Int p.events);
                  ("wall_s", Json.Float wall);
                  ("events_per_s", Json.Float events_per_s);
                  ("cpu_s", Json.Float cpu);
                  ("events_per_cpu_s", Json.Float events_per_cpu_s);
                  ("ops_per_s", Json.Float p.ops_per_s);
                  ( "sim_elapsed_ns",
                    Json.Int (Opc.Simkit.Time.span_to_ns p.sim_elapsed) );
                  ( "latency_p50_ns",
                    Json.Int (Opc.Simkit.Time.span_to_ns p.latency_p50) );
                  ( "latency_p95_ns",
                    Json.Int (Opc.Simkit.Time.span_to_ns p.latency_p95) );
                  ( "latency_p99_ns",
                    Json.Int (Opc.Simkit.Time.span_to_ns p.latency_p99) );
                  ("live_words", Json.Int live_words);
                ]
              :: !points
          done)
        Opc.Acp.Protocol.all)
    server_counts;
  Opc.Metrics.Table.print t;
  (* Record the per-subsystem host-CPU split of the heaviest 1PC point
     alongside the timed numbers, so a later `bench check` against this
     baseline can say WHICH subsystem slowed down, not just that one
     did. A separate profiled (untimed) run of the identical point. *)
  let prof_servers = List.fold_left max 0 server_counts in
  let p, r =
    run_profiled_point ~servers:prof_servers ~txns ~seed:1
      Opc.Acp.Protocol.Opc
  in
  Fmt.pr
    "@.profiled 1PC @ %d servers for the baseline's subsystem split \
     (%.1f ms CPU)@."
    prof_servers
    (float_of_int r.Obs.Prof.total_cpu_ns /. 1e6);
  Json.Obj
    [
      ("benchmark", Json.Str "scale");
      ("smoke", Json.Bool smoke);
      ("txns_per_point", Json.Int txns);
      ("seeds", Json.Int seeds);
      ( "server_counts",
        Json.List (List.map (fun s -> Json.Int s) server_counts) );
      ("points", Json.List (List.rev !points));
      ( "profile",
        Json.Obj
          [
            ("protocol", Json.Str (Opc.Acp.Protocol.name Opc.Acp.Protocol.Opc));
            ("servers", Json.Int prof_servers);
            ("seed", Json.Int 1);
            ("txns", Json.Int txns);
            ("events", Json.Int p.Opc.Experiment.events);
            ("total_cpu_ns", Json.Int r.Obs.Prof.total_cpu_ns);
            ("residual_cpu_ns", Json.Int r.Obs.Prof.residual_cpu_ns);
            ("total_minor_words", Json.Int r.Obs.Prof.total_minor_words);
            ("subsystems", prof_subsystems_json r);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Timeline — recovery journal, gauges, MTTR                           *)
(* ------------------------------------------------------------------ *)

let series_json series =
  let rows = ref [] in
  Obs.Timeseries.iter
    (fun at values ->
      rows :=
        Json.List
          (Json.Int (Opc.Simkit.Time.to_ns at)
          :: Array.to_list (Array.map (fun v -> Json.Int v) values))
        :: !rows)
    series;
  Json.Obj
    [
      ( "columns",
        Json.List
          (Array.to_list
             (Array.map (fun c -> Json.Str c) (Obs.Timeseries.columns series)))
      );
      ("rows", Json.List (List.rev !rows));
    ]

(* One server crashes under the chaos workload; the run's lifecycle
   journal, gauge series and MTTR decomposition are the artifacts. The
   measured window start is cross-checked against the injected crash
   instant — a mismatch is a hard failure (nonzero exit), because it
   means the journal and the fault injector disagree about when the
   outage began. *)
let timeline ~smoke () =
  section
    (Fmt.str
       "timeline: recovery after one crash under the chaos workload%s"
       (if smoke then " (smoke: 1PC only)" else ""));
  let protocols =
    if smoke then [ Opc.Acp.Protocol.Opc ] else Opc.Acp.Protocol.all
  in
  let t =
    Opc.Metrics.Table.create
      ~columns:
        [
          "protocol";
          "committed";
          "aborted";
          "node";
          "detect";
          "fence";
          "scan";
          "resolve";
          "MTTR";
        ]
  in
  let failures = ref 0 in
  let span = Opc.Simkit.Time.pp_span in
  let rows =
    List.map
      (fun kind ->
        let p = Opc.Experiment.run_timeline kind in
        let name = Opc.Acp.Protocol.name kind in
        (match
           Obs.Mttr.check_crash_times
             ~expected:[ (p.Opc.Experiment.crash_server, p.crash_time) ]
             p.windows
         with
        | Ok () -> ()
        | Error msg ->
            incr failures;
            Fmt.epr "bench timeline: %s: %s@." name msg);
        if p.windows = [] then begin
          incr failures;
          Fmt.epr
            "bench timeline: %s: no unavailability window closed (journal \
             has %d events)@."
            name
            (List.length p.journal)
        end;
        List.iter
          (fun (w : Obs.Mttr.window) ->
            Opc.Metrics.Table.add_row t
              [
                name;
                string_of_int p.committed;
                string_of_int p.aborted;
                string_of_int w.Obs.Mttr.node;
                Fmt.str "%a" span w.detect;
                Fmt.str "%a" span w.fence;
                Fmt.str "%a" span w.scan;
                Fmt.str "%a" span w.resolve;
                Fmt.str "%a" span (Obs.Mttr.total w);
              ])
          p.windows;
        let journal_path = Fmt.str "BENCH_timeline.%s.jsonl" name in
        Json.lines_to_file journal_path (List.map Obs.Journal.to_json p.journal);
        Json.Obj
          [
            ("protocol", Json.Str name);
            ("committed", Json.Int p.committed);
            ("aborted", Json.Int p.aborted);
            ("crash_server", Json.Int p.crash_server);
            ("crash_time_ns", Json.Int (Opc.Simkit.Time.to_ns p.crash_time));
            ("journal_events", Json.Int (List.length p.journal));
            ("journal", Json.Str journal_path);
            ( "windows",
              Json.List
                (List.map
                   (fun (w : Obs.Mttr.window) ->
                     Json.Obj
                       [
                         ("node", Json.Int w.Obs.Mttr.node);
                         ("start_ns", Json.Int (Opc.Simkit.Time.to_ns w.start));
                         ( "detect_ns",
                           Json.Int (Opc.Simkit.Time.span_to_ns w.detect) );
                         ( "fence_ns",
                           Json.Int (Opc.Simkit.Time.span_to_ns w.fence) );
                         ( "scan_ns",
                           Json.Int (Opc.Simkit.Time.span_to_ns w.scan) );
                         ( "resolve_ns",
                           Json.Int (Opc.Simkit.Time.span_to_ns w.resolve) );
                         ( "total_ns",
                           Json.Int
                             (Opc.Simkit.Time.span_to_ns (Obs.Mttr.total w)) );
                       ])
                   p.windows) );
            ("series", series_json p.series);
          ])
      protocols
  in
  Opc.Metrics.Table.print t;
  Fmt.pr
    "(full journals are next to the JSON as BENCH_timeline.<protocol>.jsonl; \
     the JSON carries the per-node gauge series)@.";
  if !failures > 0 then
    Fmt.epr "bench timeline: %d cross-check failure(s)@." !failures;
  ( Json.Obj
      [
        ("benchmark", Json.Str "timeline");
        ("smoke", Json.Bool smoke);
        ("rows", Json.List rows);
      ],
    !failures = 0 )

(* ------------------------------------------------------------------ *)
(* Drill — crash-and-recover campaign against recovery SLOs            *)
(* ------------------------------------------------------------------ *)

(* Aggregate MTTR percentiles per protocol over seeded crash drills and
   gate on the committed recovery budgets (Opc.Drill.slo_for). The
   structural headline: L1PC's fence budget is zero — logless recovery
   that touches the SAN fencing controller is a regression, not noise.
   [--impossible-slo] swaps in unmeetable budgets so CI can prove the
   gate trips. *)
let drill ~smoke ~seeds ~impossible_slo () =
  section
    (Fmt.str "drill: %d crash-and-recover drill(s) per protocol vs \
              recovery SLOs%s"
       seeds
       (if impossible_slo then " (negative control: impossible budgets)"
        else ""));
  let t =
    Opc.Metrics.Table.create
      ~columns:
        [
          "protocol"; "drills"; "windows"; "detect p99"; "fence p99";
          "scan p99"; "resolve p99"; "MTTR p50"; "MTTR p99"; "d+f+s p99";
          "status";
        ]
  in
  let span = Opc.Simkit.Time.pp_span in
  let ns n = Fmt.str "%a" span (Opc.Simkit.Time.span_ns n) in
  let failures = ref [] in
  let rows =
    List.map
      (fun kind ->
        let s = Opc.Drill.campaign ~seeds ~first_seed:1 kind in
        let slo =
          if impossible_slo then Opc.Drill.impossible_slo
          else Opc.Drill.slo_for kind
        in
        let fails = Opc.Drill.check ~slo s in
        failures := !failures @ fails;
        let name = Opc.Acp.Protocol.name kind in
        Opc.Metrics.Table.add_row t
          [
            name;
            string_of_int (List.length s.Opc.Drill.runs);
            string_of_int s.Opc.Drill.windows;
            ns s.Opc.Drill.detect.p99_ns;
            ns s.Opc.Drill.fence.p99_ns;
            ns s.Opc.Drill.scan.p99_ns;
            ns s.Opc.Drill.resolve.p99_ns;
            ns s.Opc.Drill.total.p50_ns;
            ns s.Opc.Drill.total.p99_ns;
            ns s.Opc.Drill.dfs_p99_ns;
            (if fails = [] then "ok" else "FAIL");
          ];
        let seg name (sg : Opc.Drill.segment) =
          [
            (name ^ "_p50_ns", Json.Int sg.p50_ns);
            (name ^ "_p99_ns", Json.Int sg.p99_ns);
          ]
        in
        let status (st : Opc.Drill.status) =
          Json.Obj
            [
              ("committed", Json.Int st.committed);
              ("aborted", Json.Int st.aborted);
              ("serving", Json.Int st.serving);
            ]
        in
        Json.Obj
          ([
             ("protocol", Json.Str name);
             ("drills", Json.Int (List.length s.Opc.Drill.runs));
             ("windows", Json.Int s.Opc.Drill.windows);
           ]
          @ seg "detect" s.Opc.Drill.detect
          @ seg "fence" s.Opc.Drill.fence
          @ seg "scan" s.Opc.Drill.scan
          @ seg "resolve" s.Opc.Drill.resolve
          @ seg "total" s.Opc.Drill.total
          @ [
              ("dfs_p99_ns", Json.Int s.Opc.Drill.dfs_p99_ns);
              ( "slo",
                Json.Obj
                  [
                    ("fence_p99_ns", Json.Int slo.Opc.Drill.fence_p99_ns);
                    ("dfs_p99_ns", Json.Int slo.Opc.Drill.dfs_p99_ns);
                    ("total_p99_ns", Json.Int slo.Opc.Drill.total_p99_ns);
                  ] );
              ( "runs",
                Json.List
                  (List.map
                     (fun (r : Opc.Drill.run) ->
                       Json.Obj
                         [
                           ("seed", Json.Int r.seed);
                           ("crash_server", Json.Int r.crash_server);
                           ("status_before", status r.before);
                           ("status_after", status r.after);
                           ("windows", Json.Int (List.length r.windows));
                         ])
                     s.Opc.Drill.runs) );
              ( "failures",
                Json.List (List.map (fun m -> Json.Str m) fails) );
              ("ok", Json.Bool (fails = []));
            ]))
      (if smoke then [ Opc.Acp.Protocol.Opc; Opc.Acp.Protocol.Lp1 ]
       else Opc.Acp.Protocol.all)
  in
  Opc.Metrics.Table.print t;
  List.iter (fun m -> Fmt.epr "bench drill: %s@." m) !failures;
  if !failures = [] then
    Fmt.pr "all recovery SLOs hold (L1PC fence p99 = 0 enforced)@.";
  ( Json.Obj
      [
        ("benchmark", Json.Str "drill");
        ("seeds", Json.Int seeds);
        ("impossible_slo", Json.Bool impossible_slo);
        ("protocols", Json.List rows);
        ("ok", Json.Bool (!failures = []));
      ],
    !failures = [] )

(* ------------------------------------------------------------------ *)
(* Check — events/s regression gate                                    *)
(* ------------------------------------------------------------------ *)


(* Recompute the most demanding 1PC point of a saved scale baseline and
   gate on CPU-time events/s. Meaningful only against a baseline
   measured on the same machine in the same session (ci.sh regenerates
   it first); the tolerance absorbs rerun noise, not hardware drift. *)
let regression_check ~against ~tolerance () =
  section
    (Fmt.str "check: events/s gate against %s (tolerance %.0f%%)" against
       (tolerance *. 100.));
  if not (Sys.file_exists against) then begin
    Fmt.epr "bench check: baseline %s not found (run `bench scale` first)@."
      against;
    exit 2
  end;
  let baseline =
    try Json.of_file against
    with Json.Parse_error msg ->
      Fmt.epr "bench check: cannot parse %s: %s@." against msg;
      exit 2
  in
  let points =
    match Json.member "points" baseline with
    | Some (Json.List l) -> l
    | _ ->
        Fmt.epr "bench check: %s has no \"points\" array@." against;
        exit 2
  in
  let opc_name = Opc.Acp.Protocol.name Opc.Acp.Protocol.Opc in
  let candidates =
    List.filter_map
      (fun p ->
        (* Gate on CPU-time events/s when the baseline has it (immune
           to scheduler contention on shared CI machines); wall-clock
           events_per_s is the fallback for baselines predating the
           field. *)
        let eps_field =
          match Json.(to_float (member "events_per_cpu_s" p)) with
          | Some _ as v -> v
          | None -> Json.(to_float (member "events_per_s" p))
        in
        match
          ( Json.(to_str (member "protocol" p)),
            Json.(to_int (member "servers" p)),
            Json.(to_int (member "seed" p)),
            Json.(to_int (member "txns" p)),
            Json.(to_int (member "events" p)),
            eps_field )
        with
        | Some proto, Some servers, Some seed, Some txns, Some events, Some eps
          when proto = opc_name ->
            Some (servers, seed, txns, events, eps)
        | _ -> None)
      points
  in
  match candidates with
  | [] ->
      Fmt.epr "bench check: no complete 1PC points in %s@." against;
      exit 2
  | first :: rest ->
      let servers, seed, txns, base_events, base_eps =
        (* largest cluster, then smallest seed: the heaviest, canonical
           point of the sweep *)
        List.fold_left
          (fun ((bs, bseed, _, _, _) as best) ((s, sd, _, _, _) as c) ->
            if s > bs || (s = bs && sd < bseed) then c else best)
          first rest
      in
      (* One untimed warmup, then best-of-3 CPU-time runs from the same
         canonical compacted heap the sweep times from: a single cold
         run would read systematically slow and trip the gate on GC or
         scheduler state rather than on the code. *)
      let p =
        Opc.Experiment.run_scale_point ~servers ~txns ~seed
          Opc.Acp.Protocol.Opc
      in
      let best_cpu = ref infinity in
      let best_wall = ref infinity in
      for _ = 1 to 3 do
        Gc.compact ();
        let c0 = Sys.time () in
        let t0 = Unix.gettimeofday () in
        ignore
          (Opc.Experiment.run_scale_point ~servers ~txns ~seed
             Opc.Acp.Protocol.Opc);
        let w = Unix.gettimeofday () -. t0 in
        let c = Sys.time () -. c0 in
        if w < !best_wall then best_wall := w;
        if c < !best_cpu then best_cpu := c
      done;
      let wall = !best_wall in
      let eps = float_of_int p.Opc.Experiment.events /. !best_cpu in
      let floor_eps = base_eps *. (1.0 -. tolerance) in
      let ok = eps >= floor_eps in
      if p.Opc.Experiment.events <> base_events then
        Fmt.epr
          "bench check: note: dispatch count drifted (%d baseline, %d now) — \
           the baseline predates a behavioural change@."
          base_events p.Opc.Experiment.events;
      Fmt.pr
        "1PC, %d servers, %d txns, seed %d:@.  baseline %.0f events/s (cpu), \
         measured %.0f events/s (cpu, best of 3; floor %.0f)@.  %s@."
        servers txns seed base_eps eps floor_eps
        (if ok then "OK"
         else
           Fmt.str "REGRESSION: %.1f%% below baseline"
             ((base_eps -. eps) /. base_eps *. 100.0));
      (* On a tripped gate, turn "slower" into "slower, and THIS
         subsystem paid for it": re-run the same point profiled and
         compare per-subsystem self-time per event against the split
         `bench scale` recorded in the baseline. *)
      let attribution =
        if ok then []
        else
          match Json.member "profile" baseline with
          | None ->
              Fmt.pr
                "  subsystem attribution unavailable: baseline has no \
                 profile section (regenerate it with `bench scale`)@.";
              []
          | Some bprof -> (
              let base_prof_events =
                Option.value ~default:base_events
                  Json.(to_int (member "events" bprof))
              in
              let base_total_cpu =
                Option.value ~default:0
                  Json.(to_int (member "total_cpu_ns" bprof))
              in
              let base_subs =
                match Json.member "subsystems" bprof with
                | Some (Json.List l) ->
                    List.filter_map
                      (fun s ->
                        match
                          ( Json.(to_str (member "subsystem" s)),
                            Json.(to_int (member "cpu_ns" s)) )
                        with
                        | Some name, Some cpu -> Some (name, cpu)
                        | _ -> None)
                      l
                | _ -> []
              in
              if base_subs = [] || base_prof_events = 0 then begin
                Fmt.pr
                  "  subsystem attribution unavailable: baseline profile \
                   section is incomplete@.";
                []
              end
              else
                let pnow, rnow =
                  run_profiled_point ~servers ~txns ~seed
                    Opc.Acp.Protocol.Opc
                in
                let now_events = pnow.Opc.Experiment.events in
                let growths =
                  List.filter_map
                    (fun (name, cpu_now, _minor) ->
                      match List.assoc_opt name base_subs with
                      | Some cpu_base when cpu_base > 0 && now_events > 0 ->
                          let per_ev_base =
                            float_of_int cpu_base
                            /. float_of_int base_prof_events
                          in
                          let per_ev_now =
                            float_of_int cpu_now /. float_of_int now_events
                          in
                          Some (name, per_ev_now /. per_ev_base, cpu_now,
                                cpu_base)
                      | _ -> None)
                    (Obs.Prof.by_subsystem rnow)
                  |> List.sort (fun (_, a, _, _) (_, b, _, _) ->
                         compare b a)
                in
                match growths with
                | [] ->
                    Fmt.pr
                      "  subsystem attribution unavailable: no subsystem \
                       appears in both profiles@.";
                    []
                | (worst, growth, cpu_now, cpu_base) :: _ ->
                    Fmt.pr
                      "  subsystem attribution (profiled rerun): %s \
                       self-time/event grew %.2fx (%.1f%% -> %.1f%% of run \
                       CPU)@."
                      worst growth
                      (100.0 *. prof_share cpu_base base_total_cpu)
                      (100.0
                      *. prof_share cpu_now rnow.Obs.Prof.total_cpu_ns);
                    List.map
                      (fun (name, g, cpu_now, cpu_base) ->
                        Json.Obj
                          [
                            ("subsystem", Json.Str name);
                            ("growth_per_event", Json.Float g);
                            ("cpu_ns_now", Json.Int cpu_now);
                            ("cpu_ns_baseline", Json.Int cpu_base);
                          ])
                      growths)
      in
      (* A tripped perf gate is an incident too: bundle the verdict, the
         verbatim repro and the profiled rerun's flame graph so the
         regression ships with its own evidence. *)
      let incident =
        if ok then None
        else begin
          let _, rnow =
            run_profiled_point ~servers ~txns ~seed Opc.Acp.Protocol.Opc
          in
          let source =
            {
              Obs.Autopsy.verdict =
                Fmt.str
                  "bench check: REGRESSION: %.0f events/s (cpu) below floor \
                   %.0f (baseline %.0f, tolerance %.0f%%)"
                  eps floor_eps base_eps (tolerance *. 100.);
              protocol = opc_name;
              seed;
              repro =
                Fmt.str
                  "dune exec bench/main.exe -- check --against %s \
                   --tolerance %g"
                  against tolerance;
              schedule = "";
              diagnostics = "";
              tracer = Obs.Tracer.disabled ();
              journal = Obs.Journal.disabled ();
              recorder = Obs.Recorder.disabled ();
              gauge_columns = [||];
              windows = [];
              profile = Some rnow;
              coverage = [];
            }
          in
          let dir = Fmt.str "INCIDENT_check_%d" seed in
          ignore (Obs.Autopsy.write ~dir source);
          (match Obs.Autopsy.validate dir with
          | Ok () -> Fmt.pr "  incident bundle: %s@." dir
          | Error e ->
              Fmt.epr "bench check: incident bundle failed validation: %s@."
                e);
          Some dir
        end
      in
      ( Json.Obj
          ((("benchmark", Json.Str "check")
           ::
           (match incident with
           | Some d -> [ ("incident", Json.Str d) ]
           | None -> []))
          @ [
            ("against", Json.Str against);
            ("tolerance", Json.Float tolerance);
            ("protocol", Json.Str opc_name);
            ("servers", Json.Int servers);
            ("seed", Json.Int seed);
            ("txns", Json.Int txns);
            ("clock", Json.Str "cpu");
            ("baseline_events_per_s", Json.Float base_eps);
            ("measured_events_per_s", Json.Float eps);
            ("floor_events_per_s", Json.Float floor_eps);
            ("baseline_events", Json.Int base_events);
            ("measured_events", Json.Int p.Opc.Experiment.events);
            ("cpu_s", Json.Float !best_cpu);
            ("wall_s", Json.Float wall);
            ("ok", Json.Bool ok);
            ("attribution", Json.List attribution);
          ]),
        ok )

(* ------------------------------------------------------------------ *)
(* A15 — overload: goodput curves across the capacity knee             *)
(* ------------------------------------------------------------------ *)

(* One fault-free open-loop point: [rate] requests/s for [duration_ms]
   through the ingress front door. Same cluster shape and retry policy
   as Chaos.Overload — the chaos campaign stresses fault schedules at
   two rates, this sweep maps the whole goodput curve. *)
let overload_point ~protocol ~seed ~rate ~duration_ms ~max_inflight
    ~queue_capacity =
  let config =
    {
      Opc.Config.default with
      servers = 4;
      protocol;
      placement = Opc.Mds.Placement.Spread;
      txn_timeout = Opc.Simkit.Time.span_ms 300;
      heartbeat_interval = Opc.Simkit.Time.span_ms 20;
      detector_timeout = Opc.Simkit.Time.span_ms 100;
      restart_delay = Opc.Simkit.Time.span_ms 50;
      auto_restart = true;
      seed;
    }
  in
  let cluster = Opc.Cluster.create config in
  let root = Opc.Cluster.root cluster in
  let dirs =
    Array.init 4 (fun i ->
        Opc.Cluster.add_directory cluster ~parent:root
          ~name:(Printf.sprintf "d%d" i) ~server:i ())
  in
  let ingress = Opc.Ingress.create ~max_inflight ~queue_capacity cluster in
  let spec =
    {
      Opc.Workload.Open_loop.arrival = Opc.Workload.Open_loop.Poisson;
      rate_per_s = rate;
      duration = Opc.Simkit.Time.span_ms duration_ms;
      dirs;
      zipf_s = 1.1;
      policy = Opc.Chaos.Overload.policy;
    }
  in
  let ol =
    Opc.Workload.Open_loop.run cluster ingress spec
      ~rng:(Opc.Simkit.Rng.create ~seed:(seed + 2_000_003))
  in
  let settled =
    Opc.Workload.Open_loop.settle ~deadline:(Opc.Simkit.Time.span_s 120) ol
  in
  let violations =
    Opc.Chaos.Oracle.check_open_loop cluster ~ingress ~open_loop:ol ~dirs
      ~settled
  in
  let quantiles =
    Opc.Metrics.Histogram.quantiles
      (Opc.Workload.Open_loop.latency ol)
      [ 0.50; 0.95; 0.99 ]
  in
  ( Opc.Workload.Open_loop.stats ol,
    Opc.Ingress.stats ingress,
    quantiles,
    violations )

let overload ~smoke ~unbounded () =
  section
    (if unbounded then
       "A15: overload sweep — UNBOUNDED admission (negative control)"
     else "A15: overload sweep: goodput across the capacity knee");
  let base_rate = 100.0 in
  let duration_ms = if smoke then 400 else 600 in
  let multipliers =
    if smoke then [ 0.5; 1.0; 2.0; 6.0 ]
    else [ 0.25; 0.5; 1.0; 2.0; 4.0; 8.0 ]
  in
  let max_inflight = if unbounded then 1_000_000 else 24 in
  let queue_capacity = if unbounded then 1_000_000 else 64 in
  let floor = 0.25 in
  let seed = 1 in
  Fmt.pr
    "(open-loop Poisson arrivals x Zipf(1.1) over 4 dirs, base %.0f req/s, \
     %d ms window; client policy: 500 ms patience, 60 ms backoff x2 with \
     20%% jitter, 4 attempts; ingress: %s)@."
    base_rate duration_ms
    (if unbounded then "UNBOUNDED (no admission control)"
     else Fmt.str "max_inflight=%d, queue=%d" max_inflight queue_capacity);
  let t =
    Opc.Metrics.Table.create
      ~columns:
        [
          "protocol"; "x"; "offered"; "committed"; "gave up"; "shed";
          "good/s"; "amp"; "p95 [ms]";
        ]
  in
  let ms span = float_of_int (Opc.Simkit.Time.span_to_ns span) /. 1e6 in
  let gate_failures = ref [] in
  let proto_rows =
    List.map
      (fun protocol ->
        let points =
          List.map
            (fun m ->
              let rate = base_rate *. m in
              let st, ing, quantiles, violations =
                overload_point ~protocol ~seed ~rate ~duration_ms
                  ~max_inflight ~queue_capacity
              in
              let p50, p95, p99 =
                match quantiles with
                | [ a; b; c ] -> (ms a, ms b, ms c)
                | _ -> (0.0, 0.0, 0.0)
              in
              let open Opc.Workload.Open_loop in
              let shed = ing.Opc.Ingress.shed in
              let shed_rate =
                float_of_int shed
                /. float_of_int (max 1 ing.Opc.Ingress.submitted)
              in
              Opc.Metrics.Table.add_rowf t
                "%s|%.2f|%d|%d|%d|%d|%.1f|%.2f|%.1f"
                (Opc.Acp.Protocol.name protocol)
                m st.offered st.committed st.gave_up shed st.goodput_per_s
                st.retry_amplification p95;
              let json =
                Json.Obj
                  [
                    ("multiplier", Json.Float m);
                    ("offered_per_s", Json.Float rate);
                    ("offered", Json.Int st.offered);
                    ("committed", Json.Int st.committed);
                    ("aborted", Json.Int st.aborted);
                    ("gave_up", Json.Int st.gave_up);
                    ("busy_replies", Json.Int st.busy_replies);
                    ("attempt_timeouts", Json.Int st.attempt_timeouts);
                    ("attempts", Json.Int st.attempts);
                    ("shed", Json.Int shed);
                    ("replayed", Json.Int ing.Opc.Ingress.replayed);
                    ("shed_rate", Json.Float shed_rate);
                    ("goodput_per_s", Json.Float st.goodput_per_s);
                    ( "retry_amplification",
                      Json.Float st.retry_amplification );
                    ("p50_ms", Json.Float p50);
                    ("p95_ms", Json.Float p95);
                    ("p99_ms", Json.Float p99);
                    ("violations", Json.Int (List.length violations));
                  ]
              in
              (json, st.goodput_per_s, List.length violations))
            multipliers
        in
        let goodputs = List.map (fun (_, g, _) -> g) points in
        let peak = List.fold_left max 0.0 goodputs in
        let final = List.nth goodputs (List.length goodputs - 1) in
        let viols =
          List.fold_left (fun acc (_, _, v) -> acc + v) 0 points
        in
        (* Graceful degradation, within-sweep: goodput at the heaviest
           offered load must hold [floor] of the sweep's own peak, and no
           point may trip a correctness oracle. *)
        let gate_ok = viols = 0 && (peak <= 0.0 || final >= floor *. peak) in
        if not gate_ok then
          gate_failures := (protocol, peak, final, viols) :: !gate_failures;
        Json.Obj
          [
            ("protocol", Json.Str (Opc.Acp.Protocol.name protocol));
            ("points", Json.List (List.map (fun (j, _, _) -> j) points));
            ("peak_goodput_per_s", Json.Float peak);
            ("goodput_at_max_offered_per_s", Json.Float final);
            ("oracle_violations", Json.Int viols);
            ("gate_ok", Json.Bool gate_ok);
          ])
      Opc.Acp.Protocol.all
  in
  Opc.Metrics.Table.print t;
  let ok = !gate_failures = [] in
  if ok then
    Fmt.pr
      "gate: all protocols hold >= %.0f%% of peak goodput at max offered \
       load, zero oracle violations@."
      (100.0 *. floor)
  else
    List.iter
      (fun (protocol, peak, final, viols) ->
        Fmt.pr
          "gate: %s FAILS graceful degradation — %.1f/s goodput at max \
           offered load vs %.1f/s peak (floor %.0f%%), %d oracle \
           violation(s)@."
          (Opc.Acp.Protocol.name protocol)
          final peak (100.0 *. floor) viols)
      (List.rev !gate_failures);
  ( Json.Obj
      [
        ("benchmark", Json.Str "overload");
        ("base_rate_per_s", Json.Float base_rate);
        ("duration_ms", Json.Int duration_ms);
        ("seed", Json.Int seed);
        ("max_inflight", Json.Int max_inflight);
        ("queue_capacity", Json.Int queue_capacity);
        ("unbounded", Json.Bool unbounded);
        ("goodput_floor", Json.Float floor);
        ("protocols", Json.List proto_rows);
        ("ok", Json.Bool ok);
      ],
    ok )

(* ------------------------------------------------------------------ *)
(* A16 — protocol coverage observatory                                  *)
(* ------------------------------------------------------------------ *)

(* Committed per-protocol floors: the fraction of each declared
   transition map the standard campaigns must traverse. Raising a floor
   is cheap; lowering one means the campaigns lost reach and is a
   finding in itself. *)
let coverage_floors =
  [
    (Opc.Acp.Protocol.Prn, 0.90);
    (Opc.Acp.Protocol.Prc, 0.90);
    (Opc.Acp.Protocol.Ep, 0.90);
    (Opc.Acp.Protocol.Opc, 0.90);
    (Opc.Acp.Protocol.Lp1, 0.90);
  ]

let coverage ~smoke ~seeds ~inflated_floors () =
  section "A16: protocol coverage observatory";
  let spec = Opc.Chaos.Runner.default_spec in
  let merged = Array.make Opc.Acp.Edges.count 0 in
  let outcomes = ref [] in
  let runs = ref 0 in
  let absorb (o : Opc.Chaos.Runner.outcome) =
    incr runs;
    outcomes := o :: !outcomes;
    Array.iteri (fun i n -> merged.(i) <- merged.(i) + n) o.edge_hits
  in
  (* Standard chaos campaign: the same seeded fault schedules and
     workloads for all five protocols. *)
  let campaign_seeds = if smoke then min seeds 4 else seeds in
  List.iter
    (fun protocol ->
      for s = 1 to campaign_seeds do
        absorb (Opc.Chaos.Runner.execute spec ~protocol ~seed:s)
      done)
    Opc.Acp.Protocol.all;
  Fmt.pr "campaign: %d runs (%d seeds x 5 protocols)@." !runs campaign_seeds;
  (* Directed supplements for edges the uniform campaign cannot reach:
     each stresses one axis (contention, crash placement, replica
     churn, message loss) over a few seeds. *)
  let directed_seeds = if smoke then 2 else 4 in
  let directed ?(seeds = directed_seeds) name ~protocol ?schedule
      ?(spec = spec) mutate =
    for s = 1 to seeds do
      let seed = 9_000 + s in
      let config =
        mutate (Opc.Chaos.Runner.config_of spec ~protocol ~seed)
      in
      absorb (Opc.Chaos.Runner.execute_config ?schedule spec ~config ~seed)
    done;
    Fmt.pr "directed %-16s %d runs@." name seeds
  in
  (* Contention: every client fights over one directory with a short
     transaction timeout, so lock queues overflow into timeouts — NACKed
     UPDATEDs, abort paths, and (1PC) NO-vote tombstones cycling through
     a tiny TTL and cap into the stale-sequence horizon. *)
  let contention_spec =
    { spec with dir_count = 1; clients = 10; ops_per_client = 25 }
  in
  List.iter
    (fun protocol ->
      directed
        (Printf.sprintf "contention-%s" (Opc.Acp.Protocol.name protocol))
        ~protocol ~spec:contention_spec
        (fun c ->
          {
            c with
            Opc.Config.txn_timeout = Opc.Simkit.Time.span_ms 80;
            tombstone_ttl = Some (Opc.Simkit.Time.span_ms 30);
            tombstone_cap = 1;
            network =
              {
                c.Opc.Config.network with
                Opc.Netsim.Network.duplicate_probability = 0.2;
              };
          }))
    Opc.Acp.Protocol.all;
  (* Crash storm: staggered crashes through a duplicate-heavy window
     with an 8x-slower log device, so crashes land while commits are
     still in flight — recovery log scans, hardened-replay answers and
     in-doubt decision queries all need exactly that placement. *)
  let storm_schedule =
    {
      Opc.Chaos.Schedule.window_ms = spec.window_ms;
      events =
        [
          Opc.Chaos.Schedule.Duplicate_burst
            { pct = 25; at_ms = 1; until_ms = spec.window_ms - 1 };
          Disk_degrade
            { factor_x10 = 80; at_ms = 1; until_ms = spec.window_ms - 1 };
          Crash { server = 1; at_ms = 60 };
          Crash { server = 2; at_ms = 170 };
          Crash { server = 3; at_ms = 280 };
          Crash { server = 0; at_ms = 390 };
        ];
    }
  in
  List.iter
    (fun protocol ->
      directed
        (Printf.sprintf "crash-storm-%s" (Opc.Acp.Protocol.name protocol))
        ~protocol ~schedule:storm_schedule
        ~spec:{ spec with clients = 8 }
        (fun c -> c))
    Opc.Acp.Protocol.all;
  (* Replica churn: a tiny replica store (the cap is shared with the
     tombstone table) forces L1PC REP_STORE evictions; a near-double
     crash with slow restarts and fast resends makes the recovering
     owner's quorum read run short of a downed member. *)
  let replica_storm =
    {
      Opc.Chaos.Schedule.window_ms = spec.window_ms;
      events =
        [
          Opc.Chaos.Schedule.Crash { server = 1; at_ms = 50 };
          Crash { server = 2; at_ms = 60 };
        ];
    }
  in
  directed "replica-churn" ~protocol:Opc.Acp.Protocol.Lp1
    ~schedule:replica_storm (fun c ->
      {
        c with
        Opc.Config.tombstone_cap = 2;
        restart_delay = Opc.Simkit.Time.span_ms 800;
        resend_interval = Some (Opc.Simkit.Time.span_ms 30);
        network =
          {
            c.Opc.Config.network with
            Opc.Netsim.Network.duplicate_probability = 0.2;
            drop_probability = 0.1;
          };
      });
  (* Loss storm over the 2PC family: dropped PREPARE/DECISION traffic
     exercises vote timeouts, decision retries and presumed-abort
     queries that a clean fabric never needs. *)
  List.iter
    (fun protocol ->
      directed
        (Printf.sprintf "loss-storm-%s" (Opc.Acp.Protocol.name protocol))
        ~protocol
        (fun c ->
          {
            c with
            Opc.Config.network =
              {
                c.Opc.Config.network with
                Opc.Netsim.Network.drop_probability = 0.25;
                duplicate_probability = 0.15;
              };
          }))
    [ Opc.Acp.Protocol.Prn; Opc.Acp.Protocol.Prc; Opc.Acp.Protocol.Ep ];
  (* Fence on first silent retry: zero soft retries against a lossy
     fabric escalate straight to the 1PC coordinator's
     retries-exhausted recovery query. *)
  directed "fence-retries" ~protocol:Opc.Acp.Protocol.Opc (fun c ->
      {
        c with
        Opc.Config.max_soft_retries = 0;
        detector_timeout = Opc.Simkit.Time.span_ms 10_000;
        network =
          {
            c.Opc.Config.network with
            Opc.Netsim.Network.drop_probability = 0.3;
          };
      });
  (* Recovery storm: seven staggered crashes with fast restarts and a
     hot resend clock, so log scans land mid-protocol on every role —
     committed-image replays, in-doubt worker parks, planless
     coordinators. *)
  let recovery_storm =
    {
      Opc.Chaos.Schedule.window_ms = spec.window_ms;
      events =
        [
          Opc.Chaos.Schedule.Crash { server = 1; at_ms = 50 };
          Crash { server = 2; at_ms = 120 };
          Crash { server = 3; at_ms = 190 };
          Crash { server = 1; at_ms = 260 };
          Crash { server = 2; at_ms = 330 };
          Crash { server = 3; at_ms = 400 };
          Crash { server = 0; at_ms = 470 };
        ];
    }
  in
  List.iter
    (fun protocol ->
      directed
        ~seeds:(if smoke then 2 else 8)
        (Printf.sprintf "recovery-storm-%s" (Opc.Acp.Protocol.name protocol))
        ~protocol ~schedule:recovery_storm
        ~spec:{ spec with clients = 8 }
        (fun c ->
          {
            c with
            Opc.Config.restart_delay = Opc.Simkit.Time.span_ms 25;
            resend_interval = Some (Opc.Simkit.Time.span_ms 8);
            max_soft_retries = 10;
            detector_timeout = Opc.Simkit.Time.span_ms 10_000;
            network =
              {
                c.Opc.Config.network with
                Opc.Netsim.Network.drop_probability = 0.15;
              };
          }))
    Opc.Acp.Protocol.all;
  (* Deterministic conflict probes ({!Opc.Chaos.Probes}): dentry races
     and an exactly-placed partition reach the NACK/tombstone edges no
     seeded schedule can, and must themselves settle with a balanced
     message ledger. *)
  let probe_rows =
    List.map
      (fun (name, (p : Opc.Chaos.Probes.outcome)) ->
        Array.iteri (fun i n -> merged.(i) <- merged.(i) + n) p.edge_hits;
        (name, p))
      (Opc.Chaos.Probes.all ())
  in
  let probes_ok =
    List.for_all
      (fun (_, (p : Opc.Chaos.Probes.outcome)) -> p.settled && p.conserved)
      probe_rows
  in
  List.iter
    (fun (name, (p : Opc.Chaos.Probes.outcome)) ->
      Fmt.pr "probe %-16s settled=%b conserved=%b@." name p.settled
        p.conserved)
    probe_rows;
  let all_passed =
    List.for_all Opc.Chaos.Runner.passed !outcomes
  in
  if not all_passed then
    List.iter
      (fun o ->
        if not (Opc.Chaos.Runner.passed o) then
          Fmt.pr "@.%a@." Opc.Chaos.Runner.pp_outcome o)
      (List.rev !outcomes);
  (* Per-protocol edge coverage against the committed floors. *)
  let floor_for p =
    let f = List.assoc p coverage_floors in
    if inflated_floors then 1.01
      (* The smoke campaign runs a fraction of the seeds, so it reaches
         fewer rare edges; the committed floors apply to the full run. *)
    else if smoke then f *. 0.9
    else f
  in
  let proto_rows, floors_ok =
    List.fold_left
      (fun (rows, ok) p ->
        let edges = Opc.Acp.Edges.of_protocol p in
        let never =
          List.filter
            (fun (e : Opc.Acp.Edges.edge) -> merged.(e.id) = 0)
            edges
        in
        let declared = List.length edges in
        let hit = declared - List.length never in
        let pct = float_of_int hit /. float_of_int declared in
        let floor = floor_for p in
        let this_ok = pct >= floor in
        if not this_ok then begin
          Fmt.pr "coverage FLOOR MISS %s: %.1f%% < %.0f%%, never hit:@."
            (Opc.Acp.Protocol.name p) (100.0 *. pct) (100.0 *. floor);
          List.iter
            (fun e -> Fmt.pr "  %s@." (Opc.Acp.Edges.name e))
            never
        end;
        let row =
          Json.Obj
            [
              ("protocol", Json.Str (Opc.Acp.Protocol.name p));
              ("declared", Json.Int declared);
              ("hit", Json.Int hit);
              ("coverage", Json.Float pct);
              ("floor", Json.Float floor);
              ("ok", Json.Bool this_ok);
              ( "never_hit",
                Json.List
                  (List.map
                     (fun e -> Json.Str (Opc.Acp.Edges.name e))
                     never) );
            ]
        in
        (row :: rows, ok && this_ok))
      ([], true) (List.map fst coverage_floors)
  in
  let proto_rows = List.rev proto_rows in
  (* Print the summary table. *)
  let t =
    Opc.Metrics.Table.create
      ~columns:[ "protocol"; "declared"; "hit"; "coverage"; "floor"; "ok" ]
  in
  List.iter
    (fun p ->
      let edges = Opc.Acp.Edges.of_protocol p in
      let declared = List.length edges in
      let hit =
        List.length
          (List.filter
             (fun (e : Opc.Acp.Edges.edge) -> merged.(e.id) > 0)
             edges)
      in
      let pct = 100.0 *. float_of_int hit /. float_of_int declared in
      Opc.Metrics.Table.add_rowf t "%s|%d|%d|%.1f%%|%.0f%%|%s"
        (Opc.Acp.Protocol.name p) declared hit pct
        (100.0 *. floor_for p)
        (if pct /. 100.0 >= floor_for p then "yes" else "NO"))
    (List.map fst coverage_floors);
  Opc.Metrics.Table.print t;
  (* Message-conservation ledger, aggregated across every run. The law
     already held per run at tolerance zero (the oracle checks it and a
     breach fails the run); the table shows where the traffic went. *)
  let tag_totals : (string, int array) Hashtbl.t = Hashtbl.create 24 in
  let tag_order = ref [] in
  List.iter
    (fun (o : Opc.Chaos.Runner.outcome) ->
      List.iter
        (fun (ts : Opc.Chaos.Runner.tag_stats) ->
          let acc =
            match Hashtbl.find_opt tag_totals ts.tag with
            | Some a -> a
            | None ->
                let a = Array.make 6 0 in
                Hashtbl.add tag_totals ts.tag a;
                tag_order := ts.tag :: !tag_order;
                a
          in
          acc.(0) <- acc.(0) + ts.sent;
          acc.(1) <- acc.(1) + ts.delivered;
          acc.(2) <- acc.(2) + ts.dup_delivered;
          acc.(3) <- acc.(3) + ts.dropped;
          acc.(4) <- acc.(4) + ts.rejected;
          acc.(5) <- acc.(5) + ts.in_flight)
        o.meter)
    !outcomes;
  let tag_order = List.rev !tag_order in
  let conservation_rows =
    List.filter_map
      (fun tag ->
        let a = Hashtbl.find tag_totals tag in
        if a.(0) = 0 && a.(4) = 0 then None
        else
          Some
            (Json.Obj
               [
                 ("tag", Json.Str tag);
                 ("sent", Json.Int a.(0));
                 ("delivered", Json.Int a.(1));
                 ("dup_delivered", Json.Int a.(2));
                 ("dropped", Json.Int a.(3));
                 ("rejected", Json.Int a.(4));
                 ("in_flight", Json.Int a.(5));
               ]))
      tag_order
  in
  let ct =
    Opc.Metrics.Table.create
      ~columns:
        [ "tag"; "sent"; "delivered"; "dup"; "dropped"; "rejected";
          "in_flight" ]
  in
  List.iter
    (fun tag ->
      let a = Hashtbl.find tag_totals tag in
      if a.(0) > 0 || a.(4) > 0 then
        Opc.Metrics.Table.add_rowf ct "%s|%d|%d|%d|%d|%d|%d" tag a.(0)
          a.(1) a.(2) a.(3) a.(4) a.(5))
    tag_order;
  Opc.Metrics.Table.print ct;
  Fmt.pr "conservation: sent = delivered + dup + dropped + in_flight \
          held exactly on all %d runs@."
    !runs;
  (* Fault-phase matrix: which protocol phase each injected fault
     landed in, keyed by the fault's kind (first word). *)
  let matrix : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (o : Opc.Chaos.Runner.outcome) ->
      List.iter
        (fun (_, desc, phase) ->
          let kind =
            match String.index_opt desc ' ' with
            | Some i -> String.sub desc 0 i
            | None -> desc
          in
          let k = (kind, phase) in
          Hashtbl.replace matrix k
            (1 + Option.value ~default:0 (Hashtbl.find_opt matrix k)))
        o.fault_phases)
    !outcomes;
  let matrix_rows =
    Hashtbl.fold (fun (kind, phase) n acc -> (kind, phase, n) :: acc) matrix []
    |> List.sort compare
  in
  let mt =
    Opc.Metrics.Table.create ~columns:[ "fault"; "phase"; "count" ]
  in
  List.iter
    (fun (kind, phase, n) ->
      Opc.Metrics.Table.add_rowf mt "%s|%s|%d" kind phase n)
    matrix_rows;
  Opc.Metrics.Table.print mt;
  let ok = all_passed && floors_ok && probes_ok in
  if inflated_floors then
    Fmt.pr "(negative control: floors inflated past 100%%, the gate \
            must trip)@.";
  Fmt.pr "coverage gate: %s@." (if ok then "pass" else "FAIL");
  ( Json.Obj
      [
        ("benchmark", Json.Str "coverage");
        ("campaign_seeds", Json.Int campaign_seeds);
        ("directed_seeds", Json.Int directed_seeds);
        ("runs", Json.Int !runs);
        ("all_runs_passed", Json.Bool all_passed);
        ("inflated_floors", Json.Bool inflated_floors);
        ("protocols", Json.List proto_rows);
        ( "probes",
          Json.List
            (List.map
               (fun (name, (p : Opc.Chaos.Probes.outcome)) ->
                 Json.Obj
                   [
                     ("name", Json.Str name);
                     ("settled", Json.Bool p.settled);
                     ("conserved", Json.Bool p.conserved);
                   ])
               probe_rows) );
        ("conservation", Json.List conservation_rows);
        ( "fault_phases",
          Json.List
            (List.map
               (fun (kind, phase, n) ->
                 Json.Obj
                   [
                     ("fault", Json.Str kind);
                     ("phase", Json.Str phase);
                     ("count", Json.Int n);
                   ])
               matrix_rows) );
        ("ok", Json.Bool ok);
      ],
    ok )

(* ------------------------------------------------------------------ *)

let subcommands :
    (string * (unit -> Json.t)) list Lazy.t =
  lazy
    [
      ("table1", table1);
      ("aborts", aborts);
      ("fig6", fig6);
      ("latency", latency);
      ("ablate-disk", ablate_disk);
      ("ablate-net", ablate_net);
      ("ablate-conc", ablate_conc);
      ("ablate-colo", ablate_colo);
      ("ablate-batch", ablate_batch);
      ("shared-disk", shared_disk);
      ("ablate-dirs", ablate_dirs);
      ("group-commit", group_commit);
      ("faults", faults);
      ("micro", micro);
    ]

let all () =
  Json.Obj
    (List.map (fun (name, f) -> (name, f ())) (Lazy.force subcommands))

let () =
  let command = ref None and json_path = ref None and smoke = ref false in
  let seeds = ref None and txns = ref None in
  let against = ref "BENCH_scale.json" and tolerance = ref 0.15 in
  let unbounded = ref false and impossible_slo = ref false in
  let wrong_l1pc_row = ref false and inflated_floors = ref false in
  let positive flag r =
    Arg.Int
      (fun n ->
        if n > 0 then r := Some n
        else
          raise
            (Arg.Bad (Fmt.str "%s expects a positive integer, got %d" flag n)))
  in
  let specs =
    Arg.align
      [
        ( "--json",
          Arg.String (fun p -> json_path := Some p),
          "PATH write the artifact here (default BENCH_<name>.json)" );
        ( "--smoke",
          Arg.Set smoke,
          " CI-sized run: scale (tiny sweep), breakdown (5 txns/protocol), \
           timeline (1PC only), profile (4 servers), overload (shorter \
           sweep), drill (1PC and L1PC, 3 seeds), coverage (4 \
           seeds/protocol)" );
        ( "--seeds",
          positive "--seeds" seeds,
          "N scale seeds (default 2), drills per protocol (default 5) or \
           chaos seeds per protocol for coverage (default 25)" );
        ( "--txns",
          positive "--txns" txns,
          "N txns per scale point (default 20000), per breakdown protocol \
           (default 20) or per profile protocol (default 20000)" );
        ( "--against",
          Arg.Set_string against,
          "PATH check: the baseline (default BENCH_scale.json)" );
        ( "--tolerance",
          Arg.Float
            (fun f ->
              if f >= 0.0 && f < 1.0 then tolerance := f
              else
                raise
                  (Arg.Bad
                     (Fmt.str "--tolerance expects a float in [0, 1), got %g"
                        f))),
          "F check: allowed events/s drop (default 0.15)" );
        ( "--unbounded",
          Arg.Set unbounded,
          " overload: disable admission control (the gate must then fail)" );
        ( "--wrong-l1pc-row",
          Arg.Set wrong_l1pc_row,
          " breakdown negative control: corrupt the expected L1PC row" );
        ( "--impossible-slo",
          Arg.Set impossible_slo,
          " drill negative control: zero budgets so the gate must trip" );
        ( "--inflated-floors",
          Arg.Set inflated_floors,
          " coverage negative control: floors past 100%, naming never-hit \
           edges" );
      ]
  in
  let usage =
    Fmt.str
      "usage: bench [SUBCOMMAND] [FLAGS]\n\
       subcommands: all (default) | scale | breakdown | timeline | profile \
       | check | overload | drill | coverage | %s\n\
       every subcommand writes BENCH_<name>.json and prints the path"
      (String.concat " | " (List.map fst (Lazy.force subcommands)))
  in
  Arg.parse specs
    (fun arg ->
      if !command = None then command := Some arg
      else raise (Arg.Bad (Fmt.str "more than one subcommand (%S)" arg)))
    usage;
  let smoke = !smoke in
  let pick r ~smoke:small ~full =
    match r with Some n -> n | None -> if smoke then small else full
  in
  let name = Option.value !command ~default:"all" in
  let json, ok =
    match name with
    | "all" -> (all (), true)
    | "scale" ->
        (* 10k txns keeps the smoke sweep a few seconds while making each
           timed window ~0.3 s — long enough for `bench check` to
           re-measure a point without transients dominating. *)
        let txns = Option.value !txns ~default:20_000 in
        ( scale ~smoke
            ~seeds:(if smoke then 1 else Option.value !seeds ~default:2)
            ~txns:(if smoke then min txns 10_000 else txns)
            (),
          true )
    | "breakdown" ->
        breakdown ~wrong_l1pc_row:!wrong_l1pc_row
          ~count:(pick !txns ~smoke:5 ~full:20)
          ()
    | "timeline" -> timeline ~smoke ()
    | "profile" ->
        profile ~smoke ~txns:(pick !txns ~smoke:10_000 ~full:20_000) ()
    | "check" -> regression_check ~against:!against ~tolerance:!tolerance ()
    | "overload" -> overload ~smoke ~unbounded:!unbounded ()
    | "drill" ->
        drill ~smoke
          ~seeds:(pick !seeds ~smoke:3 ~full:5)
          ~impossible_slo:!impossible_slo ()
    | "coverage" ->
        coverage ~smoke
          ~seeds:(pick !seeds ~smoke:4 ~full:25)
          ~inflated_floors:!inflated_floors ()
    | name -> (
        match List.assoc_opt name (Lazy.force subcommands) with
        | Some f -> (f (), true)
        | None ->
            Fmt.epr "bench: unknown experiment %S@." name;
            Arg.usage specs usage;
            exit 2)
  in
  (* Every subcommand leaves a JSON artifact and says where it went. *)
  let path = Option.value !json_path ~default:("BENCH_" ^ name ^ ".json") in
  Json.to_file path json;
  if not (reads_back path) then exit 1;
  Fmt.pr "wrote %s@." path;
  if not ok then exit 1
