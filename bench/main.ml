(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation plus this reproduction's ablation studies (experiment
   index in DESIGN.md §4), and runs the gates ci.sh lists.

     dune exec bench/main.exe              -- the paper commands below, in order
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
     dune exec bench/main.exe scale        -- A12, A14b: scale, host profiles
     dune exec bench/main.exe breakdown    -- A13: measured critical-path spans
     dune exec bench/main.exe timeline     -- A14: recovery journal, gauges, MTTR
     dune exec bench/main.exe check        -- events/s gate vs a scale baseline
     dune exec bench/main.exe overload     -- A15: open-loop goodput curves
     dune exec bench/main.exe drill        -- recovery drills vs SLOs
     dune exec bench/main.exe coverage     -- A16: protocol coverage

   Every subcommand writes its results as machine-readable JSON — to
   BENCH_<name>.json by default, or wherever [--json PATH] points
   (creating missing parent directories) — under one header (see
   [emit]), reads it back through the strict Obs.Json reader (exit 1 if
   it does not parse or lacks a header key) and prints the path on
   success; schemas in EXPERIMENTS.md.

   The last seven are gates: each judges its measured data against its
   committed bounds and against a negative control (see [gate]), and
   exits 1 unless the bounds hold and the control trips. [scale]
   additionally takes [--smoke] (tiny sweep for CI), [--seeds N] and
   [--txns N]; after the timed sweep it profiles every protocol at the
   largest size and writes a speedscope flame graph per protocol as
   BENCH_scale.<protocol>.speedscope.json. [breakdown] drops one Chrome
   trace per protocol under BENCH_traces/ and compares the measured
   critical-path force/message counts with Table I. [timeline]
   ([--smoke] = 1PC only) writes one lifecycle journal per protocol as
   BENCH_timeline.<protocol>.jsonl and compares each recovery window's
   start with the injected crash instant. [check] re-measures the
   heaviest 1PC point of [--against] (default BENCH_scale.json) and
   fails if events/s fell more than [--tolerance] (default 0.15) below
   the baseline, naming the subsystem whose self-time per event grew
   most, or saying that none grew. It exits with status 2 on a baseline
   timed under another build profile or built with another compiler
   (naming both), or lacking a CPU-time rate or a 1PC profile. Unknown
   subcommands and flags exit with status 2. *)

let section title =
  Fmt.pr "@.== %s ==@." title

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

module Json = Obs.Json

(* Every artifact the bench writes must read back through the strict
   reader; a failure names the file. *)
let read_back path =
  match Json.of_file path with
  | j -> Some j
  | exception Json.Parse_error msg ->
      Fmt.epr "bench: %s is invalid JSON: %s@." path msg;
      None

(* The checked-out commit, read from .git without running git: the
   bench also runs from exported trees, which have none. *)
let git_revision () =
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    String.trim s
  in
  try
    let head = read ".git/HEAD" in
    match String.split_on_char ' ' head with
    | [ "ref:"; ref_ ] -> (
        try read (Filename.concat ".git" ref_)
        with Sys_error _ ->
          let line =
            List.find
              (fun l -> String.ends_with ~suffix:(" " ^ ref_) l)
              (String.split_on_char '\n' (read ".git/packed-refs"))
          in
          List.hd (String.split_on_char ' ' line))
    | _ -> head
  with Sys_error _ | Not_found -> "unknown"

(* Write one artifact: a header saying which command wrote it, from
   which commit, build profile and compiler, what [clock] its host
   quantities were read from ("none" when it holds only simulated ones)
   and whether it ran [--smoke], then [body]. Exits 1 unless the file
   reads back with every header key. *)
let emit ~path ~benchmark ~clock ~smoke body =
  let header =
    [
      ("benchmark", Json.Str benchmark);
      ("git_revision", Json.Str (git_revision ()));
      ("build_profile", Json.Str Build_info.profile);
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("clock", Json.Str clock);
      ("smoke", Json.Bool smoke);
    ]
  in
  Json.to_file path (Json.Obj (("header", Json.Obj header) :: body));
  let read = Option.bind (read_back path) (Json.member "header") in
  let lacks (k, _) = Option.bind read (Json.member k) = None in
  match List.filter lacks header with
  | [] -> Fmt.pr "wrote %s@." path
  | missing ->
      Fmt.epr "bench: %s lacks header key(s) %s@." path
        (String.concat ", " (List.map fst missing));
      exit 1

(* ------------------------------------------------------------------ *)
(* Gates                                                               *)
(* ------------------------------------------------------------------ *)

(* [holds expect msg]: [msg] contains the fragments [expect], in order. *)
let rec holds ?(from = 0) expect msg =
  match expect with
  | [] -> true
  | frag :: rest ->
      let n = String.length frag in
      let rec at i =
        if i + n > String.length msg then false
        else if String.sub msg i n = frag then holds ~from:(i + n) rest msg
        else at (i + 1)
      in
      at from

(* A gate judges its measured data with one [check], which returns a
   message per failure, twice: on [input], the data against the
   committed bounds, where it must pass; and on each negative control
   [(mutation, expect, input')], the same data with one bound or datum
   broken on purpose, where it must fail with a message holding the
   fragments [expect] in order. A control that passes, or fails for
   another reason, means the check no longer compares. Returns whether
   both held, and the artifact fields recording every verdict. *)
let gate ~name check input controls =
  let failures = check input in
  List.iter (fun m -> Fmt.epr "bench %s: %s@." name m) failures;
  let controls =
    List.map
      (fun (mutation, expect, input) ->
        let failures = check input in
        let tripped = List.find_opt (holds expect) failures in
        (match tripped with
        | Some m -> Fmt.pr "negative control (%s) trips: %s@." mutation m
        | None ->
            Fmt.epr
              "bench %s: negative control (%s) did not trip with \"%s\"; it \
               reported: %s@."
              name mutation
              (String.concat " ... " expect)
              (if failures = [] then "pass" else String.concat "; " failures));
        ( tripped <> None,
          Json.Obj
            [
              ("mutation", Json.Str mutation);
              ("tripped", Json.Bool (tripped <> None));
              ( "message",
                Json.Str
                  (Option.value tripped ~default:(String.concat "; " failures))
              );
            ] ))
      controls
  in
  ( failures = [] && List.for_all fst controls,
    [
      ("ok", Json.Bool (failures = []));
      ("failures", Json.List (List.map (fun m -> Json.Str m) failures));
      ("controls", Json.List (List.map snd controls));
    ] )

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
  [ ("rows", Json.List rows) ]

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
  [ ("rows", Json.List rows); ("opc_gain_over_prn_pct", Json.Float gain) ]

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
  [ ("rows", Json.List rows) ]

(* ------------------------------------------------------------------ *)
(* Breakdown — measured critical-path decomposition                    *)
(* ------------------------------------------------------------------ *)

(* Span-recorded runs, one isolated CREATE at a time, decomposed into
   the paper's critical-path categories. The measured force/message
   counts are gated on Table I — a mismatch means the instrumentation,
   the walk, or a protocol drifted. The negative control swaps L1PC's
   expected row for a wrong one, which must be reported. Also drops one
   Chrome trace per protocol next to the JSON for chrome://tracing /
   Perfetto. *)
let breakdown ~count () =
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
  (* One message per count that differs from [table]'s row. *)
  let mismatches table (p : Opc.Experiment.breakdown_point) =
    let costs : Opc.Acp.Cost_model.costs = table p.kind in
    let s = p.summary in
    List.filter_map
      (fun (label, expected, got) ->
        if got = Some expected then None
        else
          Some
            (Fmt.str "%s %s mismatch: Table I says %d, measured %a"
               (Opc.Acp.Protocol.name p.kind)
               label expected
               Fmt.(option ~none:(any "non-uniform") int)
               got))
      [
        ( "critical forces",
          costs.critical_sync,
          s.Obs.Breakdown.uniform_forces );
        ("critical messages", costs.critical_messages, s.uniform_messages);
      ]
  in
  let rows =
    List.map
      (fun (p : Opc.Experiment.breakdown_point) ->
        let name = Opc.Acp.Protocol.name p.kind in
        let costs = Opc.Acp.Cost_model.paper_table1 p.kind in
        let s = p.summary in
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
            ( "matches_table1",
              Json.Bool (mismatches Opc.Acp.Cost_model.paper_table1 p = []) );
            ("chrome_trace", Json.Str trace_path);
          ])
      points
  in
  Fmt.pr
    "(per-txn critical path; open BENCH_traces/<protocol>.trace.json in \
     chrome://tracing to see the spans)@.";
  let wrong_l1pc_row = function
    | Opc.Acp.Protocol.Lp1 ->
        {
          (Opc.Acp.Cost_model.paper_table1 Opc.Acp.Protocol.Lp1) with
          critical_sync = 1;
          critical_messages = 3;
        }
    | kind -> Opc.Acp.Cost_model.paper_table1 kind
  in
  let ok, verdict =
    gate ~name:"breakdown"
      (fun table -> List.concat_map (mismatches table) points)
      Opc.Acp.Cost_model.paper_table1
      [
        ( "L1PC's Table I row read as 1 force, 3 messages",
          [ "L1PC"; "mismatch" ],
          wrong_l1pc_row );
      ]
  in
  ( ("txns_per_protocol", Json.Int count)
    :: ("rows", Json.List rows)
    :: verdict,
    ok )

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

let sweep_json ~x_label points =
  [
    ("x_label", Json.Str x_label);
    ( "points",
      Json.List
        (List.map
           (fun (p : Opc.Experiment.sweep_point) ->
             Json.Obj
               (("x", Json.Float p.Opc.Experiment.x)
               :: List.map
                    (fun (k, v) -> (Opc.Acp.Protocol.name k, Json.Float v))
                    p.Opc.Experiment.series))
           points) );
  ]

let ablate_disk () =
  section "A1: throughput [ops/s] vs shared-disk bandwidth [KB/s]";
  let points = Opc.Experiment.sweep_disk_bandwidth () in
  print_sweep ~x_label:"KB/s" points;
  sweep_json ~x_label:"KB/s" points

let ablate_net () =
  section "A2: throughput [ops/s] vs one-way network latency [us]";
  let points = Opc.Experiment.sweep_network_latency () in
  print_sweep ~x_label:"us" points;
  sweep_json ~x_label:"us" points

let ablate_conc () =
  section "A3: throughput [ops/s] vs offered concurrency";
  let points = Opc.Experiment.sweep_concurrency () in
  print_sweep ~x_label:"in flight" points;
  sweep_json ~x_label:"in_flight" points

let ablate_colo () =
  section "locality: throughput [ops/s] vs colocation probability";
  let points = Opc.Experiment.sweep_colocation () in
  print_sweep ~x_label:"p(colocated)" points;
  sweep_json ~x_label:"p_colocated" points

let ablate_batch () =
  section
    "A4 / paper SVI: throughput [ops/s] vs aggregation batch size (100 \
     CREATEs, one directory)";
  let points = Opc.Experiment.sweep_batching () in
  print_sweep ~x_label:"batch" points;
  sweep_json ~x_label:"batch" points

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
  [ ("rows", Json.List rows) ]

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
  [
    ("shared", Json.Obj (sweep_json ~x_label:"dirs" shared));
    ("independent", Json.Obj (sweep_json ~x_label:"dirs" independent));
  ]

(* ------------------------------------------------------------------ *)
(* A11, A9 — A/B comparisons                                           *)
(* ------------------------------------------------------------------ *)

(* One row per protocol of an Experiment A/B comparison: both
   throughputs, named [a] and [b] in the table and keyed
   [<a_key>_ops_per_s] and [<b_key>_ops_per_s] in the JSON, and the
   speedup of [b] over [a]; then [note]. *)
let ab_table ~a:(a, a_key) ~b:(b, b_key) ~note rows =
  let t =
    Opc.Metrics.Table.create
      ~columns:[ ""; a ^ " [ops/s]"; b ^ " [ops/s]"; "speedup" ]
  in
  let rows =
    List.map
      (fun (kind, x, y) ->
        Opc.Metrics.Table.add_row t
          [
            Opc.Acp.Protocol.name kind;
            Fmt.str "%.1f" x;
            Fmt.str "%.1f" y;
            Fmt.str "%.2fx" (y /. x);
          ];
        Json.Obj
          [
            ("protocol", Json.Str (Opc.Acp.Protocol.name kind));
            (a_key ^ "_ops_per_s", Json.Float x);
            (b_key ^ "_ops_per_s", Json.Float y);
          ])
      rows
  in
  Opc.Metrics.Table.print t;
  Fmt.pr "%s@." note;
  [ ("rows", Json.List rows) ]

let group_commit () =
  section
    "A11: log-manager group commit — Figure-6 throughput without / with \
     coalesced forces";
  ab_table ~a:("plain", "plain") ~b:("group commit", "grouped")
    ~note:
      "(group commit coalesces concurrent forces into one transfer. Every \
       protocol gains; 1PC gains most — its single lock-held force per \
       transaction coalesces across the whole burst, while the 2PC \
       family's voting round trips keep breaking the batchable windows)"
    (Opc.Experiment.compare_group_commit ())

let shared_disk () =
  section
    "A9: the shared-storage assumption — Figure-6 throughput, one shared \
     400 KB/s device vs one private device per server";
  ab_table ~a:("shared", "shared") ~b:("independent", "independent")
    ~note:
      "(client-visible rate of the 100-transaction burst; 1PC profits most \
       because its only lock-held force gets a dedicated device, and its \
       coordinator-side commits drain off the client path)"
    (Opc.Experiment.compare_shared_vs_independent ())

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
  [
    ( "grid_ms",
      Json.List (List.map (fun ms -> Json.Int ms) Opc.Experiment.fault_grid_ms)
    );
    ("rows", Json.List rows);
  ]

(* ------------------------------------------------------------------ *)
(* Host time (shared by `scale` and `check`)                          *)
(* ------------------------------------------------------------------ *)

type timed = {
  point : Opc.Experiment.scale_point;
  cpu_s : float;
  wall_s : float;
  minor_words : float;
  promoted_words : float;
  major_words : float;  (* promoted words included, as [Gc] counts them *)
}

(* Time one scale point with the profiler off, from a freshly compacted
   heap, so its rate does not depend on what ran before it in the
   process. The gated rate is events per CPU-second (Sys.time), which
   scheduler contention on a shared machine does not dilute; wall time
   is recorded alongside, and so are the words the point allocated. The
   minor words repeat run after run, within one process too; promoted
   and major words repeat only from a fresh process (EXPERIMENTS.md,
   "BENCH_scale.json schema"). [Gc.counters] allocates its result, so
   it is read outside the minor-word count. *)
let time_point ~servers ~txns ~seed kind =
  Gc.compact ();
  let _, p0, j0 = Gc.counters () in
  let w0 = Gc.minor_words () in
  let c0 = Sys.time () in
  let t0 = Unix.gettimeofday () in
  let point = Opc.Experiment.run_scale_point ~servers ~txns ~seed kind in
  let wall_s = Unix.gettimeofday () -. t0 in
  let cpu_s = Sys.time () -. c0 in
  let minor_words = Gc.minor_words () -. w0 in
  let _, p1, j1 = Gc.counters () in
  {
    point;
    cpu_s;
    wall_s;
    minor_words;
    promoted_words = p1 -. p0;
    major_words = j1 -. j0;
  }

let events_per_cpu_s t = float_of_int t.point.events /. t.cpu_s
let minor_words_per_txn ~txns t = t.minor_words /. float_of_int txns
let promoted_words_per_txn ~txns t = t.promoted_words /. float_of_int txns
let major_words_per_txn ~txns t = t.major_words /. float_of_int txns

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

(* An empty profile, or one whose buckets and residual do not telescope
   to its total, means the observer pair is broken, not that the code
   got slower. *)
let profile_faults profiles =
  List.concat_map
    (fun (name, (r : Obs.Prof.report)) ->
      let bucket_cpu =
        List.fold_left
          (fun acc (b : Obs.Prof.bucket) -> acc + b.cpu_ns)
          0 r.buckets
      in
      (if r.buckets = [] then [ Fmt.str "%s produced no buckets" name ]
       else [])
      @
      if bucket_cpu + r.residual_cpu_ns = r.total_cpu_ns then []
      else
        [
          Fmt.str
            "%s buckets (%d ns) + residual (%d ns) do not sum to total (%d \
             ns)"
            name bucket_cpu r.residual_cpu_ns r.total_cpu_ns;
        ])
    profiles

(* ------------------------------------------------------------------ *)
(* Scale campaign                                                      *)
(* ------------------------------------------------------------------ *)

(* Engine performance at cluster sizes the paper never ran: a sharded
   64-server metadata service under a seeded closed-loop load, every
   protocol, multiple seeds. Prints a table and always writes
   BENCH_scale.json (schema in EXPERIMENTS.md) — the JSON is the
   artifact; the table is a courtesy. Then A14b, where the host time
   goes: every protocol profiled at the largest size, a top-N table and
   a speedscope flame graph each. `check` names the subsystem behind a
   regression from the 1PC profile. The gate is the profiles'
   telescoping; its control is a 1PC profile whose residual is 1 ns
   off. Profiling first, so that `check` re-times the sweep's point
   with no profiles in between, did not make `check` trip less often
   on an unchanged tree (EXPERIMENTS.md, "Gates and the artifact
   header"). *)
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
            let timed = time_point ~servers ~txns ~seed kind in
            let p = timed.point in
            let events_per_s = float_of_int p.events /. timed.wall_s in
            let live_words = (Gc.stat ()).Gc.live_words in
            Opc.Metrics.Table.add_row t
              [
                Opc.Acp.Protocol.name kind;
                string_of_int servers;
                string_of_int seed;
                string_of_int p.committed;
                string_of_int p.aborted;
                string_of_int p.events;
                Fmt.str "%.2f" timed.wall_s;
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
                  ("wall_s", Json.Float timed.wall_s);
                  ("events_per_s", Json.Float events_per_s);
                  ("cpu_s", Json.Float timed.cpu_s);
                  ("events_per_cpu_s", Json.Float (events_per_cpu_s timed));
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
                  ( "minor_words_per_txn",
                    Json.Float (minor_words_per_txn ~txns timed) );
                  ( "promoted_words_per_txn",
                    Json.Float (promoted_words_per_txn ~txns timed) );
                  ( "major_words_per_txn",
                    Json.Float (major_words_per_txn ~txns timed) );
                ]
              :: !points
          done)
        Opc.Acp.Protocol.all)
    server_counts;
  Opc.Metrics.Table.print t;
  let servers = List.fold_left max 0 server_counts in
  section
    (Fmt.str "host monotonic time/allocation by (subsystem, label), %d \
              servers x %d txns, seed 1"
       servers txns);
  let profiles =
    List.map
      (fun kind ->
        let name = Opc.Acp.Protocol.name kind in
        let p, r = run_profiled_point ~servers ~txns ~seed:1 kind in
        Fmt.pr "@.%s: %d events, %.1f ms host time, %.2f Mw minor@." name
          p.Opc.Experiment.events
          (float_of_int r.Obs.Prof.total_cpu_ns /. 1e6)
          (float_of_int r.Obs.Prof.total_minor_words /. 1e6);
        Opc.Metrics.Table.print (Obs.Prof.to_table ~top:10 r);
        let speedscope = Fmt.str "BENCH_scale.%s.speedscope.json" name in
        Obs.Prof.speedscope_to_file ~path:speedscope
          ~name:(Fmt.str "%s scale point (%d servers)" name servers)
          r;
        Fmt.pr "wrote %s@." speedscope;
        ( (name, r),
          (* Catches escaping bugs at bench time, not in the browser. *)
          read_back speedscope <> None,
          Json.Obj
            [
              ("protocol", Json.Str name);
              ("servers", Json.Int servers);
              ("seed", Json.Int 1);
              ("txns", Json.Int txns);
              ("events", Json.Int p.Opc.Experiment.events);
              ("total_cpu_ns", Json.Int r.total_cpu_ns);
              ("total_minor_words", Json.Int r.total_minor_words);
              ("total_dispatches", Json.Int r.total_dispatches);
              ("residual_cpu_ns", Json.Int r.residual_cpu_ns);
              ("residual_minor_words", Json.Int r.residual_minor_words);
              ("subsystems", prof_subsystems_json r);
              ("buckets", prof_buckets_json r);
              ("speedscope", Json.Str speedscope);
            ] ))
      Opc.Acp.Protocol.all
  in
  let reports = List.map (fun (report, _, _) -> report) profiles in
  let ok, verdict =
    gate ~name:"scale" profile_faults reports
      [
        ( "1PC profile residual 1 ns off",
          [ "1PC buckets"; "do not sum to total" ],
          List.map
            (fun (name, (r : Obs.Prof.report)) ->
              if name = Opc.Acp.Protocol.name Opc.Acp.Protocol.Opc then
                (name, { r with residual_cpu_ns = r.residual_cpu_ns + 1 })
              else (name, r))
            reports );
      ]
  in
  ( [
      ("txns_per_point", Json.Int txns);
      ("seeds", Json.Int seeds);
      ( "server_counts",
        Json.List (List.map (fun s -> Json.Int s) server_counts) );
      ("points", Json.List (List.rev !points));
      ("profiles", Json.List (List.map (fun (_, _, json) -> json) profiles));
    ]
    @ verdict,
    ok && List.for_all (fun (_, readable, _) -> readable) profiles )

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
   gate compares the measured window start with the injected crash
   instant — a mismatch means the journal and the fault injector
   disagree about when the outage began. Its control expects the crash
   1 ns later, a drift that must be reported. *)
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
  let span = Opc.Simkit.Time.pp_span in
  let runs = List.map Opc.Experiment.run_timeline protocols in
  let rows =
    List.map
      (fun (p : Opc.Experiment.timeline_point) ->
        let name = Opc.Acp.Protocol.name p.kind in
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
      runs
  in
  Opc.Metrics.Table.print t;
  Fmt.pr
    "(full journals are next to the JSON as BENCH_timeline.<protocol>.jsonl; \
     the JSON carries the per-node gauge series)@.";
  let drift crashes =
    List.concat_map
      (fun ((p : Opc.Experiment.timeline_point), crash_time) ->
        let name = Opc.Acp.Protocol.name p.kind in
        (match
           Obs.Mttr.check_crash_times
             ~expected:[ (p.crash_server, crash_time) ]
             p.windows
         with
        | Ok () -> []
        | Error msg -> [ name ^ ": " ^ msg ])
        @
        if p.windows = [] then
          [
            Fmt.str "%s: no unavailability window closed (journal has %d \
                     events)"
              name (List.length p.journal);
          ]
        else [])
      crashes
  in
  let ok, verdict =
    gate ~name:"timeline" drift
      (List.map
         (fun (p : Opc.Experiment.timeline_point) -> (p, p.crash_time))
         runs)
      [
        ( "crash expected 1 ns after the injected instant",
          [ "no unavailability window for mds" ],
          List.map
            (fun (p : Opc.Experiment.timeline_point) ->
              (p, Opc.Simkit.Time.add p.crash_time (Opc.Simkit.Time.span_ns 1)))
            runs );
      ]
  in
  (("rows", Json.List rows) :: verdict, ok)

(* ------------------------------------------------------------------ *)
(* Drill — crash-and-recover campaign against recovery SLOs            *)
(* ------------------------------------------------------------------ *)

(* Aggregate MTTR percentiles per protocol over seeded crash drills and
   gate on the committed recovery budgets (Opc.Drill.slo_for). The
   structural headline: L1PC's fence budget is zero — logless recovery
   that touches the SAN fencing controller is a regression, not noise.
   The negative control judges the same drills against unmeetable
   budgets. *)
let drill ~smoke ~seeds () =
  section
    (Fmt.str "drill: %d crash-and-recover drill(s) per protocol vs \
              recovery SLOs"
       seeds);
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
  let campaigns =
    List.map
      (fun kind -> Opc.Drill.campaign ~seeds ~first_seed:1 kind)
      (if smoke then [ Opc.Acp.Protocol.Opc; Opc.Acp.Protocol.Lp1 ]
       else Opc.Acp.Protocol.all)
  in
  let rows =
    List.map
      (fun (s : Opc.Drill.stats) ->
        let slo = Opc.Drill.slo_for s.protocol in
        let fails = Opc.Drill.check ~slo s in
        let name = Opc.Acp.Protocol.name s.protocol in
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
            ]))
      campaigns
  in
  Opc.Metrics.Table.print t;
  let judge slo_for =
    List.concat_map
      (fun (s : Opc.Drill.stats) -> Opc.Drill.check ~slo:(slo_for s.protocol) s)
      campaigns
  in
  let ok, verdict =
    gate ~name:"drill" judge Opc.Drill.slo_for
      [
        ( "every budget zero",
          [ "FAILS recovery SLO" ],
          fun _ -> Opc.Drill.impossible_slo );
      ]
  in
  if ok then Fmt.pr "all recovery SLOs hold (L1PC fence p99 = 0 enforced)@.";
  ([ ("seeds", Json.Int seeds); ("protocols", Json.List rows) ] @ verdict, ok)

(* ------------------------------------------------------------------ *)
(* Check — events/s regression gate                                    *)
(* ------------------------------------------------------------------ *)

(* Recompute the most demanding 1PC point of a saved scale baseline and
   gate on CPU-time events/s. Meaningful only against a baseline
   measured on the same machine in the same session (ci.sh regenerates
   it first); the tolerance absorbs rerun noise, not hardware drift.
   The negative controls judge the same measurement against the
   baseline claiming 999,999,999 events/s, which must trip the gate,
   attribution and incident bundle included, and against the baseline
   rewritten to another build profile or another compiler, each of
   which must be refused. *)
let regression_check ~against ~tolerance () =
  section
    (Fmt.str "check: events/s gate against %s (tolerance %.0f%%)" against
       (tolerance *. 100.));
  let refuse fmt =
    Fmt.kstr
      (fun m ->
        Fmt.epr "bench check: %s@." m;
        exit 2)
      fmt
  in
  if not (Sys.file_exists against) then
    refuse "baseline %s not found (run `bench scale` first)" against;
  let baseline =
    try Json.of_file against
    with Json.Parse_error msg -> refuse "cannot parse %s: %s" against msg
  in
  (* Build profiles time further apart than the tolerance (release took
     up to 21% less host time than dev on the repo benchmark), and the
     compiler sets the allocation counts printed beside the rate, so
     only a baseline from this binary's profile and compiler can judge
     it. *)
  let mismatch (profile, compiler) =
    let differs ~what ~verb ~none recorded mine =
      if recorded = Some mine then None
      else
        Some
          (Fmt.str
             "%s mismatch: %s was %s %s, this binary is %S; rerun `bench \
              scale` with this build"
             what against verb
             (match recorded with Some r -> Fmt.str "%S" r | None -> none)
             mine)
    in
    match
      differs ~what:"build profile" ~verb:"timed under" ~none:"no profile"
        profile Build_info.profile
    with
    | Some m -> Some m
    | None ->
        differs ~what:"compiler" ~verb:"built with OCaml"
          ~none:"(not recorded)" compiler Sys.ocaml_version
  in
  let recorded =
    let header =
      Json.member "header" baseline |> Option.value ~default:Json.Null
    in
    ( Json.to_str (Json.member "build_profile" header),
      Json.to_str (Json.member "ocaml_version" header) )
  in
  Option.iter (refuse "%s") (mismatch recorded);
  (* Every `scale` records a CPU-time rate per point and a 1PC profile,
     so a baseline lacking either was not written by one: refused. *)
  let opc = Opc.Acp.Protocol.Opc in
  let entries key =
    match Json.member key baseline with
    | Some (Json.List l) ->
        List.filter
          (fun e ->
            Json.(to_str (member "protocol" e))
            = Some (Opc.Acp.Protocol.name opc))
          l
    | _ -> []
  in
  let get conv key e =
    match conv (Json.member key e) with
    | Some v -> v
    | None -> refuse "%s: a 1PC entry has no %S" against key
  in
  let int = get Json.to_int in
  (* largest cluster, then smallest seed: the heaviest, canonical point
     of the sweep *)
  let point =
    match
      List.sort
        (fun a b ->
          compare
            (int "servers" b, int "seed" a)
            (int "servers" a, int "seed" b))
        (entries "points")
    with
    | p :: _ -> p
    | [] -> refuse "no 1PC points in %s" against
  in
  let servers = int "servers" point in
  let seed = int "seed" point in
  let txns = int "txns" point in
  let base_events = int "events" point in
  let base_eps = get Json.to_float "events_per_cpu_s" point in
  let prof =
    match entries "profiles" with
    | p :: _ -> p
    | [] -> refuse "%s has no 1PC host profile" against
  in
  let prof_events = int "events" prof in
  let prof_total_cpu_ns = int "total_cpu_ns" prof in
  let prof_subsystems =
    match Json.member "subsystems" prof with
    | Some (Json.List l) ->
        List.map (fun s -> (get Json.to_str "subsystem" s, int "cpu_ns" s)) l
    | _ -> refuse "%s: the 1PC profile has no subsystems" against
  in
  (* One untimed warmup, then best-of-3 CPU-time runs from the same
     canonical compacted heap the sweep times from: a single cold
     run would read systematically slow and trip the gate on GC or
     scheduler state rather than on the code. *)
  ignore (Opc.Experiment.run_scale_point ~servers ~txns ~seed opc);
  let best =
    List.init 3 (fun _ -> time_point ~servers ~txns ~seed opc)
    |> List.sort (fun a b -> compare a.cpu_s b.cpu_s)
    |> List.hd
  in
  let eps = events_per_cpu_s best in
  let events = best.point.events in
  let floor base_eps = base_eps *. (1.0 -. tolerance) in
  if events <> base_events then
    Fmt.epr
      "bench check: note: dispatch count drifted (%d baseline, %d now) — \
       the baseline predates a behavioural change@."
      base_events events;
  Fmt.pr
    "1PC, %d servers, %d txns, seed %d:@.  baseline %.0f events/s (cpu), \
     measured %.0f events/s (cpu, best of 3; floor %.0f)@."
    servers txns seed base_eps eps (floor base_eps);
  (* Allocation is shown beside the baseline's, not gated: the minor
     words are an exact count, the promoted and major words repeat only
     from a fresh process. *)
  List.iter
    (fun (key, what, measured) ->
      Fmt.pr "  baseline %s %s/txn, measured %.1f@."
        (match Json.(to_float (member key point)) with
        | Some w -> Fmt.str "%.1f" w
        | None -> "(not recorded)")
        what (measured ~txns best))
    [
      ("minor_words_per_txn", "minor words", minor_words_per_txn);
      ("promoted_words_per_txn", "promoted words", promoted_words_per_txn);
      ("major_words_per_txn", "major words", major_words_per_txn);
    ];
  (* On a tripped gate, turn "slower" into "slower, and THIS
     subsystem paid for it": re-run the same point profiled and
     compare per-subsystem self-time per event against the split
     `bench scale` recorded in the baseline. *)
  let rerun = lazy (snd (run_profiled_point ~servers ~txns ~seed opc)) in
  let attribution () =
    List.filter_map
      (fun (name, cpu_now, _minor) ->
        match List.assoc_opt name prof_subsystems with
        | Some cpu_base when cpu_base > 0 ->
            let per_ev_base =
              float_of_int cpu_base /. float_of_int prof_events
            in
            let per_ev_now = float_of_int cpu_now /. float_of_int events in
            Some (name, per_ev_now /. per_ev_base, cpu_now, cpu_base)
        | _ -> None)
      (Obs.Prof.by_subsystem (Lazy.force rerun))
    |> List.sort (fun (_, a, _, _) (_, b, _, _) -> compare b a)
  in
  (* A tripped perf gate is an incident too: bundle the verdict, the
     verbatim repro and the profiled rerun's flame graph so the
     regression ships with its own evidence. *)
  let write_incident ~dir verdict =
    let source =
      {
        Obs.Autopsy.verdict = "bench check: " ^ verdict;
        protocol = Opc.Acp.Protocol.name opc;
        seed;
        repro =
          Fmt.str "dune exec bench/main.exe -- check --against %s \
                   --tolerance %g"
            against tolerance;
        schedule = "";
        diagnostics = "";
        sink = Obs.Sink.disabled ();
        profile = Some (Lazy.force rerun);
        coverage = [];
      }
    in
    ignore (Obs.Autopsy.write ~dir source);
    match Obs.Autopsy.validate dir with
    | Ok () -> Fmt.str "incident bundle: %s" dir
    | Error e -> Fmt.str "incident bundle %s failed validation: %s" dir e
  in
  let judge (recorded, base_eps, incident) =
    match mismatch recorded with
    | Some m -> [ m ]
    | None when eps >= floor base_eps -> []
    | None ->
        let regression =
          Fmt.str
            "REGRESSION: %.0f events/s (cpu) is %.1f%% below baseline %.0f \
             (floor %.0f, tolerance %.0f%%)"
            eps
            ((base_eps -. eps) /. base_eps *. 100.0)
            base_eps (floor base_eps) (tolerance *. 100.)
        in
        (* The largest ratio can be below 1: name a subsystem only
           when its self-time per event grew. *)
        let attributed =
          match attribution () with
          | (worst, growth, cpu_now, cpu_base) :: _ when growth > 1.0 ->
              [
                Fmt.str
                  "subsystem attribution (profiled rerun): %s self-time/event \
                   grew %.2fx (%.1f%% -> %.1f%% of the run's host time)"
                  worst growth
                  (100.0 *. prof_share cpu_base prof_total_cpu_ns)
                  (100.0
                  *. prof_share cpu_now (Lazy.force rerun).Obs.Prof.total_cpu_ns
                  );
              ]
          | _ :: _ ->
              [
                "subsystem attribution (profiled rerun): no subsystem's \
                 self-time/event grew";
              ]
          | [] -> []
        in
        (regression :: attributed) @ [ write_incident ~dir:incident regression ]
  in
  let incident = Fmt.str "INCIDENT_check_%d" seed in
  let ok, verdict =
    gate ~name:"check" judge
      (recorded, base_eps, incident)
      [
        ( "baseline events_per_cpu_s = 999999999",
          [ "subsystem attribution" ],
          (recorded, 999_999_999., incident ^ "_control") );
        ( "baseline build_profile = \"another-build\"",
          [
            "build profile mismatch: ";
            " timed under \"another-build\", this binary is \"";
          ],
          ((Some "another-build", snd recorded), base_eps, incident) );
        ( "baseline ocaml_version = \"4.14.0\"",
          [
            "compiler mismatch: ";
            " built with OCaml \"4.14.0\", this binary is \"";
          ],
          ((fst recorded, Some "4.14.0"), base_eps, incident) );
      ]
  in
  ( [
      ("against", Json.Str against);
      ("tolerance", Json.Float tolerance);
      ("protocol", Json.Str (Opc.Acp.Protocol.name opc));
      ("servers", Json.Int servers);
      ("seed", Json.Int seed);
      ("txns", Json.Int txns);
      ("baseline_events_per_s", Json.Float base_eps);
      ("measured_events_per_s", Json.Float eps);
      ("floor_events_per_s", Json.Float (floor base_eps));
      ("baseline_events", Json.Int base_events);
      ("measured_events", Json.Int events);
      ("cpu_s", Json.Float best.cpu_s);
      ("wall_s", Json.Float best.wall_s);
    ]
    @ (if eps < floor base_eps then [ ("incident", Json.Str incident) ]
       else [])
    @ verdict,
    ok )

(* ------------------------------------------------------------------ *)
(* A15 — overload: goodput curves across the capacity knee             *)
(* ------------------------------------------------------------------ *)

(* Sweeps offered load across the knee twice: through the bounded
   ingress, where every protocol must degrade gracefully, and with both
   admission bounds lifted — the negative control, whose retry storm
   must collapse goodput and trip the same check. The control's
   collapse curve is kept in the artifact. *)
let overload ~smoke () =
  section "A15: overload sweep: goodput across the capacity knee";
  let base_rate = 100.0 in
  let duration_ms = if smoke then 400 else 600 in
  let multipliers =
    if smoke then [ 0.5; 1.0; 2.0; 6.0 ]
    else [ 0.25; 0.5; 1.0; 2.0; 4.0; 8.0 ]
  in
  let floor = 0.25 in
  let seed = 1 in
  let ms span = float_of_int (Opc.Simkit.Time.span_to_ns span) /. 1e6 in
  (* Graceful degradation, within-sweep: goodput at the heaviest
     offered load must hold [floor] of the sweep's own peak, and no
     point may trip a correctness oracle. *)
  let degradation (name, peak, final, viols) =
    if viols = 0 && (peak <= 0.0 || final >= floor *. peak) then None
    else
      Some
        (Fmt.str
           "%s FAILS graceful degradation — %.1f/s goodput at max offered \
            load vs %.1f/s peak (floor %.0f%%), %d oracle violation(s)"
           name final peak (100.0 *. floor) viols)
  in
  let sweep ~max_inflight ~queue_capacity =
    (* Fault-free runs of the overload campaign's cluster: the campaign
       stresses fault schedules at two rates, this sweep maps the whole
       goodput curve. *)
    let spec =
      {
        Opc.Chaos.Overload.default_spec with
        duration_ms;
        max_inflight;
        queue_capacity;
      }
    in
    Fmt.pr
      "@.(open-loop Poisson arrivals x Zipf(1.1) over 4 dirs, base %.0f \
       req/s, %d ms window; client policy: 500 ms patience, 60 ms backoff \
       x2 with 20%% jitter, 4 attempts; ingress: max_inflight=%d, \
       queue=%d)@."
      base_rate duration_ms max_inflight queue_capacity;
    let t =
      Opc.Metrics.Table.create
        ~columns:
          [
            "protocol"; "x"; "offered"; "committed"; "gave up"; "shed";
            "good/s"; "amp"; "p95 [ms]";
          ]
    in
    let protocols =
      List.map
        (fun protocol ->
          let points =
            List.map
              (fun m ->
                let rate = base_rate *. m in
                let r : Opc.Chaos.Overload.run =
                  Opc.Chaos.Overload.run spec ~protocol ~seed ~rate
                    ~schedule:None
                in
                let st = r.stats and ing = r.ingress in
                let p50, p95, p99 = (ms r.p50, ms r.p95, ms r.p99) in
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
                      ("violations", Json.Int (List.length r.violations));
                    ]
                in
                (json, st.goodput_per_s, List.length r.violations))
              multipliers
          in
          let goodputs = List.map (fun (_, g, _) -> g) points in
          let summary =
            ( Opc.Acp.Protocol.name protocol,
              List.fold_left max 0.0 goodputs,
              List.nth goodputs (List.length goodputs - 1),
              List.fold_left (fun acc (_, _, v) -> acc + v) 0 points )
          in
          let name, peak, final, viols = summary in
          ( summary,
            Json.Obj
              [
                ("protocol", Json.Str name);
                ("points", Json.List (List.map (fun (j, _, _) -> j) points));
                ("peak_goodput_per_s", Json.Float peak);
                ("goodput_at_max_offered_per_s", Json.Float final);
                ("oracle_violations", Json.Int viols);
                ("gate_ok", Json.Bool (degradation summary = None));
              ] ))
        Opc.Acp.Protocol.all
    in
    Opc.Metrics.Table.print t;
    ( List.map fst protocols,
      [
        ("max_inflight", Json.Int max_inflight);
        ("queue_capacity", Json.Int queue_capacity);
        ("protocols", Json.List (List.map snd protocols));
      ] )
  in
  let bounded, bounded_json = sweep ~max_inflight:24 ~queue_capacity:64 in
  let unbounded, unbounded_json =
    sweep ~max_inflight:1_000_000 ~queue_capacity:1_000_000
  in
  let ok, verdict =
    gate ~name:"overload"
      (List.filter_map degradation)
      bounded
      [
        ( "max_inflight and queue_capacity at 1,000,000",
          [ "FAILS graceful degradation" ],
          unbounded );
      ]
  in
  if ok then
    Fmt.pr
      "gate: all protocols hold >= %.0f%% of peak goodput at max offered \
       load, zero oracle violations@."
      (100.0 *. floor);
  ( [
      ("base_rate_per_s", Json.Float base_rate);
      ("duration_ms", Json.Int duration_ms);
      ("seed", Json.Int seed);
      ("goodput_floor", Json.Float floor);
    ]
    @ bounded_json
    @ (("unbounded", Json.Obj unbounded_json) :: verdict),
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

let coverage ~smoke ~seeds () =
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
     committed-image replays, in-doubt worker parks, REDO
     re-executions. *)
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
  (* Per-protocol edge coverage against the committed floors. The smoke
     campaign runs a fraction of the seeds, so it reaches fewer rare
     edges; the committed floors apply to the full run. *)
  let floors =
    List.map
      (fun (p, f) -> (p, if smoke then f *. 0.9 else f))
      coverage_floors
  in
  let reach p =
    let edges = Opc.Acp.Edges.of_protocol p in
    let never =
      List.filter (fun (e : Opc.Acp.Edges.edge) -> merged.(e.id) = 0) edges
    in
    let declared = List.length edges in
    let hit = declared - List.length never in
    (declared, hit, float_of_int hit /. float_of_int declared, never)
  in
  let t =
    Opc.Metrics.Table.create
      ~columns:[ "protocol"; "declared"; "hit"; "coverage"; "floor"; "ok" ]
  in
  let proto_rows =
    List.map
      (fun (p, floor) ->
        let declared, hit, pct, never = reach p in
        Opc.Metrics.Table.add_rowf t "%s|%d|%d|%.1f%%|%.0f%%|%s"
          (Opc.Acp.Protocol.name p) declared hit (100.0 *. pct)
          (100.0 *. floor)
          (if pct >= floor then "yes" else "NO");
        Json.Obj
          [
            ("protocol", Json.Str (Opc.Acp.Protocol.name p));
            ("declared", Json.Int declared);
            ("hit", Json.Int hit);
            ("coverage", Json.Float pct);
            ("floor", Json.Float floor);
            ("ok", Json.Bool (pct >= floor));
            ( "never_hit",
              Json.List
                (List.map (fun e -> Json.Str (Opc.Acp.Edges.name e)) never) );
          ])
      floors
  in
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
  let judge floors =
    (if all_passed then [] else [ "a campaign run failed its oracles" ])
    @ (if probes_ok then []
       else [ "a probe did not settle with a balanced ledger" ])
    @ List.filter_map
        (fun (p, floor) ->
          let _, _, pct, never = reach p in
          if pct >= floor then None
          else
            Some
              (Fmt.str "FLOOR MISS %s: %.1f%% < %.0f%%, never hit: %s"
                 (Opc.Acp.Protocol.name p) (100.0 *. pct) (100.0 *. floor)
                 (String.concat "; " (List.map Opc.Acp.Edges.name never))))
        floors
  in
  let ok, verdict =
    gate ~name:"coverage" judge floors
      [
        ( "floors of 1.01",
          [ "FLOOR MISS "; "never hit:" ],
          List.map (fun (p, _) -> (p, 1.01)) floors );
      ]
  in
  Fmt.pr "coverage gate: %s@." (if ok then "pass" else "FAIL");
  ( [
      ("campaign_seeds", Json.Int campaign_seeds);
      ("directed_seeds", Json.Int directed_seeds);
      ("runs", Json.Int !runs);
      ("all_runs_passed", Json.Bool all_passed);
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
    ]
    @ verdict,
    ok )

(* ------------------------------------------------------------------ *)

(* The paper's tables, figures and ablations: simulated quantities
   only, and no bounds to gate. *)
let paper_commands =
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
  ]

let () =
  let command = ref None and json_path = ref None and smoke = ref false in
  let seeds = ref None and txns = ref None in
  let against = ref "BENCH_scale.json" and tolerance = ref 0.15 in
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
           timeline (1PC only), overload (shorter sweep), drill (1PC and \
           L1PC, 3 seeds), coverage (4 seeds/protocol)" );
        ( "--seeds",
          positive "--seeds" seeds,
          "N scale seeds (default 2), drills per protocol (default 5) or \
           chaos seeds per protocol for coverage (default 25)" );
        ( "--txns",
          positive "--txns" txns,
          "N txns per scale point (default 20000) or per breakdown protocol \
           (default 20)" );
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
      ]
  in
  let usage =
    Fmt.str
      "usage: bench [SUBCOMMAND] [FLAGS]\n\
       subcommands: all (default) | scale | breakdown | timeline | check | \
       overload | drill | coverage | %s\n\
       every subcommand writes BENCH_<name>.json and prints the path"
      (String.concat " | " (List.map fst paper_commands))
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
  let simulated result = ("none", result) in
  let clock, (body, ok) =
    match name with
    | "all" ->
        simulated
          ( List.map (fun (name, f) -> (name, Json.Obj (f ()))) paper_commands,
            true )
    | "scale" ->
        (* 10k txns keeps the smoke sweep a few seconds while making each
           timed window ~0.3 s — long enough for `bench check` to
           re-measure a point without transients dominating. *)
        let txns = Option.value !txns ~default:20_000 in
        ( "process CPU (Sys.time) and wall time per point; monotonic clock \
           in profiles",
          scale ~smoke
            ~seeds:(if smoke then 1 else Option.value !seeds ~default:2)
            ~txns:(if smoke then min txns 10_000 else txns)
            () )
    | "breakdown" ->
        simulated (breakdown ~count:(pick !txns ~smoke:5 ~full:20) ())
    | "timeline" -> simulated (timeline ~smoke ())
    | "check" ->
        ( "process CPU (Sys.time); monotonic clock in the attribution \
           profile",
          regression_check ~against:!against ~tolerance:!tolerance () )
    | "overload" -> simulated (overload ~smoke ())
    | "drill" ->
        simulated (drill ~smoke ~seeds:(pick !seeds ~smoke:3 ~full:5) ())
    | "coverage" ->
        simulated (coverage ~smoke ~seeds:(pick !seeds ~smoke:4 ~full:25) ())
    | name -> (
        match List.assoc_opt name paper_commands with
        | Some f -> simulated (f (), true)
        | None ->
            Fmt.epr "bench: unknown experiment %S@." name;
            Arg.usage specs usage;
            exit 2)
  in
  (* Every subcommand leaves a JSON artifact and says where it went. *)
  emit
    ~path:(Option.value !json_path ~default:("BENCH_" ^ name ^ ".json"))
    ~benchmark:name ~clock ~smoke body;
  if not ok then exit 1
