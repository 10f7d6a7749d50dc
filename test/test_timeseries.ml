(* Tests for the telemetry layer added with the recovery-timeline work:
   the periodic gauge sampler (Obs.Timeseries), the lifecycle journal's
   MTTR decomposition (Obs.Mttr), and the two acceptance properties the
   design demands — sampling is invisible to the simulation (golden
   digits are bit-identical with it on), and MTTR windows decompose
   exactly and start at the injected crash instant. *)

open Opc

let pname = Acp.Protocol.name

(* ------------------------------------------------------------------ *)
(* Sampler semantics                                                   *)
(* ------------------------------------------------------------------ *)

(* Drive [ts] from [engine]'s clock, as a cluster's sink does. *)
let install ts engine =
  Obs.Sink.install { (Obs.Sink.disabled ()) with sampler = ts } engine

let test_sampler_cadence () =
  let engine = Simkit.Engine.create () in
  let v = ref 0 in
  let ts = Obs.Timeseries.create ~period:(Simkit.Time.span_ms 5) in
  Obs.Timeseries.register ts ~name:"v" (fun () -> !v);
  install ts engine;
  List.iter
    (fun (ms, value) ->
      ignore
        (Simkit.Engine.schedule_at engine
           ~at:(Simkit.Time.of_ns (ms * 1_000_000))
           (fun () -> v := value)))
    [ (3, 1); (5, 2); (12, 3) ];
  ignore (Simkit.Engine.run engine);
  Alcotest.(check (array string)) "columns" [| "v" |]
    (Obs.Timeseries.columns ts);
  (* Initial row at install, then one row per crossed period boundary.
     The row at a boundary reads the state *before* same-instant events:
     at 5 ms the sampler sees the value the 3 ms event left behind. *)
  let rows = ref [] in
  Obs.Timeseries.iter
    (fun at values ->
      rows := (Simkit.Time.to_ns at / 1_000_000, values.(0)) :: !rows)
    ts;
  Alcotest.(check (list (pair int int)))
    "rows (ms, value)"
    [ (0, 0); (5, 1); (10, 2) ]
    (List.rev !rows);
  Alcotest.(check int) "length" 3 (Obs.Timeseries.length ts);
  let at, values = Obs.Timeseries.get ts 2 in
  Alcotest.(check int) "get time" 10_000_000 (Simkit.Time.to_ns at);
  Alcotest.(check int) "get value" 2 values.(0)

let test_sampler_guards () =
  Alcotest.check_raises "nonpositive period"
    (Invalid_argument "Obs.Timeseries.create: period must be positive")
    (fun () ->
      ignore (Obs.Timeseries.create ~period:Simkit.Time.zero_span));
  let engine = Simkit.Engine.create () in
  let ts = Obs.Timeseries.create ~period:(Simkit.Time.span_ms 1) in
  Obs.Timeseries.register ts ~name:"g" (fun () -> 0);
  install ts engine;
  Alcotest.check_raises "register after install"
    (Invalid_argument "Obs.Timeseries.register: already started")
    (fun () -> Obs.Timeseries.register ts ~name:"late" (fun () -> 0))

let test_sampler_disabled () =
  let engine = Simkit.Engine.create () in
  let ts = Obs.Timeseries.disabled () in
  Alcotest.(check bool) "not recording" false (Obs.Timeseries.is_recording ts);
  Obs.Timeseries.register ts ~name:"g" (fun () ->
      Alcotest.fail "disabled sampler must never read a gauge");
  install ts engine;
  ignore (Simkit.Engine.schedule engine ~after:(Simkit.Time.span_ms 10)
            (fun () -> ()));
  ignore (Simkit.Engine.run engine);
  Alcotest.(check int) "no rows" 0 (Obs.Timeseries.length ts)

(* ------------------------------------------------------------------ *)
(* MTTR decomposition on synthetic journals                            *)
(* ------------------------------------------------------------------ *)

let entry ms node kind =
  {
    Obs.Journal.time = Simkit.Time.of_ns (ms * 1_000_000);
    node;
    kind;
  }

let test_mttr_synthetic () =
  let journal =
    [
      entry 0 1 Obs.Journal.Serving;
      entry 100 1 Obs.Journal.Crash;
      entry 120 0 (Obs.Journal.Suspect { peer = 1 });
      entry 140 0 (Obs.Journal.Fence_end { victim = 1 });
      entry 180 0 (Obs.Journal.Scan_end { target = 1; records = 7 });
      entry 230 1 Obs.Journal.Serving;
    ]
  in
  match Obs.Mttr.windows journal with
  | [ w ] ->
      let ms s = Simkit.Time.span_to_ns s / 1_000_000 in
      Alcotest.(check int) "node" 1 w.Obs.Mttr.node;
      Alcotest.(check int) "start" 100
        (Simkit.Time.to_ns w.start / 1_000_000);
      Alcotest.(check int) "detect" 20 (ms w.detect);
      Alcotest.(check int) "fence" 20 (ms w.fence);
      Alcotest.(check int) "scan" 40 (ms w.scan);
      Alcotest.(check int) "resolve" 50 (ms w.resolve);
      Alcotest.(check int) "total" 130 (ms (Obs.Mttr.total w))
  | ws -> Alcotest.failf "expected one window, got %d" (List.length ws)

(* Markers that arrive out of order (or not at all) are clamped into a
   monotone chain, so the segments still telescope to the exact total
   and a missing phase reads as zero. *)
let test_mttr_clamping () =
  let journal =
    [
      entry 100 2 Obs.Journal.Crash;
      (* node rebooted and scanned before anyone suspected it *)
      entry 150 2 (Obs.Journal.Scan_end { target = 2; records = 3 });
      entry 160 2 Obs.Journal.Serving;
      entry 170 0 (Obs.Journal.Suspect { peer = 2 });
    ]
  in
  match Obs.Mttr.windows journal with
  | [ w ] ->
      let ns = Simkit.Time.span_to_ns in
      Alcotest.(check int) "detect clamps to zero" 0 (ns w.Obs.Mttr.detect);
      Alcotest.(check int) "fence clamps to zero" 0 (ns w.fence);
      Alcotest.(check int)
        "segments telescope"
        (ns (Obs.Mttr.total w))
        (ns w.detect + ns w.fence + ns w.scan + ns w.resolve)
  | ws -> Alcotest.failf "expected one window, got %d" (List.length ws)

let test_mttr_open_and_recrash () =
  let journal =
    [
      entry 100 1 Obs.Journal.Crash;
      (* STONITH re-crash of the same node before it ever served:
         the window keeps the earliest crash instant *)
      entry 130 1 Obs.Journal.Crash;
      entry 200 1 Obs.Journal.Serving;
      (* a second crash whose window never closes is dropped *)
      entry 300 1 Obs.Journal.Crash;
    ]
  in
  (match Obs.Mttr.windows journal with
  | [ w ] ->
      Alcotest.(check int) "earliest crash wins" 100
        (Simkit.Time.to_ns w.Obs.Mttr.start / 1_000_000)
  | ws -> Alcotest.failf "expected one window, got %d" (List.length ws));
  let windows = Obs.Mttr.windows journal in
  Alcotest.(check (result unit string))
    "matching expectation" (Ok ())
    (Obs.Mttr.check_crash_times
       ~expected:[ (1, Simkit.Time.of_ns 100_000_000) ]
       windows);
  (match
     Obs.Mttr.check_crash_times
       ~expected:[ (1, Simkit.Time.of_ns 101_000_000) ]
       windows
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "shifted crash time must not match");
  (* A drift below [Time.pp]'s display precision must still print two
     different instants. *)
  (match
     Obs.Mttr.check_crash_times
       ~expected:[ (1, Simkit.Time.of_ns 100_000_001) ]
       windows
   with
  | Error msg ->
      Alcotest.(check string)
        "1 ns drift names both instants"
        "no unavailability window for mds1 starting at 100000001ns \
         (windows: mds1@100000000ns)"
        msg
  | Ok () -> Alcotest.fail "a 1 ns drift must not match");
  match
    Obs.Mttr.check_crash_times
      ~expected:[ (2, Simkit.Time.of_ns 100_000_000) ]
      windows
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong node must not match"

(* ------------------------------------------------------------------ *)
(* Acceptance (a): segments sum exactly to each chaos window           *)
(* ------------------------------------------------------------------ *)

(* A 1PC chaos run of the default spec with the lifecycle journal on. *)
let journaled ?schedule ~seed () =
  let spec = Chaos.Runner.default_spec in
  let config =
    {
      (Chaos.Runner.config_of spec ~protocol:Acp.Protocol.Opc ~seed) with
      record_journal = true;
    }
  in
  Chaos.Runner.execute_config ?schedule spec ~config ~seed

let test_chaos_windows_decompose () =
  let windows_seen = ref 0 in
  List.iter
    (fun seed ->
      let o = journaled ~seed () in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d passes" seed)
        true (Chaos.Runner.passed o);
      List.iter
        (fun (w : Obs.Mttr.window) ->
          incr windows_seen;
          let ns = Simkit.Time.span_to_ns in
          Alcotest.(check int)
            (Printf.sprintf "seed %d node %d segments sum to window" seed
               w.Obs.Mttr.node)
            (ns (Obs.Mttr.total w))
            (ns w.detect + ns w.fence + ns w.scan + ns w.resolve))
        (Obs.Mttr.windows o.Chaos.Runner.journal))
    [ 1; 2; 3 ];
  Alcotest.(check bool)
    "at least one unavailability window closed across seeds 1-3" true
    (!windows_seen > 0)

(* ------------------------------------------------------------------ *)
(* Acceptance (b): window start = the schedule's injected crash time   *)
(* ------------------------------------------------------------------ *)

let test_window_starts_at_injected_crash () =
  let schedule =
    {
      Chaos.Schedule.window_ms = 600;
      events = [ Chaos.Schedule.Crash { server = 1; at_ms = 100 } ];
    }
  in
  let o = journaled ~schedule ~seed:1 () in
  Alcotest.(check bool) "run passes" true (Chaos.Runner.passed o);
  let windows = Obs.Mttr.windows o.Chaos.Runner.journal in
  Alcotest.(check bool) "window closed" true (windows <> []);
  let expected =
    Chaos.Schedule.crash_times ~origin:o.Chaos.Runner.origin schedule
  in
  Alcotest.(check int) "one expected crash" 1 (List.length expected);
  match Obs.Mttr.check_crash_times ~expected windows with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "crash-time cross-check failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Acceptance (c): golden digits bit-identical with sampling enabled   *)
(* ------------------------------------------------------------------ *)

(* Same pins as test_golden.ml's fig6_golden — re-stated here so this
   file is self-contained; both must be re-pinned together on a
   deliberate semantic change. *)
let fig6_golden =
  [
    (Acp.Protocol.Prn, "16.28", 100, 0, 3_604_610_000, 61_232_800);
    (Acp.Protocol.Prc, "19.49", 100, 0, 3_092_240_000, 51_194_200);
    (Acp.Protocol.Ep, "19.53", 100, 0, 3_087_339_500, 51_096_190);
    (Acp.Protocol.Opc, "24.60", 100, 0, 2_544_941_400, 40_552_400);
  ]

let test_fig6_sampling_enabled () =
  let config =
    {
      Experiment.fig6_config with
      Opc_cluster.Config.sample_period = Some (Simkit.Time.span_ms 1);
      record_journal = true;
    }
  in
  List.iter
    (fun (kind, throughput, committed, aborted, latency_ns, lock_ns) ->
      let p = Experiment.run_fig6_point ~config kind in
      Alcotest.(check string)
        (pname kind ^ " throughput (sampling on)")
        throughput
        (Printf.sprintf "%.2f" p.Experiment.throughput);
      Alcotest.(check int)
        (pname kind ^ " committed (sampling on)")
        committed p.committed;
      Alcotest.(check int)
        (pname kind ^ " aborted (sampling on)")
        aborted p.aborted;
      Alcotest.(check int)
        (pname kind ^ " mean latency ns (sampling on)")
        latency_ns
        (Simkit.Time.span_to_ns p.mean_latency);
      Alcotest.(check int)
        (pname kind ^ " mean lock hold ns (sampling on)")
        lock_ns
        (Simkit.Time.span_to_ns p.mean_lock_hold))
    fig6_golden

(* The sampler is driven by the clock observer, not by events, so even
   the engine's total dispatch count — the most sensitive pin we have —
   must not move when sampling is on. *)
let test_scale_point_sampling_enabled () =
  let config =
    {
      (Experiment.scale_config ~servers:8 ~seed:1) with
      Opc_cluster.Config.sample_period = Some (Simkit.Time.span_ms 1);
      record_journal = true;
    }
  in
  let p =
    Experiment.run_scale_point ~config ~servers:8 ~txns:2000 ~seed:1
      Acp.Protocol.Opc
  in
  Alcotest.(check int) "submitted" 1896 p.Experiment.submitted;
  Alcotest.(check int) "committed" 1896 p.committed;
  Alcotest.(check int) "aborted" 0 p.aborted;
  Alcotest.(check int) "events" 37944 p.events;
  Alcotest.(check int) "sim elapsed ns" 11_937_751_000
    (Simkit.Time.span_to_ns p.sim_elapsed);
  Alcotest.(check int) "p50 ns" 82_220_000
    (Simkit.Time.span_to_ns p.latency_p50);
  Alcotest.(check int) "p95 ns" 185_228_000
    (Simkit.Time.span_to_ns p.latency_p95);
  Alcotest.(check int) "p99 ns" 276_176_000
    (Simkit.Time.span_to_ns p.latency_p99)

(* ------------------------------------------------------------------ *)
(* Acceptance (d): the disabled path costs (at most) noise             *)
(* ------------------------------------------------------------------ *)

(* Both new features default off, and the sampling-off run reproduces
   the pinned digits above bit-for-bit — so the disabled path IS the
   PR-3 code path, dispatch for dispatch. The wall-clock check below
   adds the throughput angle: events/s with everything disabled must be
   within 5% of (i.e. at least 95% of) events/s with sampling and the
   journal enabled — if the disabled guards cost real time, this is
   where it shows. Best-of-3 per side to shed scheduler noise. *)
let test_disabled_sampler_overhead () =
  let run config =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Sys.time () in
      let p =
        Experiment.run_scale_point ?config ~servers:8 ~txns:2000 ~seed:1
          Acp.Protocol.Opc
      in
      let dt = Sys.time () -. t0 in
      Alcotest.(check int) "same simulation" 37944 p.Experiment.events;
      if dt < !best then best := dt
    done;
    float_of_int 37944 /. !best
  in
  let enabled_config =
    {
      (Experiment.scale_config ~servers:8 ~seed:1) with
      Opc_cluster.Config.sample_period = Some (Simkit.Time.span_ms 1);
      record_journal = true;
    }
  in
  (* Untimed warmup so the off side (measured first) doesn't absorb the
     process's cold-start ramp that the on side then skips. *)
  ignore
    (Experiment.run_scale_point ~servers:8 ~txns:2000 ~seed:1
       Acp.Protocol.Opc);
  let off = run None in
  let on = run (Some enabled_config) in
  if off < 0.95 *. on then
    Alcotest.failf
      "disabled-path events/s (%.0f) fell more than 5%% below the \
       enabled-sampler run (%.0f)"
      off on

(* Determinism with the journal on: the chaos goldens' seed-1 verdict
   must be unchanged when the run also records a journal. *)
let test_chaos_journal_is_passive () =
  let o = journaled ~seed:1 () in
  Alcotest.(check bool) "passes" true (Chaos.Runner.passed o);
  Alcotest.(check int) "committed" 78 o.Chaos.Runner.committed;
  Alcotest.(check int) "aborted" 4 o.aborted;
  Alcotest.(check bool) "journal recorded" true (o.journal <> [])

let () =
  Alcotest.run "timeseries"
    [
      ( "sampler",
        [
          Alcotest.test_case "cadence" `Quick test_sampler_cadence;
          Alcotest.test_case "guards" `Quick test_sampler_guards;
          Alcotest.test_case "disabled" `Quick test_sampler_disabled;
        ] );
      ( "mttr",
        [
          Alcotest.test_case "synthetic decomposition" `Quick
            test_mttr_synthetic;
          Alcotest.test_case "clamping" `Quick test_mttr_clamping;
          Alcotest.test_case "re-crash and open windows" `Quick
            test_mttr_open_and_recrash;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "chaos windows decompose exactly" `Slow
            test_chaos_windows_decompose;
          Alcotest.test_case "window starts at injected crash" `Quick
            test_window_starts_at_injected_crash;
          Alcotest.test_case "figure 6 digits, sampling on" `Quick
            test_fig6_sampling_enabled;
          Alcotest.test_case "scale point digits, sampling on" `Quick
            test_scale_point_sampling_enabled;
          Alcotest.test_case "disabled sampler overhead" `Slow
            test_disabled_sampler_overhead;
          Alcotest.test_case "chaos journal is passive" `Slow
            test_chaos_journal_is_passive;
        ] );
    ]
