(* Golden determinism pins.

   These tests freeze the exact numbers the seeded experiment and chaos
   runs produce today: Figure 6 throughput/latency digits, the measured
   Table I cost columns, and the chaos campaign's per-seed verdicts and
   per-edge transition counts.
   The simulator is deterministic, so any engine/heap/network/lock
   refactor that perturbs event order — not just event semantics —
   shows up here as a hard failure rather than as a silently different
   "valid" run. Constant-factor optimisations must reproduce every
   digit below bit-for-bit; a deliberate semantic change must re-pin
   them in the same commit that explains why. *)

open Opc

let pname = Acp.Protocol.name

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)
(* ------------------------------------------------------------------ *)

(* protocol, throughput (printed %.2f), committed, aborted,
   mean latency ns, mean lock-hold ns *)
let fig6_golden =
  [
    (Acp.Protocol.Prn, "16.28", 100, 0, 3_604_610_000, 61_232_800);
    (Acp.Protocol.Prc, "19.49", 100, 0, 3_092_240_000, 51_194_200);
    (Acp.Protocol.Ep, "19.53", 100, 0, 3_087_339_500, 51_096_190);
    (Acp.Protocol.Opc, "24.60", 100, 0, 2_544_941_400, 40_552_400);
    (* No disk anywhere in the transaction path: throughput is bounded
       by the network and the simulated CPU alone. *)
    (Acp.Protocol.Lp1, "2487.56", 100, 0, 20_301_000, 402_000);
  ]

(* Every Figure 6 digit of a run under [config] (the stock one by
   default); [tag] names the collectors it turns on in each check. *)
let check_fig6 ?config ?(tag = "") () =
  let name kind what =
    pname kind ^ " " ^ what ^ if tag = "" then "" else " (" ^ tag ^ ")"
  in
  List.iter
    (fun (kind, throughput, committed, aborted, latency_ns, lock_ns) ->
      let p = Experiment.run_fig6_point ?config kind in
      Alcotest.(check string)
        (name kind "throughput") throughput
        (Printf.sprintf "%.2f" p.Experiment.throughput);
      Alcotest.(check int) (name kind "committed") committed p.committed;
      Alcotest.(check int) (name kind "aborted") aborted p.aborted;
      Alcotest.(check int)
        (name kind "mean latency ns")
        latency_ns
        (Simkit.Time.span_to_ns p.mean_latency);
      Alcotest.(check int)
        (name kind "mean lock hold ns")
        lock_ns
        (Simkit.Time.span_to_ns p.mean_lock_hold))
    fig6_golden

let test_fig6 () = check_fig6 ()

(* Span recording must be passive: it schedules no events, reads no
   clocks, consumes no randomness. A figure-6 run with the tracer
   enabled must therefore reproduce every golden digit bit-for-bit. *)
let test_fig6_spans_enabled () =
  check_fig6 ~tag:"spans on"
    ~config:
      { Experiment.fig6_config with Opc_cluster.Config.record_spans = true }
    ()

(* The flight recorder must be equally passive: its ring writes are
   plain array stores off the engine observer and the journal and
   gauge feeds, so a figure-6 run with a recorder reproduces every
   digit. *)
let test_fig6_recorder_enabled () =
  check_fig6 ~tag:"recorder on"
    ~config:
      {
        Experiment.fig6_config with
        Opc_cluster.Config.recorder_size = Some 512;
      }
    ()

(* The coverage tap is two int stores per transition and the message
   meter a few per send — neither schedules events nor reads clocks,
   so a figure-6 run with both enabled reproduces every digit. *)
let test_fig6_coverage_enabled () =
  check_fig6 ~tag:"coverage on"
    ~config:
      { Experiment.fig6_config with Opc_cluster.Config.record_coverage = true }
    ()

(* Every collector at once — trace, spans, journal, 5 ms gauge
   sampling, profiler, recorder, coverage and meter. They share one
   sink, one engine observer and the recorder's feeds, so this is the
   combination the one-at-a-time cases cannot catch. *)
let all_on (c : Opc_cluster.Config.t) =
  {
    c with
    record_trace = true;
    record_spans = true;
    record_journal = true;
    sample_period = Some (Simkit.Time.span_ms 5);
    record_prof = true;
    recorder_size = Some 4096;
    record_coverage = true;
  }

let test_fig6_all_enabled () =
  check_fig6 ~tag:"all on" ~config:(all_on Experiment.fig6_config) ()

(* ------------------------------------------------------------------ *)
(* Table I (measured)                                                  *)
(* ------------------------------------------------------------------ *)

(* protocol, sync writes, async writes, ACP messages — per transaction,
   printed %.2f exactly as `bench table1` does *)
let table1_golden =
  [
    (Acp.Protocol.Prn, "5.00", "1.00", "4.00");
    (Acp.Protocol.Prc, "4.00", "1.00", "3.00");
    (Acp.Protocol.Ep, "4.00", "1.00", "1.00");
    (Acp.Protocol.Opc, "3.00", "1.00", "1.00");
    (Acp.Protocol.Lp1, "0.00", "0.00", "8.00");
  ]

let test_table1 () =
  List.iter
    (fun (kind, sync, async, msgs) ->
      let c = Experiment.run_table1_measured kind in
      let fmt = Printf.sprintf "%.2f" in
      Alcotest.(check string)
        (pname kind ^ " sync writes/txn")
        sync
        (fmt c.Experiment.sync_writes_per_txn);
      Alcotest.(check string)
        (pname kind ^ " async writes/txn")
        async
        (fmt c.async_writes_per_txn);
      Alcotest.(check string)
        (pname kind ^ " messages/txn")
        msgs
        (fmt c.acp_messages_per_txn))
    table1_golden

(* ------------------------------------------------------------------ *)
(* Chaos verdicts                                                      *)
(* ------------------------------------------------------------------ *)

(* Per protocol: (committed, aborted) for seeds 1..5 of the default
   spec, all of which pass the atomicity/liveness oracles. *)
let chaos_golden =
  [
    (Acp.Protocol.Prn, [ (77, 5); (76, 6); (73, 6); (73, 6); (70, 10) ]);
    (Acp.Protocol.Prc, [ (76, 6); (78, 5); (72, 6); (72, 7); (70, 10) ]);
    (Acp.Protocol.Ep, [ (76, 6); (77, 6); (72, 6); (72, 7); (70, 10) ]);
    (Acp.Protocol.Opc, [ (78, 4); (76, 6); (70, 10); (76, 4); (74, 6) ]);
    (Acp.Protocol.Lp1, [ (81, 1); (70, 12); (75, 6); (75, 4); (74, 7) ]);
  ]

(* Per protocol: every declared edge the same five runs traverse, with
   its traversal count summed over them, in edge-id order. A 1PC or
   L1PC run also counts its PrN fallback's edges. An edge missing from
   a list must stay untraversed, so a lost, moved or extra [hit]
   fails on the edge it names. *)
let edge_golden =
  [
    ( Acp.Protocol.Prn,
      [
        ("PrN.worker recovery --scan_prepared--> prepared", 1);
        ("PrN.coord recovery --scan_started_only--> aborting", 1);
        ("PrN.coord recovery --scan_prepared--> voting", 1);
        ("PrN.coord recovery --scan_aborted--> aborted_waiting_acks", 1);
        ("PrN.worker prepared --resend_decision_req--> prepared", 2);
        ("PrN.worker idle --decision--> idle", 34);
        ("PrN.worker in_progress --abort--> done", 3);
        ("PrN.worker prepared --commit--> done", 384);
        ("PrN.worker prepared --prepare--> prepared", 1);
        ("PrN.worker updated --prepare--> prepared", 389);
        ("PrN.worker in_progress --update_req--> in_progress", 1);
        ("PrN.worker idle --update_req--> updated", 389);
        ("PrN.coord live --decision_req--> live", 1);
        ("PrN.coord waiting_acks --resend_decision--> waiting_acks", 16);
        ("PrN.coord waiting_acks --all_acked--> done", 394);
        ("PrN.coord waiting_acks --ack--> waiting_acks", 414);
        ("PrN.coord voting --vote_timeout--> aborting", 18);
        ("PrN.coord aborting --abort_durable--> aborted_waiting_acks", 29);
        ("PrN.coord voting --all_yes--> committed", 364);
        ("PrN.coord voting --prepared_yes--> voting", 384);
        ("PrN.coord working --all_updated--> voting", 369);
        ("PrN.coord working --updated_ok--> working", 389);
        ("PrN.coord working --lock_timeout--> aborting", 12);
        ("PrN.coord idle --submit--> working", 394);
      ] );
    ( Acp.Protocol.Prc,
      [
        ("PrC.worker recovery --scan_prepared--> prepared", 1);
        ("PrC.coord recovery --scan_started_only--> aborting", 1);
        ("PrC.coord recovery --scan_prepared--> voting", 1);
        ("PrC.coord recovery --scan_aborted--> aborted_waiting_acks", 1);
        ("PrC.worker prepared --resend_decision_req--> prepared", 4);
        ("PrC.worker idle --decision--> idle", 35);
        ("PrC.worker in_progress --abort--> done", 6);
        ("PrC.worker prepared --commit--> done", 387);
        ("PrC.worker prepared --prepare--> prepared", 1);
        ("PrC.worker updated --prepare--> prepared", 396);
        ("PrC.worker in_progress --update_req--> in_progress", 6);
        ("PrC.worker idle --update_req--> updated", 396);
        ("PrC.coord idle --decision_req_presumed--> idle", 3);
        ("PrC.coord live --decision_req--> live", 1);
        ("PrC.coord waiting_acks --resend_decision--> waiting_acks", 8);
        ("PrC.coord waiting_acks --all_acked--> done", 33);
        ("PrC.coord waiting_acks --ack--> waiting_acks", 33);
        ("PrC.coord voting --vote_timeout--> aborting", 20);
        ("PrC.coord aborting --abort_durable--> aborted_waiting_acks", 31);
        ("PrC.coord voting --all_yes--> committed", 363);
        ("PrC.coord voting --prepared_yes--> voting", 388);
        ("PrC.coord working --all_updated--> voting", 371);
        ("PrC.coord working --updated_ok--> working", 396);
        ("PrC.coord working --lock_timeout--> aborting", 12);
        ("PrC.coord idle --submit--> working", 395);
      ] );
    ( Acp.Protocol.Ep,
      [
        ("EP.worker recovery --scan_prepared--> prepared", 1);
        ("EP.coord recovery --scan_started_only--> aborting", 1);
        ("EP.coord recovery --scan_prepared--> voting", 1);
        ("EP.coord recovery --scan_aborted--> aborted_waiting_acks", 1);
        ("EP.worker prepared --resend_decision_req--> prepared", 3);
        ("EP.worker idle --decision--> idle", 35);
        ("EP.worker in_progress --abort--> done", 8);
        ("EP.worker prepared --commit--> done", 385);
        ("EP.worker in_progress --update_req--> in_progress", 6);
        ("EP.worker idle --update_req--> prepared", 396);
        ("EP.coord idle --decision_req_presumed--> idle", 1);
        ("EP.coord live --decision_req--> live", 2);
        ("EP.coord waiting_acks --resend_decision--> waiting_acks", 8);
        ("EP.coord waiting_acks --all_acked--> done", 34);
        ("EP.coord waiting_acks --ack--> waiting_acks", 35);
        ("EP.coord voting --vote_timeout--> aborting", 20);
        ("EP.coord aborting --abort_durable--> aborted_waiting_acks", 32);
        ("EP.coord voting --all_yes--> committed", 361);
        ("EP.coord working --updated_ok--> working", 385);
        ("EP.coord working --lock_timeout--> aborting", 13);
        ("EP.coord idle --submit--> working", 394);
      ] );
    ( Acp.Protocol.Opc,
      [
        ("1PC.coord idle --submit--> starting", 365);
        ("1PC.coord starting --redo_durable--> working", 359);
        ("1PC.coord starting --lock_timeout--> aborting", 18);
        ("1PC.coord starting --replay_lock_retry--> starting", 1);
        ("1PC.coord working --resend_update_req--> working", 12);
        ("1PC.coord working --updated_ok--> committing", 344);
        ("1PC.coord working --suspect--> recovering", 10);
        ("1PC.coord recovering --worker_log_committed--> committing", 4);
        ("1PC.coord recovering --worker_log_empty--> aborting", 4);
        ("1PC.coord committing --commit_durable--> done", 345);
        ("1PC.coord aborting --abort_durable--> done", 17);
        ("1PC.coord working --ack_req--> working", 2);
        ("1PC.coord idle --ack_req--> idle", 13);
        ("1PC.worker idle --update_req--> working", 347);
        ("1PC.worker working --applied--> committed", 345);
        ("1PC.worker committed --update_req--> committed", 4);
        ("1PC.worker working --update_req--> working", 3);
        ("1PC.worker committed --ack--> ended", 346);
        ("1PC.worker committed --resend_ack_req--> committed", 9);
        ("1PC.coord recovery --scan_redo--> starting", 16);
        ("1PC.worker recovery --scan_committed--> committed", 17);
        ("PrN.coord recovery --scan_started_only--> aborting", 1);
        ("PrN.worker idle --decision--> idle", 4);
        ("PrN.worker in_progress --abort--> done", 2);
        ("PrN.worker prepared --commit--> done", 48);
        ("PrN.worker updated --prepare--> prepared", 50);
        ("PrN.worker idle --update_req--> updated", 51);
        ("PrN.coord waiting_acks --resend_decision--> waiting_acks", 1);
        ("PrN.coord waiting_acks --all_acked--> done", 27);
        ("PrN.coord waiting_acks --ack--> waiting_acks", 54);
        ("PrN.coord voting --vote_timeout--> aborting", 2);
        ("PrN.coord aborting --abort_durable--> aborted_waiting_acks", 2);
        ("PrN.coord voting --all_yes--> committed", 24);
        ("PrN.coord voting --prepared_yes--> voting", 48);
        ("PrN.coord working --all_updated--> voting", 25);
        ("PrN.coord working --updated_ok--> working", 51);
        ("PrN.coord idle --submit--> working", 27);
      ] );
    ( Acp.Protocol.Lp1,
      [
        ("PrN.coord recovery --scan_started_only--> aborting", 1);
        ("PrN.coord recovery --scan_prepared--> voting", 1);
        ("PrN.worker updated --abandon_timeout--> idle", 2);
        ("PrN.worker prepared --resend_decision_req--> prepared", 1);
        ("PrN.worker idle --decision--> idle", 24);
        ("PrN.worker in_progress --abort--> done", 7);
        ("PrN.worker prepared --commit--> done", 22);
        ("PrN.worker idle --prepare--> idle", 1);
        ("PrN.worker prepared --prepare--> prepared", 1);
        ("PrN.worker updated --prepare--> prepared", 27);
        ("PrN.worker idle --update_req_reject--> idle", 2);
        ("PrN.worker idle --update_req--> updated", 34);
        ("PrN.coord waiting_acks --resend_decision--> waiting_acks", 7);
        ("PrN.coord waiting_acks --all_acked--> done", 25);
        ("PrN.coord waiting_acks --ack--> waiting_acks", 53);
        ("PrN.coord voting --vote_timeout--> aborting", 8);
        ("PrN.coord aborting --abort_durable--> aborted_waiting_acks", 13);
        ("PrN.coord voting --all_yes--> committed", 11);
        ("PrN.coord voting --prepared_no--> aborting", 1);
        ("PrN.coord voting --prepared_yes--> voting", 24);
        ("PrN.coord working --all_updated--> voting", 14);
        ("PrN.coord working --updated_ok--> working", 32);
        ("PrN.coord working --lock_timeout--> aborting", 5);
        ("PrN.coord idle --submit--> working", 25);
        ("L1PC.coord idle --submit--> voting", 376);
        ("L1PC.coord idle --lock_timeout--> aborted", 10);
        ("L1PC.coord voting --resend_vote_req--> voting", 3);
        ("L1PC.coord voting --vote_yes--> deciding", 361);
        ("L1PC.coord voting --vote_no--> aborted", 3);
        ("L1PC.coord voting --suspect--> aborted", 2);
        ("L1PC.coord deciding --decide_ack--> done", 361);
        ("L1PC.worker idle --vote_req--> replicating", 361);
        ("L1PC.worker idle --vote_req_wait_die--> idle", 3);
        ("L1PC.worker replicating --rep_ack--> voted", 361);
        ("L1PC.worker voted --decide_commit--> done", 361);
        ("L1PC.replica idle --rep_store--> stored", 719);
        ("L1PC.replica stored --rep_drop--> idle", 719);
        ("L1PC.replica stored --recover_req--> stored", 9);
        ("L1PC.worker reboot --recover_begin--> collecting", 4);
        ("L1PC.worker collecting --recover_resp--> collecting", 8);
      ] );
  ]

let test_chaos () =
  List.iter
    (fun (kind, per_seed) ->
      let hits = Array.make Acp.Edges.count 0 in
      List.iteri
        (fun i (committed, aborted) ->
          let seed = i + 1 in
          let o =
            Chaos.Runner.execute Chaos.Runner.default_spec ~protocol:kind
              ~seed
          in
          let tag = Printf.sprintf "%s seed %d" (pname kind) seed in
          Alcotest.(check bool) (tag ^ " passes") true (Chaos.Runner.passed o);
          Alcotest.(check int)
            (tag ^ " committed")
            committed o.Chaos.Runner.committed;
          Alcotest.(check int) (tag ^ " aborted") aborted o.aborted;
          Array.iteri (fun id n -> hits.(id) <- hits.(id) + n) o.edge_hits)
        per_seed;
      let golden = List.assoc kind edge_golden in
      List.iter
        (fun (e : Acp.Edges.edge) ->
          let name = Acp.Edges.name e in
          Alcotest.(check int)
            (Printf.sprintf "%s seeds 1-5: %s" (pname kind) name)
            (Option.value (List.assoc_opt name golden) ~default:0)
            hits.(e.id))
        Acp.Edges.all)
    chaos_golden

(* ------------------------------------------------------------------ *)
(* Scale campaign point                                                *)
(* ------------------------------------------------------------------ *)

(* One small point of `bench scale`, pinned end to end: counters, the
   engine's total dispatch count (any change to what gets scheduled
   moves it) and the latency quantiles; [config] and [tag] as for
   {!check_fig6}. *)
let check_scale_point ?config ?(tag = "") () =
  let name what = if tag = "" then what else what ^ " (" ^ tag ^ ")" in
  let p =
    Experiment.run_scale_point ?config ~servers:8 ~txns:2000 ~seed:1
      Acp.Protocol.Opc
  in
  Alcotest.(check int) (name "submitted") 1896 p.Experiment.submitted;
  Alcotest.(check int) (name "committed") 1896 p.committed;
  Alcotest.(check int) (name "aborted") 0 p.aborted;
  Alcotest.(check int) (name "events") 37944 p.events;
  Alcotest.(check int) (name "sim elapsed ns") 11_937_751_000
    (Simkit.Time.span_to_ns p.sim_elapsed);
  Alcotest.(check int) (name "p50 ns") 82_220_000
    (Simkit.Time.span_to_ns p.latency_p50);
  Alcotest.(check int) (name "p95 ns") 185_228_000
    (Simkit.Time.span_to_ns p.latency_p95);
  Alcotest.(check int) (name "p99 ns") 276_176_000
    (Simkit.Time.span_to_ns p.latency_p99);
  p

let test_scale_point () = ignore (check_scale_point ())

(* The same point for the logless protocol: with no log device the
   sharded-store regime collapses to pure message latency. *)
let test_scale_point_l1pc () =
  let p =
    Experiment.run_scale_point ~servers:8 ~txns:2000 ~seed:1
      Acp.Protocol.Lp1
  in
  Alcotest.(check int) "submitted" 1898 p.Experiment.submitted;
  Alcotest.(check int) "committed" 1898 p.committed;
  Alcotest.(check int) "aborted" 0 p.aborted;
  Alcotest.(check int) "events" 26976 p.events;
  Alcotest.(check int) "sim elapsed ns" 125_436_000
    (Simkit.Time.span_to_ns p.sim_elapsed);
  Alcotest.(check int) "p50 ns" 804_000 (Simkit.Time.span_to_ns p.latency_p50);
  Alcotest.(check int) "p95 ns" 2_012_000
    (Simkit.Time.span_to_ns p.latency_p95);
  Alcotest.(check int) "p99 ns" 2_814_000
    (Simkit.Time.span_to_ns p.latency_p99)

(* A 64-server point: every heartbeat fans out to 63 peers, so the
   pins above, whose beats reach 7, leave the wide fan-out unpinned. *)
let test_scale_point_64 () =
  let p =
    Experiment.run_scale_point ~servers:64 ~txns:2000 ~seed:1
      Acp.Protocol.Opc
  in
  Alcotest.(check int) "submitted" 1817 p.Experiment.submitted;
  Alcotest.(check int) "committed" 1817 p.committed;
  Alcotest.(check int) "aborted" 0 p.aborted;
  Alcotest.(check int) "events" 148_641 p.events;
  Alcotest.(check int) "sim elapsed ns" 1_526_264_000
    (Simkit.Time.span_to_ns p.sim_elapsed);
  Alcotest.(check int) "p50 ns" 72_588_000
    (Simkit.Time.span_to_ns p.latency_p50);
  Alcotest.(check int) "p95 ns" 194_762_000
    (Simkit.Time.span_to_ns p.latency_p95);
  Alcotest.(check int) "p99 ns" 235_316_000
    (Simkit.Time.span_to_ns p.latency_p99)

(* The scale-point pins under a live flight recorder: every digit
   bit-identical. *)
let test_scale_point_recorder_enabled () =
  ignore
    (check_scale_point ~tag:"recorder on"
       ~config:
         {
           (Experiment.scale_config ~servers:8 ~seed:1) with
           Opc_cluster.Config.recorder_size = Some 512;
         }
       ())

(* The scale-point pins with the coverage tap and message meter live:
   every digit bit-identical. *)
let test_scale_point_coverage_enabled () =
  ignore
    (check_scale_point ~tag:"coverage on"
       ~config:
         {
           (Experiment.scale_config ~servers:8 ~seed:1) with
           Opc_cluster.Config.record_coverage = true;
         }
       ())

(* The scale-point pins with every collector on, and the profiler,
   through the engine observer they share, saw every dispatch. *)
let test_scale_point_all_enabled () =
  let p =
    check_scale_point ~tag:"all on"
      ~config:(all_on (Experiment.scale_config ~servers:8 ~seed:1))
      ()
  in
  match p.Experiment.profile with
  | None -> Alcotest.fail "the all-on run kept no profile"
  | Some r ->
      Alcotest.(check int) "profiled dispatches (all on)" p.events
        r.Obs.Prof.total_dispatches

let () =
  Alcotest.run "golden"
    [
      ( "experiments",
        [
          Alcotest.test_case "figure 6 digits" `Quick test_fig6;
          Alcotest.test_case "figure 6 digits, spans enabled" `Quick
            test_fig6_spans_enabled;
          Alcotest.test_case "figure 6 digits, recorder enabled" `Quick
            test_fig6_recorder_enabled;
          Alcotest.test_case "figure 6 digits, coverage enabled" `Quick
            test_fig6_coverage_enabled;
          Alcotest.test_case "figure 6 digits, all collectors enabled"
            `Quick test_fig6_all_enabled;
          Alcotest.test_case "table I measured columns" `Quick test_table1;
          Alcotest.test_case "scale point (8 servers)" `Quick
            test_scale_point;
          Alcotest.test_case "scale point (8 servers, L1PC)" `Quick
            test_scale_point_l1pc;
          Alcotest.test_case "scale point (64 servers)" `Quick
            test_scale_point_64;
          Alcotest.test_case "scale point (8 servers, recorder enabled)"
            `Quick test_scale_point_recorder_enabled;
          Alcotest.test_case "scale point (8 servers, coverage enabled)"
            `Quick test_scale_point_coverage_enabled;
          Alcotest.test_case "scale point (8 servers, all collectors enabled)"
            `Quick test_scale_point_all_enabled;
        ] );
      ( "chaos",
        [ Alcotest.test_case "seeds 1-5 verdicts" `Slow test_chaos ] );
    ]
