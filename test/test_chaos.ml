(* Chaos harness tests: the schedule generator and validator, the
   replay determinism the shrinker depends on, the shrinker itself, and
   a bounded smoke campaign through the full runner + oracles. The big
   multi-protocol campaigns live in bin/chaos; here every piece is
   exercised at a size that keeps the suite fast. *)

open Opc

let small_spec =
  {
    Chaos.Runner.default_spec with
    clients = 4;
    ops_per_client = 8;
    settle_deadline_ms = 60_000;
  }

(* ------------------------------------------------------------------ *)
(* Schedule generation and validation                                  *)
(* ------------------------------------------------------------------ *)

let test_generate_validates () =
  for seed = 1 to 200 do
    let s =
      Chaos.Schedule.generate
        ~rng:(Simkit.Rng.create ~seed)
        ~servers:4 ~window_ms:600
    in
    (match Chaos.Schedule.validate ~servers:4 s with
    | Ok () -> ()
    | Error e -> Alcotest.failf "seed %d: generated schedule invalid: %s" seed e);
    if Chaos.Schedule.length s < 2 || Chaos.Schedule.length s > 8 then
      Alcotest.failf "seed %d: %d events" seed (Chaos.Schedule.length s)
  done

let test_generate_deterministic () =
  let gen seed =
    Chaos.Schedule.generate
      ~rng:(Simkit.Rng.create ~seed)
      ~servers:4 ~window_ms:600
  in
  for seed = 1 to 50 do
    if gen seed <> gen seed then
      Alcotest.failf "seed %d: two generations differ" seed
  done

let test_validate_rejects () =
  let reject name s =
    match Chaos.Schedule.validate ~servers:4 s with
    | Ok () -> Alcotest.failf "%s: accepted" name
    | Error _ -> ()
  in
  let sched events = { Chaos.Schedule.window_ms = 600; events } in
  reject "server out of range"
    (sched [ Chaos.Schedule.Crash { server = 4; at_ms = 10 } ]);
  reject "time outside window"
    (sched [ Chaos.Schedule.Crash { server = 0; at_ms = 700 } ]);
  reject "burst ends before it starts"
    (sched
       [ Chaos.Schedule.Loss_burst { pct = 10; at_ms = 100; until_ms = 50 } ]);
  reject "partition group not a proper subset"
    (sched
       [ Chaos.Schedule.Partition_group { left = [ 0; 1; 2; 3 ]; at_ms = 10 } ])

(* ------------------------------------------------------------------ *)
(* Replay determinism                                                  *)
(* ------------------------------------------------------------------ *)

(* The shrinker's soundness rests on this: identical (spec, protocol,
   seed, schedule) runs must be indistinguishable — same verdict, same
   counts and the same event trace, entry for entry. *)
let test_replay_bit_identical () =
  List.iter
    (fun protocol ->
      List.iter
        (fun seed ->
          let config =
            {
              (Chaos.Runner.config_of small_spec ~protocol ~seed) with
              record_trace = true;
            }
          in
          let a = Chaos.Runner.execute_config small_spec ~config ~seed in
          let b = Chaos.Runner.execute_config small_spec ~config ~seed in
          Alcotest.(check int)
            "same commit count" a.Chaos.Runner.committed
            b.Chaos.Runner.committed;
          Alcotest.(check int)
            "same abort count" a.Chaos.Runner.aborted b.Chaos.Runner.aborted;
          Alcotest.(check bool)
            "same verdict" (Chaos.Runner.passed a) (Chaos.Runner.passed b);
          if a.Chaos.Runner.trace = [] then
            Alcotest.fail "trace was not recorded";
          if a.Chaos.Runner.trace <> b.Chaos.Runner.trace then
            Alcotest.failf "%a seed %d: traces diverge" Acp.Protocol.pp
              protocol seed)
        [ 5; 17 ])
    [ Acp.Protocol.Prn; Acp.Protocol.Opc ]

(* An explicit schedule must override the seed-derived one without
   perturbing the workload stream: same seed + same schedule value =
   same outcome whether the schedule was generated or passed in. *)
let test_explicit_schedule_replays () =
  let seed = 9 in
  let schedule = Chaos.Runner.generate_schedule small_spec ~seed in
  let a = Chaos.Runner.execute small_spec ~protocol:Acp.Protocol.Opc ~seed in
  let b =
    Chaos.Runner.execute ~schedule small_spec ~protocol:Acp.Protocol.Opc ~seed
  in
  Alcotest.(check int) "same committed" a.Chaos.Runner.committed
    b.Chaos.Runner.committed;
  Alcotest.(check int) "same aborted" a.Chaos.Runner.aborted
    b.Chaos.Runner.aborted

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* Pure-predicate shrink: only the crash of server 1 matters; the
   shrinker must strip everything else and keep a failing schedule. *)
let test_shrink_to_core_event () =
  let open Chaos.Schedule in
  let original =
    {
      window_ms = 600;
      events =
        [
          Restart { server = 2; at_ms = 50 };
          Crash { server = 1; at_ms = 100 };
          Partition_pair { a = 0; b = 3; at_ms = 200 };
          Loss_burst { pct = 20; at_ms = 250; until_ms = 400 };
          Heal_all { at_ms = 450 };
        ];
    }
  in
  let still_fails s =
    List.exists
      (function Crash { server = 1; _ } -> true | _ -> false)
      s.events
  in
  let r = Chaos.Shrink.minimize ~still_fails original in
  let s = r.Chaos.Shrink.schedule in
  Alcotest.(check bool) "result still fails" true (still_fails s);
  Alcotest.(check int) "single event left" 1 (Chaos.Schedule.length s);
  Alcotest.(check int) "four events removed" 4 r.Chaos.Shrink.removed;
  if r.Chaos.Shrink.attempts <= 0 then Alcotest.fail "no replays counted"

(* End-to-end shrink through the runner: an impossible settle deadline
   makes every run fail the liveness oracle, so the shrinker must walk
   all the way down to the empty schedule — exercising validation and
   real cluster replays on every candidate. *)
let test_shrink_through_runner () =
  let spec =
    { small_spec with ops_per_client = 4; settle_deadline_ms = 0 }
  in
  let outcome = Chaos.Runner.execute spec ~protocol:Acp.Protocol.Opc ~seed:3 in
  if Chaos.Runner.passed outcome then
    Alcotest.fail "zero settle deadline should fail the liveness oracle";
  let before = Chaos.Schedule.length outcome.Chaos.Runner.schedule in
  let r = Chaos.Runner.shrink spec outcome in
  Alcotest.(check int) "shrinks to the empty schedule" 0
    (Chaos.Schedule.length r.Chaos.Shrink.schedule);
  Alcotest.(check int) "every event removed" before r.Chaos.Shrink.removed

(* ------------------------------------------------------------------ *)
(* SAN-outage differential: 1PC needs the SAN, L1PC does not           *)
(* ------------------------------------------------------------------ *)

(* A partition long enough for the failure detector drives a 1PC
   coordinator into fence-and-read; with the SAN's fencing service down
   the request is silently dropped and the coordinator wedges in its
   recovery phase — the liveness oracle trips. L1PC on the *same* seed
   and schedule recovers by asking the replica group, touching neither
   the log nor the SAN, and sails through. The no-outage control proves
   it is the SAN's loss, not the partition, that kills 1PC. *)
let test_san_outage_differential () =
  let schedule ~outage =
    {
      Chaos.Schedule.window_ms = 600;
      events =
        ((if outage then
            [ Chaos.Schedule.San_outage { at_ms = 0; until_ms = 600 } ]
          else [])
        @ [
            Chaos.Schedule.Partition_pair { a = 0; b = 1; at_ms = 50 };
            Chaos.Schedule.Heal_all { at_ms = 450 };
          ]);
    }
  in
  let run ~outage k =
    Chaos.Runner.execute ~schedule:(schedule ~outage)
      Chaos.Runner.default_spec ~protocol:k ~seed:8
  in
  (* Control: both protocols survive the partition when the SAN is up. *)
  Alcotest.(check bool) "1PC passes without outage" true
    (Chaos.Runner.passed (run ~outage:false Acp.Protocol.Opc));
  Alcotest.(check bool) "L1PC passes without outage" true
    (Chaos.Runner.passed (run ~outage:false Acp.Protocol.Lp1));
  (* Differential: the outage wedges 1PC's fence-based recovery... *)
  let opc = run ~outage:true Acp.Protocol.Opc in
  Alcotest.(check bool) "1PC fails under SAN outage" false
    (Chaos.Runner.passed opc);
  Alcotest.(check bool) "1PC failure is a liveness violation" true
    (List.exists Chaos.Oracle.is_liveness opc.Chaos.Runner.violations);
  (* ...while L1PC's quorum read never needs the SAN at all. *)
  Alcotest.(check bool) "L1PC passes under SAN outage" true
    (Chaos.Runner.passed (run ~outage:true Acp.Protocol.Lp1))

(* ------------------------------------------------------------------ *)
(* Mutual fence race (1PC seed 802)                                    *)
(* ------------------------------------------------------------------ *)

(* Crash mds3, then partition mds2|mds0: both sides of the partition
   suspect each other and fence concurrently. mds0's STONITH of mds2
   lands first, so mds2 — mds0's fencer — is already dead when its own
   fence of mds0 completes, and the power-cycle that fencing assumes
   never happens. mds0 was left a zombie: expelled from the SAN (every
   log write silently rejected) yet still heartbeating, so no peer ever
   suspected or recovered it and every transaction it touched hung to
   the settle deadline. Diagnosed from the incident bundle's journal
   (fence.end victim=0 with no crash/reboot for node 0 — see
   EXPERIMENTS.md, "Recovery drills & incident autopsy"); fixed by the
   disk-lease check in the heartbeat loop, which makes a live fenced
   node panic and rejoin through normal recovery. Frozen here. *)
let test_mutual_fence_race () =
  let schedule =
    Chaos.Schedule.
      {
        window_ms = 600;
        events =
          [
            Crash { server = 3; at_ms = 214 };
            Partition_pair { a = 2; b = 0; at_ms = 388 };
          ];
      }
  in
  let spec = Chaos.Runner.default_spec in
  let config =
    {
      (Chaos.Runner.config_of spec ~protocol:Acp.Protocol.Opc ~seed:802) with
      record_journal = true;
    }
  in
  let o = Chaos.Runner.execute_config ~schedule spec ~config ~seed:802 in
  Alcotest.(check bool) "1PC seed 802 passes" true (Chaos.Runner.passed o);
  (* The fix's signature: the fenced-but-live mds0 power-cycles itself
     (a crash entry after the 388 ms partition) instead of serving
     without a log until the liveness oracle trips. *)
  Alcotest.(check bool) "zombie mds0 power-cycled itself" true
    (List.exists
       (fun (e : Obs.Journal.entry) ->
         e.node = 0
         && e.kind = Obs.Journal.Crash
         && Simkit.Time.to_ns e.time > 388_000_000)
       o.Chaos.Runner.journal);
  Alcotest.(check bool) "mds0 served again" true
    (List.exists
       (fun (e : Obs.Journal.entry) ->
         e.node = 0
         && e.kind = Obs.Journal.Serving
         && Simkit.Time.to_ns e.time > 388_000_000)
       o.Chaos.Runner.journal)

(* ------------------------------------------------------------------ *)
(* Smoke campaign                                                      *)
(* ------------------------------------------------------------------ *)

(* A bounded slice of what bin/chaos runs at scale: 50 seeds against
   the extremes of the protocol space (PrN pays the most writes, 1PC
   commits unilaterally and leans on fencing, L1PC never logs at all).
   Any oracle violation is a real protocol or harness bug — print it
   with its schedule. *)
let test_smoke_campaign () =
  let campaign =
    Chaos.Runner.campaign
      ~protocols:[ Acp.Protocol.Prn; Acp.Protocol.Opc; Acp.Protocol.Lp1 ]
      ~seeds:50 small_spec
  in
  match Chaos.Runner.failures campaign with
  | [] -> ()
  | fails ->
      Alcotest.failf "%d failing run(s):@.%a" (List.length fails)
        Fmt.(list ~sep:cut Chaos.Runner.pp_outcome)
        fails

(* ------------------------------------------------------------------ *)
(* Directed coverage probes                                            *)
(* ------------------------------------------------------------------ *)

(* Each probe exists to reach one specific never-hit edge of the
   declared transition maps — edges the randomized campaigns cannot
   produce because they need a semantic dentry conflict or an
   exactly-placed cut. Pinning the probe to its target edge (and to a
   quiescent, message-conserving finish) keeps the edge reachable: a
   protocol or planner change that silently breaks the scenario trips
   here, not as a slow drift in bench coverage. *)

let edge kind event =
  try
    (List.find
       (fun (e : Acp.Edges.edge) -> e.event = event)
       (Acp.Edges.of_protocol kind))
      .id
  with Not_found ->
    Alcotest.failf "no %s edge declares event %s" (Acp.Protocol.name kind)
      event

let check_probe name (o : Chaos.Probes.outcome) kind events =
  Alcotest.(check bool) (name ^ " settles") true o.settled;
  Alcotest.(check bool) (name ^ " conserves messages") true o.conserved;
  List.iter
    (fun event ->
      Alcotest.(check bool)
        (Printf.sprintf "%s reaches %s.%s" name (Acp.Protocol.name kind)
           event)
        true
        (o.edge_hits.(edge kind event) > 0))
    events

(* A committed CREATE beats a racing RENAME to the same dentry: the
   rename's remote worker fails the apply and votes NO — the NACKed
   abort path on every coordinator flavor. *)
let test_probe_conflict_nack () =
  List.iter
    (fun kind ->
      check_probe
        ("conflict-" ^ Acp.Protocol.name kind)
        (Chaos.Probes.conflict kind)
        kind [ "updated_nack" ])
    [ Acp.Protocol.Prn; Acp.Protocol.Prc; Acp.Protocol.Ep ];
  (* The same race through a 1PC worker leaves a NO-vote tombstone. *)
  check_probe "conflict-1PC"
    (Chaos.Probes.conflict Acp.Protocol.Opc)
    Acp.Protocol.Opc
    [ "updated_nack"; "reject" ];
  (* And through L1PC, a replicated NO vote. *)
  check_probe "conflict-L1PC"
    (Chaos.Probes.conflict Acp.Protocol.Lp1)
    Acp.Protocol.Lp1 [ "vote_no" ]

(* A second conflict wave runs the lazy GC over the first wave's
   long-expired 100us tombstones. *)
let test_probe_tombstone_ttl () =
  check_probe "tombstone-ttl"
    (Chaos.Probes.tombstone_ttl ())
    Acp.Protocol.Opc
    [ "reject"; "ttl_expired" ]

(* With [tombstone_cap = 1], the second NO vote force-expires the
   first tombstone before its 10s TTL. *)
let test_probe_tombstone_cap () =
  check_probe "tombstone-cap"
    (Chaos.Probes.tombstone_cap ())
    Acp.Protocol.Opc
    [ "reject"; "cap_evicted" ]

(* The calibrated partition drops the NO vote; the first resend
   through the healed link finds the tombstone expired and the
   sequence number below the stale horizon. *)
let test_probe_stale_replay () =
  check_probe "stale-replay"
    (Chaos.Probes.stale_replay ())
    Acp.Protocol.Opc
    [ "reject"; "ttl_expired"; "update_req_stale" ]

(* ------------------------------------------------------------------ *)
(* Conservation and coverage on chaos runs                             *)
(* ------------------------------------------------------------------ *)

(* Every chaos run must balance the message ledger exactly (the runner
   oracle enforces it; this pins the outcome surface) and must record
   a non-trivial slice of its protocol's transition map. *)
let test_chaos_outcome_coverage () =
  List.iter
    (fun protocol ->
      let o = Chaos.Runner.execute small_spec ~protocol ~seed:11 in
      Alcotest.(check bool)
        (Acp.Protocol.name protocol ^ " passes")
        true (Chaos.Runner.passed o);
      let hit =
        List.length
          (List.filter
             (fun (e : Acp.Edges.edge) -> o.edge_hits.(e.id) > 0)
             (Acp.Edges.of_protocol protocol))
      in
      Alcotest.(check bool)
        (Acp.Protocol.name protocol ^ " records transitions")
        true (hit > 5);
      List.iter
        (fun (s : Chaos.Runner.tag_stats) ->
          Alcotest.(check int)
            (Printf.sprintf "%s tag %s balances" (Acp.Protocol.name protocol)
               s.tag)
            0
            (s.sent
            - (s.delivered + s.dup_delivered + s.dropped + s.in_flight)))
        o.meter)
    Acp.Protocol.all

let () =
  Alcotest.run "chaos"
    [
      ( "schedule",
        [
          Alcotest.test_case "generated schedules validate" `Quick
            test_generate_validates;
          Alcotest.test_case "generation is deterministic" `Quick
            test_generate_deterministic;
          Alcotest.test_case "validator rejects malformed" `Quick
            test_validate_rejects;
        ] );
      ( "replay",
        [
          Alcotest.test_case "bit-identical replay" `Slow
            test_replay_bit_identical;
          Alcotest.test_case "explicit schedule replays" `Quick
            test_explicit_schedule_replays;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "shrinks to the core event" `Quick
            test_shrink_to_core_event;
          Alcotest.test_case "shrinks through the runner" `Quick
            test_shrink_through_runner;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "chaos smoke" `Slow test_smoke_campaign;
          Alcotest.test_case "SAN outage: 1PC wedges, L1PC survives" `Quick
            test_san_outage_differential;
          Alcotest.test_case "mutual fence race leaves no zombie (seed 802)"
            `Quick test_mutual_fence_race;
        ] );
      ( "coverage probes",
        [
          Alcotest.test_case "conflict NACK paths" `Slow
            test_probe_conflict_nack;
          Alcotest.test_case "tombstone ttl expiry" `Slow
            test_probe_tombstone_ttl;
          Alcotest.test_case "tombstone cap eviction" `Slow
            test_probe_tombstone_cap;
          Alcotest.test_case "stale update_req replay" `Slow
            test_probe_stale_replay;
          Alcotest.test_case "outcome coverage + conservation" `Slow
            test_chaos_outcome_coverage;
        ] );
    ]
