(* Flight recorder + incident autopsy + recovery drills.

   The recorder's ring mechanics (wrap, tail order, disabled no-ops),
   the autopsy bundle written by an observed chaos replay (every file
   re-parsed through the strict Obs.Json reader, plus the validator
   rejecting a corrupted bundle), and the drill runner whose MTTR SLO
   gate `bench drill` enforces in CI — including the negative control
   proving the gate trips. *)

open Opc

let time ns = Simkit.Time.of_ns ns

(* ------------------------------------------------------------------ *)
(* Recorder ring                                                       *)
(* ------------------------------------------------------------------ *)

let test_recorder_ring_wraps () =
  let r = Obs.Recorder.create ~capacity:4 () in
  for i = 1 to 6 do
    Obs.Recorder.record_delivery r ~time:(time i) ~src:i ~dst:(i + 10)
  done;
  Alcotest.(check int) "recorded counts everything" 6 (Obs.Recorder.recorded r);
  Alcotest.(check int) "retains capacity" 4 (Obs.Recorder.length r);
  let seen = ref [] in
  Obs.Recorder.iter_tail
    (fun rec_ -> seen := rec_.Obs.Recorder.a :: !seen)
    r;
  (* Oldest first: pushes 3..6 survive the wrap. *)
  Alcotest.(check (list int)) "tail is oldest-first" [ 3; 4; 5; 6 ]
    (List.rev !seen)

let test_recorder_under_capacity () =
  let r = Obs.Recorder.create ~capacity:8 () in
  Obs.Recorder.record_delivery r ~time:(time 1) ~src:1 ~dst:2;
  Obs.Recorder.record_delivery r ~time:(time 2) ~src:2 ~dst:3;
  Alcotest.(check int) "length" 2 (Obs.Recorder.length r);
  let seen = ref [] in
  Obs.Recorder.iter_tail
    (fun rec_ -> seen := rec_.Obs.Recorder.a :: !seen)
    r;
  Alcotest.(check (list int)) "insertion order" [ 1; 2 ] (List.rev !seen)

let test_recorder_disabled_is_inert () =
  let r = Obs.Recorder.disabled () in
  Alcotest.(check bool) "not recording" false (Obs.Recorder.is_recording r);
  Obs.Recorder.record_delivery r ~time:(time 1) ~src:1 ~dst:2;
  Alcotest.(check int) "drops everything" 0 (Obs.Recorder.recorded r);
  Alcotest.(check int) "retains nothing" 0 (Obs.Recorder.length r)

let test_recorder_rejects_bad_capacity () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Obs.Recorder.create: capacity must be positive")
    (fun () -> ignore (Obs.Recorder.create ~capacity:0 ()))

let test_journal_tags_roundtrip () =
  List.iter
    (fun kind ->
      let tag = Obs.Recorder.journal_tag kind in
      Alcotest.(check string)
        (Printf.sprintf "tag %d names its kind" tag)
        (Obs.Journal.event_name kind)
        (Obs.Recorder.journal_tag_name tag))
    [
      Obs.Journal.Crash;
      Obs.Journal.Reboot;
      Obs.Journal.Serving;
      Obs.Journal.Suspect { peer = 1 };
      Obs.Journal.Fence_begin { victim = 1 };
      Obs.Journal.Fence_end { victim = 1 };
      Obs.Journal.Mount { target = 1 };
      Obs.Journal.Scan_begin { target = 1 };
      Obs.Journal.Scan_end { target = 1; records = 2 };
      Obs.Journal.Orphan_resolved { origin = 1; seq = 2 };
      Obs.Journal.Heal;
      Obs.Journal.Fault_injected { index = 1; desc = "x" };
    ]

(* ------------------------------------------------------------------ *)
(* Autopsy bundle                                                      *)
(* ------------------------------------------------------------------ *)

let rmdir_rf dir =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let tmpdir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      ("opc_autopsy_test_" ^ tag)
  in
  rmdir_rf dir;
  dir

(* A forced failure: an unmeetable settle deadline fails the liveness
   oracle on an otherwise healthy run, which is exactly how ci.sh
   smokes the autopsy path. *)
let failing_spec =
  { Chaos.Runner.default_spec with settle_deadline_ms = 1 }

let test_autopsy_bundle_roundtrip () =
  let dir = tmpdir "bundle" in
  Fun.protect
    ~finally:(fun () -> rmdir_rf dir)
    (fun () ->
      let o =
        Chaos.Runner.execute failing_spec ~protocol:Acp.Protocol.Opc ~seed:1
      in
      Alcotest.(check bool) "forced failure fails" false
        (Chaos.Runner.passed o);
      (* autopsy shrinks, replays observed, writes and self-validates —
         it raises if the bundle does not re-parse. *)
      let bundle = Chaos.Runner.autopsy ~dir failing_spec o in
      Alcotest.(check bool) "bundle under dir" true
        (String.length bundle > String.length dir);
      List.iter
        (fun f ->
          Alcotest.(check bool) (f ^ " exists") true
            (Sys.file_exists (Filename.concat bundle f)))
        [ "incident.json"; "ring.jsonl"; "journal.jsonl"; "trace.json";
          "mttr.json" ];
      (* incident.json carries the coverage summary: the replayed
         protocol's declared edge count and what the failing run hit. *)
      let incident = Obs.Json.of_file (Filename.concat bundle "incident.json") in
      (match Obs.Json.member "coverage" incident with
      | Some (Obs.Json.List (first :: _)) ->
          Alcotest.(check (option string)) "incident has coverage summary"
            (Some "1PC") Obs.Json.(to_str (member "protocol" first));
          Alcotest.(check bool) "coverage summary declares edges" true
            (Obs.Json.(to_int (member "declared" first)) <> None
            && Obs.Json.member "never_hit" first <> None)
      | _ -> Alcotest.fail "incident has no coverage summary");
      match Obs.Autopsy.validate bundle with
      | Ok () -> ()
      | Error e -> Alcotest.failf "bundle failed validation: %s" e)

let test_autopsy_validate_rejects_corruption () =
  let dir = tmpdir "corrupt" in
  Fun.protect
    ~finally:(fun () -> rmdir_rf dir)
    (fun () ->
      let o =
        Chaos.Runner.execute failing_spec ~protocol:Acp.Protocol.Opc ~seed:1
      in
      let bundle = Chaos.Runner.autopsy ~dir failing_spec o in
      (* Truncate a listed file mid-token: the re-parse must fail. *)
      let victim = Filename.concat bundle "mttr.json" in
      let oc = open_out victim in
      output_string oc "{\"windows\": [tru";
      close_out oc;
      match Obs.Autopsy.validate bundle with
      | Ok () -> Alcotest.fail "validator accepted a corrupted bundle"
      | Error _ -> ())

let test_autopsy_validate_rejects_missing_manifest () =
  let dir = tmpdir "nomanifest" in
  Fun.protect
    ~finally:(fun () -> rmdir_rf dir)
    (fun () ->
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      match Obs.Autopsy.validate dir with
      | Ok () -> Alcotest.fail "validator accepted an empty directory"
      | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Recovery drills                                                     *)
(* ------------------------------------------------------------------ *)

let test_drill_l1pc_never_fences () =
  let r = Drill.run_one ~seed:1 Acp.Protocol.Lp1 in
  Alcotest.(check bool) "window measured" true (r.Drill.windows <> []);
  Alcotest.(check int) "full service before the crash"
    r.Drill.servers r.Drill.before.Drill.serving;
  Alcotest.(check int) "full service after recovery"
    r.Drill.servers r.Drill.after.Drill.serving;
  List.iter
    (fun (w : Obs.Mttr.window) ->
      Alcotest.(check int) "logless recovery never fences" 0
        (Simkit.Time.span_to_ns w.fence))
    r.Drill.windows

let test_drill_campaign_meets_slos () =
  List.iter
    (fun kind ->
      let stats = Drill.campaign ~seeds:2 kind in
      match Drill.check stats with
      | [] -> ()
      | msgs ->
          Alcotest.failf "%s: %s" (Acp.Protocol.name kind)
            (String.concat "; " msgs))
    [ Acp.Protocol.Opc; Acp.Protocol.Lp1 ]

let test_drill_impossible_slo_trips () =
  let stats = Drill.campaign ~seeds:2 Acp.Protocol.Opc in
  match Drill.check ~slo:Drill.impossible_slo stats with
  | [] -> Alcotest.fail "impossible SLO did not trip the gate"
  | msgs ->
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names the gate" m)
            true
            (let needle = "FAILS recovery SLO" in
             let rec find i =
               i + String.length needle <= String.length m
               && (String.sub m i (String.length needle) = needle
                  || find (i + 1))
             in
             find 0))
        msgs

let () =
  Alcotest.run "autopsy"
    [
      ( "recorder",
        [
          Alcotest.test_case "ring wraps, tail oldest-first" `Quick
            test_recorder_ring_wraps;
          Alcotest.test_case "under capacity keeps order" `Quick
            test_recorder_under_capacity;
          Alcotest.test_case "disabled is inert" `Quick
            test_recorder_disabled_is_inert;
          Alcotest.test_case "rejects non-positive capacity" `Quick
            test_recorder_rejects_bad_capacity;
          Alcotest.test_case "journal tags round-trip" `Quick
            test_journal_tags_roundtrip;
        ] );
      ( "bundle",
        [
          Alcotest.test_case "observed failure round-trips" `Slow
            test_autopsy_bundle_roundtrip;
          Alcotest.test_case "validator rejects corruption" `Slow
            test_autopsy_validate_rejects_corruption;
          Alcotest.test_case "validator rejects missing manifest" `Quick
            test_autopsy_validate_rejects_missing_manifest;
        ] );
      ( "drill",
        [
          Alcotest.test_case "L1PC never fences" `Quick
            test_drill_l1pc_never_fences;
          Alcotest.test_case "campaign meets committed SLOs" `Quick
            test_drill_campaign_meets_slos;
          Alcotest.test_case "impossible SLO trips" `Quick
            test_drill_impossible_slo_trips;
        ] );
    ]
