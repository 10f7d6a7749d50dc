(* Failure and recovery tests: the heart of an atomic commitment
   protocol. For every protocol, a crash is injected at every point of a
   fine time grid spanning the whole transaction — coordinator crashes,
   worker crashes, double crashes, network partitions (the 1PC
   split-brain case) and message loss — and after recovery the system
   must always reach a state where:

   - every client got exactly one reply;
   - if the reply was Committed, the dentry and the inode are durable on
     their respective servers; if Aborted, neither exists (atomicity);
   - the global namespace invariants hold on the durable images. *)

open Opc

let pname = Acp.Protocol.name

let failure_config protocol =
  { Chaos.Runner.regime with servers = 2; protocol; seed = 3 }

type run_result = {
  outcome : Acp.Txn.outcome;
  dentry : bool;  (** durable on the directory's server *)
  inode : bool;  (** durable on the inode's server, if allocated *)
  violations : Mds.Invariant.violation list;
}

(* One CREATE with an arbitrary fault schedule; returns the consistency
   picture after everything settles. *)
let run_one ?(count = 1) ~protocol ~faults () =
  let cluster = Cluster.create (failure_config protocol) in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  let outcomes = ref [] in
  for i = 0 to count - 1 do
    Cluster.submit cluster
      (Mds.Op.create_file ~parent:dir ~name:(Printf.sprintf "f%d" i))
      ~on_done:(fun o -> outcomes := (i, o) :: !outcomes)
  done;
  faults cluster;
  (match Cluster.settle ~deadline:(Simkit.Time.span_s 300) cluster with
  | Cluster.Quiescent -> ()
  | Cluster.Deadline_exceeded -> Alcotest.fail "did not settle (deadline)"
  | Cluster.Stuck -> Alcotest.fail "stuck (event queue drained)");
  if List.length !outcomes <> count then
    Alcotest.failf "%d of %d replies arrived" (List.length !outcomes) count;
  let placement = Cluster.placement cluster in
  let durable server = Mds.Store.durable (Node.store (Cluster.node cluster server)) in
  (* At quiescence every live server's cache must equal its durable
     image — recovery replay and undo may not leave residue. *)
  Array.iter
    (fun n ->
      if Node.is_up n && not (Mds.Store.in_sync (Node.store n)) then
        Alcotest.failf "mds%d: volatile diverges from durable at quiescence"
          (Node.server n))
    (Cluster.nodes cluster);
  let results =
    List.map
      (fun (i, outcome) ->
        let name = Printf.sprintf "f%d" i in
        let dentry_target = Mds.State.lookup (durable 0) ~dir ~name in
        let dentry = dentry_target <> None in
        let inode =
          match dentry_target with
          | Some ino ->
              Mds.State.inode (durable (Mds.Placement.node_of placement ino)) ino
              <> None
          | None -> false
        in
        {
          outcome;
          dentry;
          inode;
          violations = Cluster.check_invariants cluster;
        })
      (List.rev !outcomes)
  in
  results

let assert_consistent ~label results =
  List.iteri
    (fun i r ->
      (match r.violations with
      | [] -> ()
      | vs ->
          Alcotest.failf "%s: invariants broken: %a" label
            Fmt.(list ~sep:semi Mds.Invariant.pp_violation)
            vs);
      match r.outcome with
      | Acp.Txn.Committed ->
          if not (r.dentry && r.inode) then
            Alcotest.failf
              "%s txn %d: told committed but dentry=%b inode=%b" label i
              r.dentry r.inode
      | Acp.Txn.Aborted _ ->
          if r.dentry || r.inode then
            Alcotest.failf "%s txn %d: told aborted but dentry=%b inode=%b"
              label i r.dentry r.inode)
    results

(* Sweep a crash of [server] across a fine grid covering the whole
   transaction (a failure-free CREATE finishes well inside 60 ms with
   these parameters). *)
let crash_sweep ~protocol ~server () =
  for ms = 0 to 60 do
    let label =
      Printf.sprintf "%s crash mds%d at %dms" (pname protocol) server ms
    in
    let results =
      run_one ~protocol
        ~faults:(fun cluster ->
          Fault.crash_at cluster ~server
            ~at:(Simkit.Time.of_ns (ms * 1_000_000)))
        ()
    in
    assert_consistent ~label results
  done

let test_coordinator_crash_sweep protocol () =
  crash_sweep ~protocol ~server:0 ()

let test_worker_crash_sweep protocol () = crash_sweep ~protocol ~server:1 ()

(* RENAME spans three servers here (source directory, destination
   directory, moved inode), so crashes exercise the multi-worker 2PC
   recovery paths — and, under 1PC, the PrN fallback engine. The
   all-or-nothing check: committed means the entry moved, aborted means
   it did not; never half. *)
let test_rename_crash_sweep protocol ~server () =
  List.iter
    (fun ms ->
      let label =
        Printf.sprintf "%s rename crash mds%d at %dms" (pname protocol)
          server ms
      in
      let config =
        {
          (failure_config protocol) with
          servers = 3;
          placement = Mds.Placement.Round_robin;
        }
      in
      let cluster = Cluster.create config in
      let root = Cluster.root cluster in
      let d0 =
        Cluster.add_directory cluster ~parent:root ~name:"d0" ~server:0 ()
      in
      let d1 =
        Cluster.add_directory cluster ~parent:root ~name:"d1" ~server:1 ()
      in
      (* Round-robin: pads push "f"'s inode onto server 2. *)
      let seed name =
        let r = ref None in
        Cluster.submit cluster
          (Mds.Op.create_file ~parent:d0 ~name)
          ~on_done:(fun o -> r := Some o);
        (match Cluster.settle cluster with
        | Cluster.Quiescent -> ()
        | _ -> Alcotest.failf "%s: seeding did not settle" label);
        match !r with
        | Some Acp.Txn.Committed -> ()
        | _ -> Alcotest.failf "%s: seeding failed" label
      in
      seed "pad0";
      seed "pad1";
      seed "f";
      let outcome = ref None in
      Cluster.submit cluster
        (Mds.Op.rename ~src_dir:d0 ~src_name:"f" ~dst_dir:d1 ~dst_name:"g")
        ~on_done:(fun o -> outcome := Some o);
      Fault.crash_at cluster ~server
        ~at:
          (Simkit.Time.add (Cluster.now cluster)
             (Simkit.Time.span_ms ms));
      (match Cluster.settle ~deadline:(Simkit.Time.span_s 300) cluster with
      | Cluster.Quiescent -> ()
      | _ -> Alcotest.failf "%s: did not settle" label);
      let placement = Cluster.placement cluster in
      let durable dir name =
        Mds.State.lookup
          (Mds.Store.durable
             (Node.store
                (Cluster.node cluster (Mds.Placement.node_of placement dir))))
          ~dir ~name
      in
      let src = durable d0 "f" <> None and dst = durable d1 "g" <> None in
      (match !outcome with
      | Some Acp.Txn.Committed ->
          if not ((not src) && dst) then
            Alcotest.failf "%s: committed but src=%b dst=%b" label src dst
      | Some (Acp.Txn.Aborted _) ->
          if not (src && not dst) then
            Alcotest.failf "%s: aborted but src=%b dst=%b" label src dst
      | None -> Alcotest.failf "%s: no reply" label);
      match Cluster.check_invariants cluster with
      | [] -> ()
      | vs ->
          Alcotest.failf "%s: %a" label
            Fmt.(list ~sep:semi Mds.Invariant.pp_violation)
            vs)
    [ 2; 8; 14; 20; 26; 32; 38; 44; 50; 56; 62; 70; 80 ]

(* Both servers die at (slightly staggered) times. *)
let test_double_crash protocol () =
  List.iter
    (fun (a, b) ->
      let label = Printf.sprintf "%s double crash %d/%dms" (pname protocol) a b in
      let results =
        run_one ~protocol
          ~faults:(fun cluster ->
            Fault.crash_at cluster ~server:0
              ~at:(Simkit.Time.of_ns (a * 1_000_000));
            Fault.crash_at cluster ~server:1
              ~at:(Simkit.Time.of_ns (b * 1_000_000)))
          ()
      in
      assert_consistent ~label results)
    [ (5, 5); (5, 15); (15, 5); (12, 40); (40, 12); (25, 25) ]

(* Crash again while recovery is in progress. *)
let test_crash_during_recovery protocol () =
  List.iter
    (fun (first, second) ->
      let label =
        Printf.sprintf "%s re-crash %d then %dms" (pname protocol) first second
      in
      let results =
        run_one ~protocol
          ~faults:(fun cluster ->
            Fault.crash_at cluster ~server:0
              ~at:(Simkit.Time.of_ns (first * 1_000_000));
            Fault.crash_at cluster ~server:0
              ~at:(Simkit.Time.of_ns (second * 1_000_000)))
          ()
      in
      assert_consistent ~label results)
    [ (5, 60); (15, 70); (25, 80) ]

(* A burst of transactions with a crash in the middle: recovery must
   resolve several in-doubt transactions at once, in order. *)
let test_burst_with_crash protocol ~server () =
  List.iter
    (fun ms ->
      let label =
        Printf.sprintf "%s burst crash mds%d at %dms" (pname protocol) server
          ms
      in
      let results =
        run_one ~count:8 ~protocol
          ~faults:(fun cluster ->
            Fault.crash_at cluster ~server
              ~at:(Simkit.Time.of_ns (ms * 1_000_000)))
          ()
      in
      assert_consistent ~label results)
    [ 5; 20; 35; 50; 80; 120 ]

(* Network partition: the coordinator cannot reach the worker although
   both are alive. For 1PC this is the split-brain scenario fencing must
   solve — the coordinator STONITHs the worker and reads its log. *)
let test_partition protocol () =
  List.iter
    (fun ms ->
      let label = Printf.sprintf "%s partition at %dms" (pname protocol) ms in
      let results =
        run_one ~protocol
          ~faults:(fun cluster ->
            Fault.partition_at cluster ~left:[ 0 ] ~right:[ 1 ]
              ~at:(Simkit.Time.of_ns (ms * 1_000_000));
            Fault.heal_at cluster ~at:(Simkit.Time.of_ns 2_000_000_000))
          ()
      in
      assert_consistent ~label results)
    [ 0; 5; 10; 15; 20; 25; 30; 40; 50 ]

(* Partition and crash combined: the link dies first, then one side
   powers off while the other is already suspecting/fencing. *)
let test_partition_then_crash protocol () =
  List.iter
    (fun (victim, p_ms, c_ms) ->
      let label =
        Printf.sprintf "%s partition@%dms then crash mds%d@%dms"
          (pname protocol) p_ms victim c_ms
      in
      let results =
        run_one ~protocol
          ~faults:(fun cluster ->
            Fault.partition_at cluster ~left:[ 0 ] ~right:[ 1 ]
              ~at:(Simkit.Time.of_ns (p_ms * 1_000_000));
            Fault.crash_at cluster ~server:victim
              ~at:(Simkit.Time.of_ns (c_ms * 1_000_000));
            Fault.heal_at cluster ~at:(Simkit.Time.of_ns 2_000_000_000))
          ()
      in
      assert_consistent ~label results)
    [
      (1, 5, 20);
      (1, 15, 40);
      (1, 25, 150);
      (0, 5, 20);
      (0, 15, 40);
      (0, 25, 150);
    ]

let test_1pc_fencing_fires () =
  (* Partition right before the worker's UPDATED can arrive: the 1PC
     coordinator must fence and decide from the worker's log partition. *)
  let fenced = ref 0 in
  let results =
    run_one ~protocol:Acp.Protocol.Opc
      ~faults:(fun cluster ->
        Fault.partition_at cluster ~left:[ 0 ] ~right:[ 1 ]
          ~at:(Simkit.Time.of_ns 11_000_000);
        Fault.heal_at cluster ~at:(Simkit.Time.of_ns 2_000_000_000);
        ignore
          (Simkit.Engine.schedule_at (Cluster.engine cluster)
             ~at:(Simkit.Time.of_ns 1_900_000_000)
             (fun () ->
               fenced :=
                 Metrics.Ledger.get (Cluster.ledger cluster) "acp.fence")))
      ()
  in
  assert_consistent ~label:"1PC fencing" results;
  Alcotest.(check bool) "fence executed" true (!fenced > 0)

let test_worker_crash_no_restart_1pc () =
  (* The worker dies and never returns by itself; the 1PC coordinator
     still terminates the transaction by fencing and reading the shared
     log (the STONITH power-cycle brings the worker back afterwards, as
     in a real cluster). *)
  List.iter
    (fun ms ->
      let results =
        run_one ~protocol:Acp.Protocol.Opc
          ~faults:(fun cluster ->
            Fault.crash_at cluster ~server:1
              ~at:(Simkit.Time.of_ns (ms * 1_000_000)))
          ()
      in
      assert_consistent
        ~label:(Printf.sprintf "1PC worker crash at %dms" ms)
        results)
    [ 8; 14; 22 ]

(* The paper's central liveness argument as a test. Under a
   never-healing partition, a prepared 2PC worker is {e blocked}: its
   transaction stays in doubt and it keeps holding the inode lock,
   because only the unreachable coordinator knows the outcome. The 1PC
   coordinator instead fences the worker through the storage control
   plane, decides from its log, answers the client — and the rebooted
   worker's log is already decided, its locks free. (Bookkeeping — the
   final ACK/ENDED exchange — still waits for the network, so neither
   run reaches full quiescence; that is cosmetic, not blocking.) *)
let test_partition_blocking_vs_fencing () =
  let run protocol =
    let cluster = Cluster.create (failure_config protocol) in
    let dir =
      Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
        ~server:0 ()
    in
    let outcome = ref None in
    Cluster.submit cluster
      (Mds.Op.create_file ~parent:dir ~name:"f")
      ~on_done:(fun o -> outcome := Some o);
    (* Cut the link after the worker got the request (and, for 2PC,
       after it prepared) but before any outcome can arrive; never
       heal. *)
    Fault.partition_at cluster ~left:[ 0 ] ~right:[ 1 ]
      ~at:(Simkit.Time.of_ns 31_000_000);
    ignore (Cluster.settle ~deadline:(Simkit.Time.span_s 30) cluster);
    let worker = Cluster.node cluster 1 in
    let in_doubt =
      List.exists Acp.Log_scan.in_doubt
        (Acp.Log_scan.scan (Storage.Wal.durable (Node.wal worker)))
    in
    let file_oid = 2 (* root = 0, dir = 1, first created inode = 2 *) in
    let lock_held =
      Locks.Lock_manager.holders (Node.locks worker) ~oid:file_oid <> []
    in
    (!outcome, in_doubt, lock_held)
  in
  (match run Acp.Protocol.Opc with
  | Some Acp.Txn.Committed, false, false -> ()
  | outcome, in_doubt, lock_held ->
      Alcotest.failf
        "1PC should be decided and lock-free (outcome=%a in_doubt=%b \
         lock=%b)"
        Fmt.(option Acp.Txn.pp_outcome)
        outcome in_doubt lock_held);
  match run Acp.Protocol.Prn with
  | Some (Acp.Txn.Aborted _), true, true ->
      (* Coordinator aborted on timeout; the prepared worker is blocked
         in doubt, lock held — exactly the 2PC blocking problem. *)
      ()
  | outcome, in_doubt, lock_held ->
      Alcotest.failf
        "PrN worker should be blocked in doubt (outcome=%a in_doubt=%b \
         lock=%b)"
        Fmt.(option Acp.Txn.pp_outcome)
        outcome in_doubt lock_held

(* §II-D: a recovering PrC worker whose coordinator has already
   finalized its log presumes commit. Partition the link right after the
   worker votes; the coordinator commits, replies and checkpoints; after
   healing, the worker's outcome query meets an empty log. *)
let test_prc_presumed_commit () =
  let cluster = Cluster.create (failure_config Acp.Protocol.Prc) in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  let outcome = ref None in
  Cluster.submit cluster
    (Mds.Op.create_file ~parent:dir ~name:"f")
    ~on_done:(fun o -> outcome := Some o);
  (* The worker's PREPARED is delivered at 31.02 ms; cut right after it
     lands and before the COMMIT (41.26 ms) can cross back. *)
  Fault.partition_at cluster ~left:[ 0 ] ~right:[ 1 ]
    ~at:(Simkit.Time.of_ns 31_050_000);
  Fault.heal_at cluster ~at:(Simkit.Time.of_ns 1_000_000_000);
  (match Cluster.settle ~deadline:(Simkit.Time.span_s 60) cluster with
  | Cluster.Quiescent -> ()
  | _ -> Alcotest.fail "did not settle");
  (match !outcome with
  | Some Acp.Txn.Committed -> ()
  | _ -> Alcotest.fail "coordinator side should have committed");
  (* The worker had to ask (DECISION_REQ) and got the presumption. *)
  let ledger = Cluster.ledger cluster in
  Alcotest.(check bool) "worker asked for the outcome" true
    (Metrics.Ledger.get ledger "msg.decision_req" > 0);
  Alcotest.(check bool) "and was answered" true
    (Metrics.Ledger.get ledger "msg.decision" > 0);
  match Cluster.check_invariants cluster with
  | [] -> ()
  | vs ->
      Alcotest.failf "invariants: %a"
        Fmt.(list ~sep:semi Mds.Invariant.pp_violation)
        vs

(* Duplicated deliveries (retransmission artifacts): every protocol
   must deduplicate — requests by transaction state/log, decisions and
   acknowledgements by idempotence. *)
let test_message_duplication protocol () =
  let config =
    {
      (failure_config protocol) with
      servers = 3;
      (* No crashes here: give the 25-deep lock queue room so every
         abort would be attributable to duplication handling. *)
      txn_timeout = Simkit.Time.span_s 60;
      network =
        {
          Netsim.Network.default_config with
          duplicate_probability = 0.10;
        };
      seed = 19;
    }
  in
  let cluster = Cluster.create config in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  let wl = Workload.storm cluster ~dir ~count:25 () in
  (match Cluster.settle ~deadline:(Simkit.Time.span_s 600) cluster with
  | Cluster.Quiescent -> ()
  | _ -> Alcotest.fail "did not settle under duplication");
  let stats = Workload.stats wl in
  Alcotest.(check int) "all committed exactly once" 25
    stats.Workload.committed;
  Alcotest.(check int) "no aborts" 0 stats.Workload.aborted;
  match Cluster.check_invariants cluster with
  | [] -> ()
  | vs ->
      Alcotest.failf "invariants: %a"
        Fmt.(list ~sep:semi Mds.Invariant.pp_violation)
        vs

(* Same adversary, but against the mixed multi-directory closed loop,
   judged per operation through the workload's reply records: exactly
   one reply each, never two (a duplicated decision or late retry
   surfacing as a second on_done would corrupt any real client). *)
let test_closed_loop_duplication protocol () =
  let config =
    {
      (failure_config protocol) with
      servers = 4;
      txn_timeout = Simkit.Time.span_s 60;
      network =
        {
          Netsim.Network.default_config with
          duplicate_probability = 0.15;
        };
      seed = 23;
    }
  in
  let cluster = Cluster.create config in
  let root = Cluster.root cluster in
  let dirs =
    Array.init 4 (fun i ->
        Cluster.add_directory cluster ~parent:root
          ~name:(Printf.sprintf "d%d" i) ~server:(i mod 4) ())
  in
  let wl =
    Workload.closed_loop cluster ~dirs ~clients:6 ~ops_per_client:15
      ~mix:Chaos.Runner.chaos_mix
      ~rng:(Simkit.Rng.create ~seed:7)
      ()
  in
  (match Cluster.settle ~deadline:(Simkit.Time.span_s 600) cluster with
  | Cluster.Quiescent -> ()
  | _ -> Alcotest.fail "did not settle under duplication");
  let records = Workload.records wl in
  let stats = Workload.stats wl in
  (* Lookups are shared-lock reads, not transactions — they complete
     without a submit record. Everything else must be recorded. *)
  Alcotest.(check int) "all operations recorded" (6 * 15)
    (List.length records + stats.Workload.reads);
  List.iter
    (fun (r : Workload.record) ->
      if r.Workload.replies <> 1 then
        Alcotest.failf "op %d (%a): %d replies" r.Workload.index Mds.Op.pp
          r.Workload.op r.Workload.replies)
    records;
  Alcotest.(check int) "committed + aborted = answered"
    (List.length records)
    (stats.Workload.committed + stats.Workload.aborted);
  Array.iter
    (fun n ->
      if Node.is_up n && not (Mds.Store.in_sync (Node.store n)) then
        Alcotest.failf "mds%d: volatile diverges from durable"
          (Node.server n))
    (Cluster.nodes cluster);
  match Cluster.check_invariants cluster with
  | [] -> ()
  | vs ->
      Alcotest.failf "invariants: %a"
        Fmt.(list ~sep:semi Mds.Invariant.pp_violation)
        vs

let test_message_loss protocol () =
  let config =
    {
      (failure_config protocol) with
      servers = 3;
      network =
        { Netsim.Network.default_config with drop_probability = 0.02 };
      seed = 11;
    }
  in
  let cluster = Cluster.create config in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  let wl = Workload.storm cluster ~dir ~count:25 () in
  (match Cluster.settle ~deadline:(Simkit.Time.span_s 600) cluster with
  | Cluster.Quiescent -> ()
  | _ -> Alcotest.fail "did not settle under loss");
  let stats = Workload.stats wl in
  Alcotest.(check int) "all answered" 25
    (stats.Workload.committed + stats.Workload.aborted);
  (match Cluster.check_invariants cluster with
  | [] -> ()
  | vs ->
      Alcotest.failf "invariants: %a"
        Fmt.(list ~sep:semi Mds.Invariant.pp_violation)
        vs)

(* Randomized fault storms: mixed workload, random crashes of random
   servers, everything must converge. Deterministic per seed. *)
let test_fault_storm protocol () =
  List.iter
    (fun seed ->
      let config = { (failure_config protocol) with servers = 4; seed } in
      let cluster = Cluster.create config in
      let root = Cluster.root cluster in
      let dirs =
        Array.init 3 (fun i ->
            Cluster.add_directory cluster ~parent:root
              ~name:(Printf.sprintf "d%d" i) ~server:i ())
      in
      let rng = Simkit.Rng.create ~seed:(seed * 7 + 1) in
      let wl =
        Workload.closed_loop cluster ~dirs ~clients:6 ~ops_per_client:8 ~rng ()
      in
      for _ = 1 to 5 do
        let server = Simkit.Rng.int rng 4 in
        let at_ms = 1 + Simkit.Rng.int rng 400 in
        Fault.crash_at cluster ~server
          ~at:(Simkit.Time.of_ns (at_ms * 1_000_000))
      done;
      (match Cluster.settle ~deadline:(Simkit.Time.span_s 600) cluster with
      | Cluster.Quiescent -> ()
      | Cluster.Deadline_exceeded ->
          Alcotest.failf "storm seed %d: deadline" seed
      | Cluster.Stuck -> Alcotest.failf "storm seed %d: stuck" seed);
      let stats = Workload.stats wl in
      if not (Workload.done_ wl) then
        Alcotest.failf "storm seed %d: %d/%d unanswered" seed
          (stats.Workload.submitted
          - stats.Workload.committed - stats.Workload.aborted)
          stats.Workload.submitted;
      match Cluster.check_invariants cluster with
      | [] -> ()
      | vs ->
          Alcotest.failf "storm seed %d: %a" seed
            Fmt.(list ~sep:semi Mds.Invariant.pp_violation)
            vs)
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

(* Fencing-based recovery must also work when every server has its own
   log device — the partitions are still remotely readable through the
   SAN fabric. Re-run a slice of the worker-crash sweep that exercises
   the 1PC fence path. *)
let test_1pc_crashes_with_independent_disks () =
  List.iter
    (fun ms ->
      let cluster =
        Cluster.create
          {
            (failure_config Acp.Protocol.Opc) with
            Config.san =
              {
                (failure_config Acp.Protocol.Opc).Config.san with
                Storage.San.shared_device = false;
              };
          }
      in
      let dir =
        Cluster.add_directory cluster ~parent:(Cluster.root cluster)
          ~name:"d" ~server:0 ()
      in
      let outcome = ref None in
      Cluster.submit cluster
        (Mds.Op.create_file ~parent:dir ~name:"f")
        ~on_done:(fun o -> outcome := Some o);
      Fault.crash_at cluster ~server:1
        ~at:(Simkit.Time.of_ns (ms * 1_000_000));
      (match Cluster.settle ~deadline:(Simkit.Time.span_s 300) cluster with
      | Cluster.Quiescent -> ()
      | _ -> Alcotest.failf "independent disks, crash at %dms: no settle" ms);
      (match !outcome with
      | Some _ -> ()
      | None -> Alcotest.fail "no reply");
      match Cluster.check_invariants cluster with
      | [] -> ()
      | vs ->
          Alcotest.failf "independent disks, crash at %dms: %a" ms
            Fmt.(list ~sep:semi Mds.Invariant.pp_violation)
            vs)
    [ 2; 6; 10; 14; 18; 25 ]

(* Group commit buffers forces in WAL memory; those buffers must die
   with a crash without breaking atomicity. Re-run a crash-sweep slice
   with group commit enabled. *)
let test_crashes_with_group_commit protocol () =
  List.iter
    (fun (server, ms) ->
      let cluster =
        Cluster.create
          {
            (failure_config protocol) with
            Config.san =
              {
                (failure_config protocol).Config.san with
                Storage.San.group_commit = true;
              };
          }
      in
      let dir =
        Cluster.add_directory cluster ~parent:(Cluster.root cluster)
          ~name:"d" ~server:0 ()
      in
      let outcomes = ref [] in
      for i = 0 to 3 do
        Cluster.submit cluster
          (Mds.Op.create_file ~parent:dir ~name:(Printf.sprintf "f%d" i))
          ~on_done:(fun o -> outcomes := o :: !outcomes)
      done;
      Fault.crash_at cluster ~server
        ~at:(Simkit.Time.of_ns (ms * 1_000_000));
      (match Cluster.settle ~deadline:(Simkit.Time.span_s 300) cluster with
      | Cluster.Quiescent -> ()
      | _ ->
          Alcotest.failf "%s group commit, crash mds%d at %dms: no settle"
            (pname protocol) server ms);
      Alcotest.(check int) "all replied" 4 (List.length !outcomes);
      match Cluster.check_invariants cluster with
      | [] -> ()
      | vs ->
          Alcotest.failf "%s group commit, crash mds%d at %dms: %a"
            (pname protocol) server ms
            Fmt.(list ~sep:semi Mds.Invariant.pp_violation)
            vs)
    [ (0, 5); (0, 15); (0, 30); (1, 5); (1, 15); (1, 30) ]

(* Property: for ANY crash schedule drawn by qcheck (which server, when,
   how many times) the storm converges with atomicity and invariants
   intact. Complements the deterministic sweeps with arbitrary shapes. *)
let prop_random_crash_schedules protocol =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "random crash schedules converge (%s)" (pname protocol))
    ~count:25
    QCheck2.Gen.(
      pair (int_bound 1000)
        (list_size (int_range 1 4)
           (pair (int_bound 1) (int_range 1 120))))
    (fun (seed, schedule) ->
      let results =
        run_one ~count:4
          ~protocol
          ~faults:(fun cluster ->
            ignore seed;
            List.iter
              (fun (server, at_ms) ->
                Fault.crash_at cluster ~server
                  ~at:(Simkit.Time.of_ns (at_ms * 1_000_000)))
              (* Deduplicate same-instant crashes of one server. *)
              (List.sort_uniq compare schedule))
          ()
      in
      List.for_all
        (fun r ->
          r.violations = []
          &&
          match r.outcome with
          | Acp.Txn.Committed -> r.dentry && r.inode
          | Acp.Txn.Aborted _ -> (not r.dentry) && not r.inode)
        results)

let per_protocol name speed f =
  List.map
    (fun p ->
      Alcotest.test_case
        (Printf.sprintf "%s (%s)" name (pname p))
        speed (f p))
    Acp.Protocol.all

let () =
  Alcotest.run "failures"
    [
      ( "crash sweeps",
        per_protocol "coordinator crash sweep" `Slow
          test_coordinator_crash_sweep
        @ per_protocol "worker crash sweep" `Slow test_worker_crash_sweep
        @ per_protocol "double crash" `Quick test_double_crash
        @ per_protocol "crash during recovery" `Quick
            test_crash_during_recovery
        @ per_protocol "burst with coordinator crash" `Slow (fun p ->
              test_burst_with_crash p ~server:0)
        @ per_protocol "burst with worker crash" `Slow (fun p ->
              test_burst_with_crash p ~server:1)
        @ per_protocol "rename crash, coordinator" `Slow (fun p ->
              test_rename_crash_sweep p ~server:0)
        @ per_protocol "rename crash, dst-dir worker" `Slow (fun p ->
              test_rename_crash_sweep p ~server:1)
        @ per_protocol "rename crash, inode worker" `Slow (fun p ->
              test_rename_crash_sweep p ~server:2) );
      ( "partitions",
        per_protocol "partition" `Quick test_partition
        @ per_protocol "partition then crash" `Quick
            test_partition_then_crash
        @ [
            Alcotest.test_case "1PC fencing fires" `Quick
              test_1pc_fencing_fires;
            Alcotest.test_case "1PC worker crash, no self-restart" `Quick
              test_worker_crash_no_restart_1pc;
            Alcotest.test_case "blocking 2PC vs non-blocking 1PC" `Quick
              test_partition_blocking_vs_fencing;
            Alcotest.test_case "PrC presumed commit" `Quick
              test_prc_presumed_commit;
            Alcotest.test_case "1PC crashes, independent disks" `Quick
              test_1pc_crashes_with_independent_disks;
          ]
        @ per_protocol "crashes under group commit" `Quick
            test_crashes_with_group_commit );
      ( "chaos",
        per_protocol "message loss" `Quick test_message_loss
        @ per_protocol "message duplication" `Quick test_message_duplication
        @ per_protocol "closed-loop duplication" `Quick
            test_closed_loop_duplication
        @ per_protocol "fault storm" `Slow test_fault_storm
        @ List.map
            (fun p -> QCheck_alcotest.to_alcotest (prop_random_crash_schedules p))
            Acp.Protocol.all );
    ]
