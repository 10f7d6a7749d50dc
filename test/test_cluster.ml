(* End-to-end failure-free tests: every protocol commits the paper's
   namespace operations atomically, the measured protocol costs equal
   the analytic Table I, and the Figure 6 performance ordering holds. *)

open Opc

let protocols = Acp.Protocol.all
let pname = Acp.Protocol.name

let mk_cluster ?(servers = 4) ?(protocol = Acp.Protocol.Opc)
    ?(placement = Mds.Placement.Spread) ?(seed = 1) () =
  Cluster.create
    {
      Config.default with
      servers;
      protocol;
      placement;
      seed;
      txn_timeout = Simkit.Time.span_s 60;
    }

let settle cluster =
  match Cluster.settle cluster with
  | Cluster.Quiescent -> ()
  | Cluster.Deadline_exceeded -> Alcotest.fail "settle: deadline exceeded"
  | Cluster.Stuck -> Alcotest.fail "settle: stuck"

let run_op cluster op =
  let result = ref None in
  Cluster.submit cluster op ~on_done:(fun o -> result := Some o);
  settle cluster;
  match !result with
  | Some o -> o
  | None -> Alcotest.fail "operation never completed"

let check_committed what = function
  | Acp.Txn.Committed -> ()
  | Acp.Txn.Aborted reason -> Alcotest.failf "%s aborted: %s" what reason

let check_aborted what = function
  | Acp.Txn.Aborted _ -> ()
  | Acp.Txn.Committed -> Alcotest.failf "%s committed unexpectedly" what

let check_invariants cluster =
  match Cluster.check_invariants cluster with
  | [] -> ()
  | vs ->
      Alcotest.failf "invariant violations: %a"
        Fmt.(list ~sep:semi Mds.Invariant.pp_violation)
        vs

let durable_lookup cluster ~dir ~name =
  let server = Mds.Placement.node_of (Cluster.placement cluster) dir in
  Mds.State.lookup
    (Mds.Store.durable (Node.store (Cluster.node cluster server)))
    ~dir ~name

let all_stores_in_sync cluster =
  Array.for_all
    (fun n -> Mds.Store.in_sync (Node.store n))
    (Cluster.nodes cluster)

(* ------------------------------------------------------------------ *)
(* Per-protocol behaviour                                              *)
(* ------------------------------------------------------------------ *)

let test_create_commits protocol () =
  let cluster = mk_cluster ~protocol () in
  let root = Cluster.root cluster in
  let dir = Cluster.add_directory cluster ~parent:root ~name:"d" ~server:0 () in
  check_committed "create"
    (run_op cluster (Mds.Op.create_file ~parent:dir ~name:"f"));
  (* Durable on the directory's server, inode durable on the worker. *)
  (match durable_lookup cluster ~dir ~name:"f" with
  | Some ino ->
      let server = Mds.Placement.node_of (Cluster.placement cluster) ino in
      Alcotest.(check bool) "distributed" true (server <> 0);
      Alcotest.(check bool) "inode durable" true
        (Mds.State.inode
           (Mds.Store.durable (Node.store (Cluster.node cluster server)))
           ino
        <> None)
  | None -> Alcotest.fail "dentry not durable");
  check_invariants cluster;
  Alcotest.(check bool) "stores settled" true (all_stores_in_sync cluster);
  let committed, aborted = Cluster.txn_counts cluster in
  Alcotest.(check (pair int int)) "counts" (1, 0) (committed, aborted)

let test_duplicate_create_aborts protocol () =
  let cluster = mk_cluster ~protocol () in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  check_committed "first"
    (run_op cluster (Mds.Op.create_file ~parent:dir ~name:"same"));
  check_aborted "duplicate"
    (run_op cluster (Mds.Op.create_file ~parent:dir ~name:"same"));
  check_invariants cluster;
  Alcotest.(check bool) "stores settled" true (all_stores_in_sync cluster)

let test_create_delete_roundtrip protocol () =
  let cluster = mk_cluster ~protocol () in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  check_committed "create"
    (run_op cluster (Mds.Op.create_file ~parent:dir ~name:"tmp"));
  check_committed "delete"
    (run_op cluster (Mds.Op.delete ~parent:dir ~name:"tmp"));
  Alcotest.(check (option int)) "gone" None
    (durable_lookup cluster ~dir ~name:"tmp");
  check_aborted "double delete"
    (run_op cluster (Mds.Op.delete ~parent:dir ~name:"tmp"));
  check_invariants cluster

let test_concurrent_creates protocol () =
  let cluster = mk_cluster ~protocol () in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  let wl = Workload.storm cluster ~dir ~count:30 () in
  settle cluster;
  let stats = Workload.stats wl in
  Alcotest.(check int) "all committed" 30 stats.Workload.committed;
  Alcotest.(check int) "no aborts" 0 stats.Workload.aborted;
  check_invariants cluster;
  Alcotest.(check bool) "stores settled" true (all_stores_in_sync cluster)

let test_rename protocol () =
  let cluster = mk_cluster ~protocol ~placement:Mds.Placement.Round_robin () in
  let root = Cluster.root cluster in
  let d1 = Cluster.add_directory cluster ~parent:root ~name:"d1" ~server:0 () in
  let d2 = Cluster.add_directory cluster ~parent:root ~name:"d2" ~server:1 () in
  (* Advance the round-robin allocator so "f"'s inode lands on server 2:
     the rename then spans three servers (src dir, dst dir, inode). *)
  check_committed "pad0"
    (run_op cluster (Mds.Op.create_file ~parent:d1 ~name:"pad0"));
  check_committed "pad1"
    (run_op cluster (Mds.Op.create_file ~parent:d1 ~name:"pad1"));
  check_committed "create"
    (run_op cluster (Mds.Op.create_file ~parent:d1 ~name:"f"));
  check_committed "rename"
    (run_op cluster
       (Mds.Op.rename ~src_dir:d1 ~src_name:"f" ~dst_dir:d2 ~dst_name:"g"));
  Alcotest.(check (option int)) "source gone" None
    (durable_lookup cluster ~dir:d1 ~name:"f");
  Alcotest.(check bool) "target exists" true
    (durable_lookup cluster ~dir:d2 ~name:"g" <> None);
  check_invariants cluster;
  (* A multi-server rename under 1PC must have used the PrN fallback. *)
  if protocol = Acp.Protocol.Opc then
    Alcotest.(check bool) "fallback used" true
      (Metrics.Ledger.get (Cluster.ledger cluster) "txn.fallback" > 0)

(* The instrumented per-transaction totals must equal the analytic
   Table I (and therefore the published table). *)
let test_table1_measured protocol () =
  let m = Experiment.run_table1_measured ~count:10 protocol in
  let c = Acp.Cost_model.failure_free protocol in
  let check_float what expected actual =
    if abs_float (actual -. expected) > 1e-9 then
      Alcotest.failf "%s %s: expected %.2f, measured %.2f" (pname protocol)
        what expected actual
  in
  check_float "sync writes"
    (float_of_int c.Acp.Cost_model.total_sync)
    m.Experiment.sync_writes_per_txn;
  check_float "async writes"
    (float_of_int c.Acp.Cost_model.total_async)
    m.Experiment.async_writes_per_txn;
  check_float "acp messages"
    (float_of_int c.Acp.Cost_model.total_messages)
    m.Experiment.acp_messages_per_txn

(* Abort accounting: the measured abort costs must equal the analytic
   model — in particular the paper's §II-D claim that the PrC abort path
   restores full PrN cost, and that 1PC aborts exchange no messages. *)
let test_abort_costs_measured protocol () =
  let m = Experiment.run_abort_measured ~count:10 protocol in
  let c = Acp.Cost_model.worker_rejected protocol in
  let check_float what expected actual =
    if abs_float (actual -. expected) > 1e-9 then
      Alcotest.failf "%s %s: expected %.2f, measured %.2f" (pname protocol)
        what expected actual
  in
  check_float "sync writes"
    (float_of_int c.Acp.Cost_model.total_sync)
    m.Experiment.sync_writes_per_txn;
  check_float "async writes"
    (float_of_int c.Acp.Cost_model.total_async)
    m.Experiment.async_writes_per_txn;
  check_float "acp messages"
    (float_of_int c.Acp.Cost_model.total_messages)
    m.Experiment.acp_messages_per_txn

let test_abort_prc_equals_prn () =
  Alcotest.(check bool) "SII-D: PrC abort = PrN abort" true
    (Acp.Cost_model.worker_rejected Acp.Protocol.Prc
    = Acp.Cost_model.worker_rejected Acp.Protocol.Prn)

(* ------------------------------------------------------------------ *)
(* Cross-protocol and cluster-level behaviour                          *)
(* ------------------------------------------------------------------ *)

let test_local_transactions () =
  (* Full colocation: every create lands on the parent's server and
     commits without any protocol messages. *)
  let cluster =
    mk_cluster ~protocol:Acp.Protocol.Prn
      ~placement:(Mds.Placement.Colocate 1.0) ()
  in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:2 ()
  in
  for i = 0 to 9 do
    check_committed "local create"
      (run_op cluster
         (Mds.Op.create_file ~parent:dir ~name:(Printf.sprintf "f%d" i)))
  done;
  let ledger = Cluster.ledger cluster in
  Alcotest.(check int) "all local" 10 (Metrics.Ledger.get ledger "txn.local");
  Alcotest.(check int) "no protocol messages" 0
    (Metrics.Ledger.get ledger "msg.total");
  Alcotest.(check int) "one sync write per op" 10
    (Metrics.Ledger.get ledger "log.sync");
  check_invariants cluster

let test_submit_to_down_coordinator () =
  let cluster =
    Cluster.create
      {
        Config.default with
        servers = 2;
        placement = Mds.Placement.Spread;
        auto_restart = false;
      }
  in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  Cluster.crash cluster 0;
  check_aborted "down coordinator"
    (run_op cluster (Mds.Op.create_file ~parent:dir ~name:"f"))

let test_unknown_parent_rejected () =
  let cluster = mk_cluster () in
  check_aborted "unknown parent"
    (run_op cluster (Mds.Op.create_file ~parent:424242 ~name:"f"))

let test_mixed_workload () =
  let cluster = mk_cluster ~seed:7 () in
  let root = Cluster.root cluster in
  let dirs =
    Array.init 4 (fun i ->
        Cluster.add_directory cluster ~parent:root
          ~name:(Printf.sprintf "dir%d" i) ~server:(i mod 4) ())
  in
  let rng = Simkit.Rng.create ~seed:99 in
  let wl =
    Workload.closed_loop cluster ~dirs ~clients:8 ~ops_per_client:25 ~rng ()
  in
  settle cluster;
  let stats = Workload.stats wl in
  Alcotest.(check int) "all done" 200
    (stats.Workload.committed + stats.Workload.aborted);
  Alcotest.(check bool) "mostly committed" true
    (stats.Workload.committed > 150);
  check_invariants cluster;
  Alcotest.(check bool) "stores settled" true (all_stores_in_sync cluster)

let test_churn_workload () =
  let cluster = mk_cluster ~protocol:Acp.Protocol.Opc () in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  let wl = Workload.churn cluster ~dir ~files:5 ~rounds:4 in
  settle cluster;
  let stats = Workload.stats wl in
  Alcotest.(check int) "5*4*2 ops" 40 stats.Workload.submitted;
  Alcotest.(check int) "all committed" 40 stats.Workload.committed;
  (* Every file was deleted again: the directory is empty. *)
  let listing =
    Mds.State.list_dir
      (Mds.Store.durable (Node.store (Cluster.node cluster 0)))
      dir
  in
  Alcotest.(check (option (list (pair string int)))) "empty" (Some []) listing;
  check_invariants cluster

(* The measured Figure 6 must agree with the closed-form prediction
   derived from the cost table alone: under a saturating burst on one
   shared device, throughput = bandwidth / (block * writes-per-txn). *)
let test_fig6_matches_model () =
  let points = Experiment.run_fig6 ~count:60 () in
  List.iter
    (fun (p : Experiment.fig6_point) ->
      let model =
        Acp.Cost_model.predicted_storm_throughput
          ~bandwidth_bytes_per_s:400_000 ~block_bytes:4096 p.protocol
      in
      let err = abs_float (p.throughput -. model) /. model in
      if err > 0.05 then
        Alcotest.failf "%s: measured %.2f vs model %.2f (%.1f%% off)"
          (pname p.protocol) p.throughput model (100.0 *. err))
    points

let test_fig6_ordering () =
  let points = Experiment.run_fig6 ~count:40 () in
  let tp k =
    (List.find (fun (p : Experiment.fig6_point) -> p.protocol = k) points)
      .throughput
  in
  let prn = tp Acp.Protocol.Prn
  and prc = tp Acp.Protocol.Prc
  and ep = tp Acp.Protocol.Ep
  and opc = tp Acp.Protocol.Opc in
  Alcotest.(check bool) "1PC fastest" true (opc > ep && opc > prc && opc > prn);
  Alcotest.(check bool) "EP >= PrC" true (ep >= prc -. 0.01);
  Alcotest.(check bool) "PrC > PrN" true (prc > prn);
  Alcotest.(check bool) "headline gain > 40%" true (opc > 1.4 *. prn);
  List.iter
    (fun (p : Experiment.fig6_point) ->
      Alcotest.(check int) (pname p.protocol ^ " commits all") 40 p.committed)
    points

let test_marks_recorded () =
  let cluster = mk_cluster ~protocol:Acp.Protocol.Opc () in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  let t0 = Cluster.now cluster in
  let replied = ref Simkit.Time.zero and read_done = ref Simkit.Time.zero in
  Cluster.submit cluster
    (Mds.Op.create_file ~parent:dir ~name:"f")
    ~on_done:(fun outcome ->
      check_committed "create" outcome;
      replied := Cluster.now cluster);
  (* Past the STARTED force, the writer holds the directory lock: a
     reader queues behind it, is granted at the writer's release and
     answers one method latency later. *)
  Cluster.run_for cluster (Simkit.Time.span_ms 15);
  Cluster.lookup cluster ~dir ~name:"f" ~on_done:(fun _ ->
      read_done := Cluster.now cluster);
  settle cluster;
  let holds = Cluster.lock_hold cluster in
  let latency = Cluster.latency_committed cluster in
  Alcotest.(check int) "one lock-hold sample" 1 (Metrics.Histogram.count holds);
  Alcotest.(check int) "one reply sample" 1 (Metrics.Histogram.count latency);
  Alcotest.(check int) "reply sample is submit -> reply"
    (Simkit.Time.span_to_ns (Simkit.Time.diff !replied t0))
    (Simkit.Time.span_to_ns (Metrics.Histogram.mean latency));
  let mean_ns h = Simkit.Time.span_to_ns (Metrics.Histogram.mean h) in
  Alcotest.(check bool) "lock held inside the reply window" true
    (mean_ns holds > 0 && mean_ns holds < mean_ns latency);
  (* 1PC releases at the same instant it replies. *)
  Alcotest.(check int) "reply and release coincide under 1PC"
    (Simkit.Time.to_ns
       (Simkit.Time.add !replied Config.method_latency))
    (Simkit.Time.to_ns !read_done)

let test_lock_hold_ordering () =
  (* The mechanism behind Figure 6: 1PC holds the contended directory
     lock for less time than PrN. *)
  let hold protocol =
    let cluster = mk_cluster ~protocol () in
    let dir =
      Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
        ~server:0 ()
    in
    check_committed "create"
      (run_op cluster (Mds.Op.create_file ~parent:dir ~name:"f"));
    let holds = Cluster.lock_hold cluster in
    if Metrics.Histogram.count holds <> 1 then
      Alcotest.fail "expected one sample";
    Simkit.Time.span_to_ns (Metrics.Histogram.mean holds)
  in
  let prn = hold Acp.Protocol.Prn and opc = hold Acp.Protocol.Opc in
  Alcotest.(check bool) "1PC holds locks for less time" true (opc < prn)

(* Model check 1: a sequential stream of random operations must leave
   the distributed durable namespace exactly equal to a single-machine
   reference executing the committed operations in order. *)
let test_model_sequential () =
  let cluster = mk_cluster ~seed:13 () in
  let root = Cluster.root cluster in
  let dirs =
    Array.init 3 (fun i ->
        Cluster.add_directory cluster ~parent:root
          ~name:(Printf.sprintf "d%d" i) ~server:(i mod 4) ())
  in
  let rng = Simkit.Rng.create ~seed:21 in
  (* Reference: set of (dir, name) pairs that should exist. *)
  let model : (int * string, unit) Hashtbl.t = Hashtbl.create 64 in
  let random_op () =
    let dir = dirs.(Simkit.Rng.int rng 3) in
    let name = Printf.sprintf "n%d" (Simkit.Rng.int rng 12) in
    match Simkit.Rng.int rng 3 with
    | 0 -> Mds.Op.create_file ~parent:dir ~name
    | 1 -> Mds.Op.delete ~parent:dir ~name
    | _ ->
        let dst = dirs.(Simkit.Rng.int rng 3) in
        Mds.Op.rename ~src_dir:dir ~src_name:name ~dst_dir:dst
          ~dst_name:(Printf.sprintf "n%d" (Simkit.Rng.int rng 12))
  in
  for _ = 1 to 120 do
    let op = random_op () in
    match run_op cluster op with
    | Acp.Txn.Committed -> (
        match op with
        | Mds.Op.Create { parent; name; _ } ->
            Hashtbl.replace model (parent, name) ()
        | Mds.Op.Delete { parent; name } -> Hashtbl.remove model (parent, name)
        | Mds.Op.Rename { src_dir; src_name; dst_dir; dst_name } ->
            Hashtbl.remove model (src_dir, src_name);
            Hashtbl.replace model (dst_dir, dst_name) ())
    | Acp.Txn.Aborted _ -> ()
  done;
  check_invariants cluster;
  (* Compare the durable namespace shape with the model. *)
  Array.iter
    (fun dir ->
      let server = Mds.Placement.node_of (Cluster.placement cluster) dir in
      let listing =
        match
          Mds.State.list_dir
            (Mds.Store.durable (Node.store (Cluster.node cluster server)))
            dir
        with
        | Some entries -> List.map fst entries
        | None -> Alcotest.fail "directory lost"
      in
      let expected =
        Hashtbl.fold
          (fun (d, name) () acc -> if d = dir then name :: acc else acc)
          model []
        |> List.sort String.compare
      in
      Alcotest.(check (list string))
        (Printf.sprintf "dir %d contents" dir)
        expected listing)
    dirs

(* Model check 2: concurrent creates with colliding names — for every
   name, at most one CREATE commits, and the durable directory holds
   exactly the committed names. *)
let test_model_concurrent_collisions protocol () =
  let cluster = mk_cluster ~protocol ~seed:17 () in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  let rng = Simkit.Rng.create ~seed:23 in
  let committed_names : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let pending = ref 0 in
  for _ = 1 to 30 do
    let name = Printf.sprintf "n%d" (Simkit.Rng.int rng 18) in
    incr pending;
    Cluster.submit cluster
      (Mds.Op.create_file ~parent:dir ~name)
      ~on_done:(fun outcome ->
        decr pending;
        match outcome with
        | Acp.Txn.Committed ->
            Hashtbl.replace committed_names name
              (1 + Option.value ~default:0 (Hashtbl.find_opt committed_names name))
        | Acp.Txn.Aborted _ -> ())
  done;
  settle cluster;
  Alcotest.(check int) "all replied" 0 !pending;
  Hashtbl.iter
    (fun name n ->
      if n <> 1 then Alcotest.failf "name %s committed %d times" name n)
    committed_names;
  let listing =
    match
      Mds.State.list_dir
        (Mds.Store.durable (Node.store (Cluster.node cluster 0)))
        dir
    with
    | Some entries -> List.map fst entries
    | None -> Alcotest.fail "directory lost"
  in
  let expected =
    Hashtbl.fold (fun name _ acc -> name :: acc) committed_names []
    |> List.sort String.compare
  in
  Alcotest.(check (list string)) "durable = committed" expected listing;
  check_invariants cluster

(* Namespace reads: shared locks, correct answers, proper exclusion. *)
let test_lookup_and_readdir () =
  let cluster = mk_cluster () in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:1 ()
  in
  check_committed "create"
    (run_op cluster (Mds.Op.create_file ~parent:dir ~name:"hello"));
  let got = ref None in
  Cluster.lookup cluster ~dir ~name:"hello" ~on_done:(fun r -> got := Some r);
  settle cluster;
  (match !got with
  | Some (Ok (Some _)) -> ()
  | _ -> Alcotest.fail "lookup should find the file");
  Cluster.lookup cluster ~dir ~name:"ghost" ~on_done:(fun r -> got := Some r);
  settle cluster;
  (match !got with
  | Some (Ok None) -> ()
  | _ -> Alcotest.fail "absent name is Ok None");
  Cluster.lookup cluster ~dir:424242 ~name:"x" ~on_done:(fun r -> got := Some r);
  (match !got with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "unknown directory is an error");
  let listing = ref None in
  Cluster.readdir cluster ~dir ~on_done:(fun r -> listing := Some r);
  settle cluster;
  match !listing with
  | Some (Ok [ ("hello", _) ]) -> ()
  | _ -> Alcotest.fail "readdir should list exactly [hello]"

let test_reads_share_writers_exclude () =
  let cluster = mk_cluster () in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  (* Two concurrent reads are granted together: both finish one method
     latency after the same grant instant. *)
  let t1 = ref Simkit.Time.zero and t2 = ref Simkit.Time.zero in
  Cluster.lookup cluster ~dir ~name:"a" ~on_done:(fun _ ->
      t1 := Cluster.now cluster);
  Cluster.lookup cluster ~dir ~name:"b" ~on_done:(fun _ ->
      t2 := Cluster.now cluster);
  settle cluster;
  Alcotest.(check int) "shared readers finish together"
    (Simkit.Time.to_ns !t1) (Simkit.Time.to_ns !t2);
  (* A read issued while a writer holds the directory lock waits until
     the writer releases. The writer only takes the lock after its
     STARTED force (~10 ms), so advance past that before reading. *)
  let read_done = ref Simkit.Time.zero in
  let write_replied = ref Simkit.Time.zero in
  Cluster.submit cluster
    (Mds.Op.create_file ~parent:dir ~name:"f")
    ~on_done:(fun _ -> write_replied := Cluster.now cluster);
  Cluster.run_for cluster (Simkit.Time.span_ms 15);
  Cluster.lookup cluster ~dir ~name:"f" ~on_done:(fun r ->
      read_done := Cluster.now cluster;
      match r with
      | Ok (Some _) -> ()
      | _ -> Alcotest.fail "reader should see the committed file");
  settle cluster;
  (* 1PC releases the directory lock at the instant it replies. *)
  Alcotest.(check bool) "reader waited for the writer" true
    (Simkit.Time.( >= ) !read_done !write_replied)

let test_read_heavy_mix () =
  let cluster = mk_cluster ~seed:31 () in
  let dirs =
    Array.init 2 (fun i ->
        Cluster.add_directory cluster ~parent:(Cluster.root cluster)
          ~name:(Printf.sprintf "d%d" i) ~server:i ())
  in
  let rng = Simkit.Rng.create ~seed:32 in
  let wl =
    Workload.closed_loop cluster ~dirs ~clients:4 ~ops_per_client:25
      ~mix:
        {
          Workload.create_weight = 20;
          delete_weight = 5;
          rename_weight = 0;
          lookup_weight = 75;
        }
      ~rng ()
  in
  settle cluster;
  let s = Workload.stats wl in
  Alcotest.(check int) "every step answered" 100
    (s.Workload.committed + s.Workload.aborted + s.Workload.reads);
  Alcotest.(check bool) "reads dominated" true (s.Workload.reads > 50);
  Alcotest.(check int) "ledger agrees" s.Workload.reads
    (Metrics.Ledger.get (Cluster.ledger cluster) "txn.read");
  check_invariants cluster

(* Distributed deadlock: two RENAMEs crossing two directories on
   different servers wait for each other's locks; the lock/vote timeouts
   abort at least one, and the source-level retry (the paper simulator's
   "leave" resubmission) lets both eventually commit. *)
let test_crossing_renames_deadlock protocol () =
  let cluster =
    Cluster.create
      {
        Config.default with
        servers = 2;
        protocol;
        placement = Mds.Placement.Round_robin;
        txn_timeout = Simkit.Time.span_ms 200;
        seed = 41;
      }
  in
  let root = Cluster.root cluster in
  let d0 = Cluster.add_directory cluster ~parent:root ~name:"d0" ~server:0 () in
  let d1 = Cluster.add_directory cluster ~parent:root ~name:"d1" ~server:1 () in
  check_committed "seed a"
    (run_op cluster (Mds.Op.create_file ~parent:d0 ~name:"a"));
  check_committed "seed b"
    (run_op cluster (Mds.Op.create_file ~parent:d1 ~name:"b"));
  let outcomes = ref [] in
  Workload.submit_with_retries cluster ~retries:5
    (Mds.Op.rename ~src_dir:d0 ~src_name:"a" ~dst_dir:d1 ~dst_name:"a2")
    ~on_done:(fun o -> outcomes := o :: !outcomes);
  Workload.submit_with_retries cluster ~retries:5
    (Mds.Op.rename ~src_dir:d1 ~src_name:"b" ~dst_dir:d0 ~dst_name:"b2")
    ~on_done:(fun o -> outcomes := o :: !outcomes);
  settle cluster;
  Alcotest.(check int) "both answered" 2 (List.length !outcomes);
  List.iter (check_committed "crossing rename") !outcomes;
  Alcotest.(check bool) "a moved" true
    (durable_lookup cluster ~dir:d1 ~name:"a2" <> None);
  Alcotest.(check bool) "b moved" true
    (durable_lookup cluster ~dir:d0 ~name:"b2" <> None);
  check_invariants cluster

let test_deterministic_runs () =
  let run () =
    let cluster = mk_cluster ~seed:5 () in
    let dir =
      Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
        ~server:0 ()
    in
    let wl = Workload.storm cluster ~dir ~count:20 () in
    settle cluster;
    let s = Workload.stats wl in
    ( s.Workload.committed,
      Simkit.Time.to_ns (Cluster.now cluster),
      Metrics.Ledger.snapshot (Cluster.ledger cluster) )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical replays" true (a = b)

(* Scale smoke: a larger cluster and workload must stay linear-ish and
   converge (guards against accidental quadratic behaviour in the
   engine, lock tables or log scans). *)
let test_scale_smoke () =
  let cluster =
    Cluster.create
      {
        Config.default with
        servers = 16;
        protocol = Acp.Protocol.Opc;
        placement = Mds.Placement.Hash;
        seed = 77;
        (* At this offered load the hottest directory's queue exceeds
           the default timeout by design; give the locks room so the
           test measures convergence, not admission control. *)
        txn_timeout = Simkit.Time.span_s 600;
      }
  in
  let root = Cluster.root cluster in
  let dirs =
    Array.init 8 (fun i ->
        Cluster.add_directory cluster ~parent:root
          ~name:(Printf.sprintf "d%d" i) ~server:(i * 2) ())
  in
  let rng = Simkit.Rng.create ~seed:78 in
  let wl =
    Workload.closed_loop cluster ~dirs ~clients:24 ~ops_per_client:20
      ~zipf_s:0.3 ~rng ()
  in
  (match Cluster.settle ~deadline:(Simkit.Time.span_s 3600) cluster with
  | Cluster.Quiescent -> ()
  | _ -> Alcotest.fail "did not settle");
  let s = Workload.stats wl in
  Alcotest.(check int) "all answered" 480
    (s.Workload.committed + s.Workload.aborted);
  Alcotest.(check bool) "mostly committed" true (s.Workload.committed > 450);
  check_invariants cluster;
  Alcotest.(check bool) "stores settled" true (all_stores_in_sync cluster)

(* Per-transaction state lives only while the transaction is in flight:
   after [pairs] more settled create/delete pairs, the cluster keeps
   only what a settled transaction leaves behind: two latency samples,
   a bit in each server's hardened set and, for a create, its inode's
   placement slot. Not its milestones, its replica keys or a table
   entry. Growing arrays double, so the measure depends on where the
   window falls; the 64-server window is chosen to hold a doubling of
   both histograms and of every hardened set. *)
let test_retention ~servers ~pairs ~limit protocol () =
  let cluster =
    Cluster.create
      { (Experiment.scale_config ~servers ~seed:1) with Config.protocol }
  in
  let dirs =
    Array.init 4 (fun i ->
        Cluster.add_directory cluster ~parent:(Cluster.root cluster)
          ~name:(Printf.sprintf "d%d" i) ~server:(i * servers / 4) ())
  in
  let run_pairs ~from ~pairs =
    for i = from to from + pairs - 1 do
      let parent = dirs.(i mod 4) and name = Printf.sprintf "f%d" i in
      check_committed "create"
        (run_op cluster (Mds.Op.create_file ~parent ~name));
      check_committed "delete" (run_op cluster (Mds.Op.delete ~parent ~name))
    done;
    Gc.full_major ();
    Obj.reachable_words (Obj.repr cluster)
  in
  let before = run_pairs ~from:0 ~pairs in
  let after = run_pairs ~from:pairs ~pairs in
  let per_txn = float_of_int (after - before) /. float_of_int (2 * pairs) in
  if per_txn > limit then
    Alcotest.failf "%s keeps %.1f words per settled transaction (limit %g)"
      (pname protocol) per_txn limit

(* An idle cluster's work is its heartbeats: every 50 ms each of 64
   servers sends one beat to its 63 peers. Delivery allocates per beat,
   not per copy, and the heartbeat timer and the detector's sweep reuse
   one closure each, so a simulated second allocates less than one word
   per delivered copy. *)
let test_idle_heartbeat_allocation () =
  let cluster = Cluster.create (Experiment.scale_config ~servers:64 ~seed:1) in
  let delivered () =
    (Netsim.Network.stats (Cluster.network cluster)).Netsim.Network.delivered
  in
  let copies0 = delivered () in
  let words0 = Gc.minor_words () in
  Cluster.run_for cluster (Simkit.Time.span_s 1);
  let words = Gc.minor_words () -. words0 in
  let copies = delivered () - copies0 in
  Alcotest.(check int) "a second of beats" (64 * 63 * 20) copies;
  let per_copy = words /. float_of_int copies in
  if per_copy >= 1.0 then
    Alcotest.failf "%.2f words per delivered heartbeat copy (limit 1)"
      per_copy

(* Configuration validation and fault pretty-printing coverage. *)
let test_config_validation () =
  (match Config.validate { Config.default with servers = 0 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "zero servers accepted");
  (match
     Config.validate
       {
         Config.default with
         heartbeat_interval = Simkit.Time.span_ms 500;
         detector_timeout = Simkit.Time.span_ms 100;
       }
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "heartbeat >= detector timeout accepted");
  (match Config.validate Config.default with
  | Ok () -> ()
  | Error e -> Alcotest.failf "default config invalid: %s" e);
  Alcotest.check_raises "create rejects bad config"
    (Invalid_argument "Cluster.create: servers must be positive") (fun () ->
      ignore (Cluster.create { Config.default with servers = -1 }))

let test_fault_pp_and_inject () =
  let s ev = Fmt.str "%a" Fault.pp_event ev in
  Alcotest.(check bool) "crash pp" true
    (String.length (s (Fault.Crash { server = 1; at = Simkit.Time.zero })) > 0);
  Alcotest.(check bool) "partition pp" true
    (String.length
       (s
          (Fault.Partition
             { left = [ 0 ]; right = [ 1 ]; at = Simkit.Time.zero }))
    > 0);
  (* inject arms a whole plan *)
  let cluster = mk_cluster ~servers:2 () in
  Fault.inject cluster
    [
      Fault.Crash { server = 1; at = Simkit.Time.of_ns 1_000_000 };
      Fault.Heal { at = Simkit.Time.of_ns 2_000_000 };
      Fault.Partition
        { left = [ 0 ]; right = [ 1 ]; at = Simkit.Time.of_ns 1_500_000 };
      Fault.Restart { server = 1; at = Simkit.Time.of_ns 3_000_000 };
    ];
  Cluster.run_for cluster (Simkit.Time.span_ms 1);
  Alcotest.(check bool) "crashed" false (Node.is_up (Cluster.node cluster 1));
  Cluster.run_for cluster (Simkit.Time.span_ms 4);
  Alcotest.(check bool) "restarted" true (Node.is_up (Cluster.node cluster 1))

let per_protocol name f =
  List.map
    (fun p ->
      Alcotest.test_case (Printf.sprintf "%s (%s)" name (pname p)) `Quick (f p))
    protocols

let () =
  Alcotest.run "cluster"
    [
      ( "per-protocol",
        per_protocol "create commits" test_create_commits
        @ per_protocol "duplicate aborts" test_duplicate_create_aborts
        @ per_protocol "create/delete" test_create_delete_roundtrip
        @ per_protocol "30 concurrent creates" test_concurrent_creates
        @ per_protocol "rename" test_rename
        @ per_protocol "table1 measured = analytic" test_table1_measured
        @ per_protocol "abort costs measured = analytic"
            test_abort_costs_measured
        @ [
            Alcotest.test_case "PrC abort = PrN abort (SII-D)" `Quick
              test_abort_prc_equals_prn;
          ] );
      ( "cluster",
        [
          Alcotest.test_case "local transactions" `Quick
            test_local_transactions;
          Alcotest.test_case "down coordinator" `Quick
            test_submit_to_down_coordinator;
          Alcotest.test_case "unknown parent" `Quick
            test_unknown_parent_rejected;
          Alcotest.test_case "mixed workload" `Quick test_mixed_workload;
          Alcotest.test_case "churn workload" `Quick test_churn_workload;
          Alcotest.test_case "fig6 ordering" `Slow test_fig6_ordering;
          Alcotest.test_case "fig6 matches closed-form model" `Slow
            test_fig6_matches_model;
          Alcotest.test_case "marks" `Quick test_marks_recorded;
          Alcotest.test_case "lock hold ordering" `Quick
            test_lock_hold_ordering;
          Alcotest.test_case "deterministic" `Quick test_deterministic_runs;
          Alcotest.test_case "model: sequential ops" `Quick
            test_model_sequential;
          Alcotest.test_case "lookup/readdir" `Quick test_lookup_and_readdir;
          Alcotest.test_case "read locking" `Quick
            test_reads_share_writers_exclude;
          Alcotest.test_case "read-heavy mix" `Quick test_read_heavy_mix;
          Alcotest.test_case "scale smoke (16 servers)" `Slow
            test_scale_smoke;
          Alcotest.test_case "idle heartbeats allocate per beat" `Quick
            test_idle_heartbeat_allocation;
          Alcotest.test_case "config validation" `Quick
            test_config_validation;
          Alcotest.test_case "fault pp/inject" `Quick test_fault_pp_and_inject;
        ]
        @ per_protocol "model: concurrent collisions"
            test_model_concurrent_collisions
        @ per_protocol "crossing renames (deadlock + retry)"
            test_crossing_renames_deadlock
        @ List.map
            (fun p ->
              Alcotest.test_case
                (Printf.sprintf "retention bounded by in-flight work (%s)"
                   (pname p))
                `Quick
                (test_retention ~servers:4 ~pairs:1_000 ~limit:4. p))
            Acp.Protocol.all
        @ [
            Alcotest.test_case "retention at 64 servers (1PC)" `Quick
              (test_retention ~servers:64 ~pairs:100 ~limit:6.
                 Acp.Protocol.Opc);
          ] );
    ]
