(* Tests for the workload generators and the batching (§VI) layer. *)

open Opc

let mk_cluster ?(servers = 4) ?(protocol = Acp.Protocol.Opc)
    ?(placement = Mds.Placement.Spread) ?(seed = 1) () =
  Cluster.create
    { Config.default with servers; protocol; placement; seed }

let settle cluster =
  match Cluster.settle cluster with
  | Cluster.Quiescent -> ()
  | _ -> Alcotest.fail "did not settle"

let check_invariants cluster =
  match Cluster.check_invariants cluster with
  | [] -> ()
  | vs ->
      Alcotest.failf "invariants: %a"
        Fmt.(list ~sep:semi Mds.Invariant.pp_violation)
        vs

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_storm_counts () =
  let cluster = mk_cluster () in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  let wl = Workload.storm cluster ~dir ~count:12 () in
  Alcotest.(check bool) "not done before running" false (Workload.done_ wl);
  settle cluster;
  let s = Workload.stats wl in
  Alcotest.(check int) "submitted" 12 s.Workload.submitted;
  Alcotest.(check int) "committed" 12 s.Workload.committed;
  Alcotest.(check bool) "done" true (Workload.done_ wl);
  Alcotest.(check bool) "throughput positive" true
    (Workload.throughput_per_s s > 0.0)

let test_storm_distinct_names () =
  let cluster = mk_cluster () in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  ignore (Workload.storm cluster ~dir ~count:10 ~prefix:"x" ());
  settle cluster;
  match
    Mds.State.list_dir
      (Mds.Store.durable (Node.store (Cluster.node cluster 0)))
      dir
  with
  | Some entries ->
      Alcotest.(check int) "ten entries" 10 (List.length entries);
      Alcotest.(check bool) "prefixed" true
        (List.for_all (fun (n, _) -> String.length n > 1 && n.[0] = 'x') entries)
  | None -> Alcotest.fail "directory disappeared"

let test_closed_loop_mix_invalid () =
  let cluster = mk_cluster () in
  let rng = Simkit.Rng.create ~seed:1 in
  Alcotest.check_raises "empty mix"
    (Invalid_argument "Workload.closed_loop: empty mix") (fun () ->
      ignore
        (Workload.closed_loop cluster ~dirs:[| Cluster.root cluster |]
           ~clients:1 ~ops_per_client:1
           ~mix:
             { Workload.create_weight = 0; delete_weight = 0; rename_weight = 0; lookup_weight = 0 }
           ~rng ()));
  Alcotest.check_raises "no dirs"
    (Invalid_argument "Workload.closed_loop: no dirs") (fun () ->
      ignore
        (Workload.closed_loop cluster ~dirs:[||] ~clients:1 ~ops_per_client:1
           ~rng ()))

let test_closed_loop_only_creates () =
  let cluster = mk_cluster () in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  let rng = Simkit.Rng.create ~seed:2 in
  let wl =
    Workload.closed_loop cluster ~dirs:[| dir |] ~clients:3 ~ops_per_client:7
      ~mix:{ Workload.create_weight = 1; delete_weight = 0; rename_weight = 0; lookup_weight = 0 }
      ~rng ()
  in
  settle cluster;
  let s = Workload.stats wl in
  Alcotest.(check int) "3*7 ops" 21 s.Workload.submitted;
  Alcotest.(check int) "all committed" 21 s.Workload.committed;
  check_invariants cluster

let test_closed_loop_deletes_only_own_files () =
  let cluster = mk_cluster ~seed:3 () in
  let dirs =
    Array.init 2 (fun i ->
        Cluster.add_directory cluster ~parent:(Cluster.root cluster)
          ~name:(Printf.sprintf "d%d" i) ~server:i ())
  in
  let rng = Simkit.Rng.create ~seed:4 in
  let wl =
    Workload.closed_loop cluster ~dirs ~clients:4 ~ops_per_client:20
      ~mix:{ Workload.create_weight = 5; delete_weight = 5; rename_weight = 0; lookup_weight = 0 }
      ~rng ()
  in
  settle cluster;
  let s = Workload.stats wl in
  Alcotest.(check int) "all answered" 80
    (s.Workload.committed + s.Workload.aborted);
  (* Deletes target files the generator created and committed, so
     nothing should abort. *)
  Alcotest.(check int) "no aborts" 0 s.Workload.aborted;
  check_invariants cluster

(* The closed loop's live-name pool against the list it replaced:
   names newest first, [take i] the list's [i]-th element filtered out.
   The same index must give the same name, so one RNG value draws the
   same file from either. Adds, takes and reads of the newest
   interleave, with the mix drawn per case so pools both grow through
   several doublings and drain through repacks. *)
type pool_op = Add of string | Take of int | Newest

let pp_pool_op = function
  | Add n -> "add " ^ n
  | Take r -> "take " ^ string_of_int r
  | Newest -> "newest"

let prop_pool_matches_list =
  let gen =
    let open QCheck2.Gen in
    let* adds = int_range 1 8 in
    list_size (int_bound 500)
      (frequency
         [
           (adds, map (fun i -> Add (string_of_int i)) (int_bound 60));
           (4, map (fun r -> Take r) (int_bound 1_000_000));
           (1, return Newest);
         ])
  in
  QCheck2.Test.make ~name:"pool matches the newest-first list" ~count:300
    ~print:(fun ops -> String.concat "; " (List.map pp_pool_op ops))
    gen
    (fun ops ->
      let pool = Workload.Pool.create () and model = ref [] in
      List.for_all
        (fun op ->
          Workload.Pool.length pool = List.length !model
          &&
          match op with
          | Add n ->
              Workload.Pool.add pool n;
              model := n :: !model;
              true
          | Take _ when !model = [] -> true
          | Take r ->
              let i = r mod List.length !model in
              let want = List.nth !model i in
              model := List.filteri (fun j _ -> j <> i) !model;
              String.equal (Workload.Pool.take pool i) want
          | Newest -> Workload.Pool.newest pool = List.nth_opt !model 0)
        ops
      && Workload.Pool.length pool = List.length !model)

let test_pool_take_range () =
  let pool = Workload.Pool.create () in
  Workload.Pool.add pool "a";
  List.iter
    (fun i ->
      Alcotest.check_raises (Printf.sprintf "take %d" i)
        (Invalid_argument "Workload.Pool.take") (fun () ->
          ignore (Workload.Pool.take pool i)))
    [ -1; 1 ];
  Alcotest.(check string) "take 0" "a" (Workload.Pool.take pool 0);
  Alcotest.(check (option string)) "empty" None (Workload.Pool.newest pool)

(* ------------------------------------------------------------------ *)
(* Batching                                                            *)
(* ------------------------------------------------------------------ *)

let test_plan_merge () =
  let placement =
    Mds.Placement.create ~strategy:Mds.Placement.Spread ~servers:2 ()
  in
  Mds.Placement.assign_root placement 0 ~server:0;
  let st = Mds.State.create () in
  Mds.State.add_root st 0;
  let next = ref 10 in
  let planner =
    Mds.Planner.create ~placement
      ~next_ino:(fun () -> incr next; !next)
      ~lookup:(fun ~server:_ ~dir ~name -> Mds.State.lookup st ~dir ~name)
  in
  let plan name =
    match Mds.Planner.plan planner (Mds.Op.create_file ~parent:0 ~name) with
    | Ok p -> p
    | Error _ -> Alcotest.fail "plan"
  in
  let a = plan "a" and b = plan "b" and c = plan "c" in
  (match Mds.Plan.merge [ a; b; c ] with
  | Some merged ->
      Alcotest.(check int) "coordinator keeps server" 0
        merged.Mds.Plan.coordinator.Mds.Plan.server;
      Alcotest.(check int) "three links"
        3
        (List.length merged.Mds.Plan.coordinator.Mds.Plan.updates);
      Alcotest.(check (list int)) "dir locked once" [ 0 ]
        merged.Mds.Plan.coordinator.Mds.Plan.lock_oids;
      Alcotest.(check int) "one worker (spread, 2 servers)" 1
        (List.length merged.Mds.Plan.workers);
      let w = List.hd merged.Mds.Plan.workers in
      Alcotest.(check int) "three creates at the worker" 3
        (List.length w.Mds.Plan.updates)
  | None -> Alcotest.fail "merge failed");
  Alcotest.(check bool) "empty merge" true (Mds.Plan.merge [] = None)

let test_batching_flush_on_size () =
  let cluster = mk_cluster ~servers:2 () in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  let b = Batching.create cluster ~window:(Simkit.Time.span_s 10) ~max_batch:4 in
  let done_count = ref 0 in
  for i = 0 to 7 do
    Batching.submit b
      (Mds.Op.create_file ~parent:dir ~name:(Printf.sprintf "f%d" i))
      ~on_done:(fun o ->
        (match o with Acp.Txn.Committed -> incr done_count | _ -> ()))
  done;
  settle cluster;
  Alcotest.(check int) "all committed" 8 !done_count;
  let s = Batching.stats b in
  Alcotest.(check int) "two full batches" 2 s.Batching.batches;
  Alcotest.(check int) "all ops batched" 8 s.Batching.batched_ops;
  (* Two merged transactions => far fewer log writes than 8 singles. *)
  Alcotest.(check int) "2 batches x 3 sync writes" 6
    (Metrics.Ledger.get (Cluster.ledger cluster) "log.sync");
  check_invariants cluster

let test_batching_flush_on_window () =
  let cluster = mk_cluster ~servers:2 () in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  let b =
    Batching.create cluster ~window:(Simkit.Time.span_ms 5) ~max_batch:100
  in
  let committed = ref 0 in
  for i = 0 to 2 do
    Batching.submit b
      (Mds.Op.create_file ~parent:dir ~name:(Printf.sprintf "w%d" i))
      ~on_done:(fun o ->
        match o with Acp.Txn.Committed -> incr committed | _ -> ())
  done;
  (* No flush_all: the window timer must fire on its own. Advance the
     clock past the window first — quiescence alone cannot see the
     batcher's buffered operations. *)
  Cluster.run_for cluster (Simkit.Time.span_ms 6);
  settle cluster;
  Alcotest.(check int) "window flushed" 3 !committed;
  Alcotest.(check int) "one batch" 1 (Batching.stats b).Batching.batches

let test_batching_atomic_abort () =
  let cluster = mk_cluster ~servers:2 () in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  (* Two creates of the same name inside one batch: validation fails at
     apply time and the whole batch aborts. *)
  let b = Batching.create cluster ~window:(Simkit.Time.span_s 1) ~max_batch:2 in
  let outcomes = ref [] in
  Batching.submit b (Mds.Op.create_file ~parent:dir ~name:"dup")
    ~on_done:(fun o -> outcomes := o :: !outcomes);
  Batching.submit b (Mds.Op.create_file ~parent:dir ~name:"dup")
    ~on_done:(fun o -> outcomes := o :: !outcomes);
  settle cluster;
  Alcotest.(check int) "both answered" 2 (List.length !outcomes);
  Alcotest.(check bool) "batch aborted atomically" true
    (List.for_all
       (function Acp.Txn.Aborted _ -> true | Acp.Txn.Committed -> false)
       !outcomes);
  Alcotest.(check (option int)) "nothing durable" None
    (Mds.State.lookup
       (Mds.Store.durable (Node.store (Cluster.node cluster 0)))
       ~dir ~name:"dup");
  check_invariants cluster

let test_batching_passthrough () =
  let cluster = mk_cluster ~servers:2 () in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  let b = Batching.create cluster ~window:(Simkit.Time.span_ms 1) ~max_batch:8 in
  let committed = ref 0 in
  let bump = function Acp.Txn.Committed -> incr committed | _ -> () in
  Batching.submit b (Mds.Op.create_file ~parent:dir ~name:"a") ~on_done:bump;
  Cluster.run_for cluster (Simkit.Time.span_ms 2);
  settle cluster;
  (* Renames are never batched; a lone delete flushes as passthrough
     when its window expires. *)
  Batching.submit b (Mds.Op.delete ~parent:dir ~name:"a") ~on_done:bump;
  Cluster.run_for cluster (Simkit.Time.span_ms 2);
  settle cluster;
  Alcotest.(check int) "both ran" 2 !committed;
  let s = Batching.stats b in
  Alcotest.(check int) "no real batch" 0 s.Batching.batches;
  Alcotest.(check int) "both passthrough" 2 s.Batching.passthrough

let test_batching_deletes () =
  let cluster = mk_cluster ~servers:2 () in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  ignore (Workload.storm cluster ~dir ~count:4 ());
  settle cluster;
  let b = Batching.create cluster ~window:(Simkit.Time.span_s 1) ~max_batch:4 in
  let committed = ref 0 in
  for i = 0 to 3 do
    Batching.submit b
      (Mds.Op.delete ~parent:dir ~name:(Printf.sprintf "f%d" i))
      ~on_done:(fun o ->
        match o with Acp.Txn.Committed -> incr committed | _ -> ())
  done;
  settle cluster;
  Alcotest.(check int) "all deleted" 4 !committed;
  Alcotest.(check int) "one batch" 1 (Batching.stats b).Batching.batches;
  let listing =
    Mds.State.list_dir
      (Mds.Store.durable (Node.store (Cluster.node cluster 0)))
      dir
  in
  Alcotest.(check (option (list (pair string int)))) "directory empty"
    (Some []) listing;
  check_invariants cluster

let test_batching_throughput_gain () =
  let single = Experiment.run_batched_point ~count:40 ~batch:1 Acp.Protocol.Opc in
  let batched = Experiment.run_batched_point ~count:40 ~batch:8 Acp.Protocol.Opc in
  Alcotest.(check int) "all committed" 40 batched.Experiment.committed;
  Alcotest.(check bool) "aggregation pays" true
    (batched.Experiment.throughput > 2.0 *. single.Experiment.throughput)

(* ------------------------------------------------------------------ *)
(* Experiment sweeps (smoke)                                           *)
(* ------------------------------------------------------------------ *)

let test_sweep_shapes () =
  let points = Experiment.sweep_disk_bandwidth ~bandwidths:[ 200; 800 ] ~count:10 () in
  Alcotest.(check int) "two points" 2 (List.length points);
  List.iter
    (fun (p : Experiment.sweep_point) ->
      Alcotest.(check int) "series per protocol"
        (List.length Acp.Protocol.all)
        (List.length p.Experiment.series))
    points;
  (* Throughput grows with bandwidth for every protocol. *)
  match points with
  | [ slow; fast ] ->
      List.iter
        (fun k ->
          let s = List.assoc k slow.Experiment.series
          and f = List.assoc k fast.Experiment.series in
          if k = Acp.Protocol.Lp1 then
            (* Logless: no disk in the transaction path at all, so the
               device's bandwidth cannot move the needle. *)
            Alcotest.(check bool) "L1PC disk-independent" true (f = s)
          else
            Alcotest.(check bool)
              (Acp.Protocol.name k ^ " scales with disk")
              true (f > s))
        Acp.Protocol.all
  | _ -> Alcotest.fail "points"

(* ------------------------------------------------------------------ *)
(* Trace replay                                                        *)
(* ------------------------------------------------------------------ *)

let test_parse_script () =
  let text =
    "# a trace\n\
     \n\
     mkdir  /ckpt\n\
     create /ckpt/r0\n\
     rename /ckpt/r0 /ckpt/final\n\
     delete /ckpt/final\n"
  in
  (match Workload.parse_script text with
  | Ok
      [
        Workload.S_mkdir "/ckpt";
        Workload.S_create "/ckpt/r0";
        Workload.S_rename ("/ckpt/r0", "/ckpt/final");
        Workload.S_delete "/ckpt/final";
      ] ->
      ()
  | Ok ops ->
      Alcotest.failf "wrong parse: %a"
        Fmt.(Dump.list Workload.pp_script_op)
        ops
  | Error e -> Alcotest.fail e);
  (match Workload.parse_script "frobnicate /x" with
  | Error msg ->
      Alcotest.(check bool) "names the line" true
        (String.length msg > 0 && String.sub msg 0 6 = "line 1")
  | Ok _ -> Alcotest.fail "junk accepted");
  match Workload.parse_script "create relative/path" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "relative path accepted"

let test_replay_end_to_end () =
  let cluster = mk_cluster () in
  let script =
    match
      Workload.parse_script
        "mkdir /ckpt\n\
         create /ckpt/r0\n\
         create /ckpt/r1\n\
         rename /ckpt/r0 /ckpt/final\n\
         delete /ckpt/r1\n\
         create /nosuchdir/x\n"
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let wl = Workload.replay cluster script in
  settle cluster;
  let s = Workload.stats wl in
  Alcotest.(check int) "six ops" 6 s.Workload.submitted;
  Alcotest.(check int) "five committed" 5 s.Workload.committed;
  Alcotest.(check int) "one unresolved" 1 s.Workload.aborted;
  (* Verify the final namespace: /ckpt contains exactly "final". *)
  let root = Cluster.root cluster in
  let placement = Cluster.placement cluster in
  let state server =
    Mds.Store.durable (Node.store (Cluster.node cluster server))
  in
  let ckpt =
    match
      Mds.State.lookup (state (Mds.Placement.node_of placement root))
        ~dir:root ~name:"ckpt"
    with
    | Some ino -> ino
    | None -> Alcotest.fail "/ckpt missing"
  in
  (match
     Mds.State.list_dir (state (Mds.Placement.node_of placement ckpt)) ckpt
   with
  | Some [ ("final", _) ] -> ()
  | Some entries ->
      Alcotest.failf "wrong contents: %a"
        Fmt.(Dump.list (Dump.pair string int))
        entries
  | None -> Alcotest.fail "ckpt unreadable");
  check_invariants cluster

let test_replay_concurrency () =
  let cluster = mk_cluster () in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  ignore dir;
  let script =
    List.init 12 (fun i -> Workload.S_create (Printf.sprintf "/d/f%d" i))
  in
  let wl = Workload.replay cluster ~concurrency:4 script in
  settle cluster;
  let s = Workload.stats wl in
  Alcotest.(check int) "all committed" 12 s.Workload.committed;
  check_invariants cluster

(* Robustness of the headline result to the sizing calibration: with
   exact encoded record footprints instead of the calibrated constants,
   the protocol ordering and the 1PC gain persist. *)
let test_encoded_sizes_ablation () =
  let config =
    { Experiment.fig6_config with Config.encoded_sizes = true }
  in
  let tp k =
    (Experiment.run_fig6_point ~config ~count:30 k).Experiment.throughput
  in
  let prn = tp Acp.Protocol.Prn and opc = tp Acp.Protocol.Opc in
  Alcotest.(check bool) "ordering survives exact sizes" true (opc > prn);
  Alcotest.(check bool) "gain survives exact sizes" true (opc > 1.3 *. prn)

(* One private device per server: everything speeds up, the ordering
   stays, and fencing-based recovery still works (partitions remain
   remotely readable). *)
let test_independent_disks () =
  let config =
    {
      Experiment.fig6_config with
      Config.san =
        {
          Experiment.fig6_config.Config.san with
          Storage.San.shared_device = false;
        };
    }
  in
  let tp k =
    (Experiment.run_fig6_point ~config ~count:30 k).Experiment.throughput
  in
  let shared k =
    (Experiment.run_fig6_point ~count:30 k).Experiment.throughput
  in
  List.iter
    (fun k ->
      if k = Acp.Protocol.Lp1 then
        (* Logless: no log device anywhere, so the device topology is
           irrelevant — the two runs are identical. *)
        Alcotest.(check bool) "L1PC device-independent" true
          (tp k = shared k)
      else
        Alcotest.(check bool)
          (Acp.Protocol.name k ^ " faster on private devices")
          true
          (tp k > shared k))
    Acp.Protocol.all;
  Alcotest.(check bool) "1PC still fastest" true
    (tp Acp.Protocol.Opc > tp Acp.Protocol.Prn)

let () =
  Alcotest.run "workload"
    [
      ( "generators",
        [
          Alcotest.test_case "storm counts" `Quick test_storm_counts;
          Alcotest.test_case "storm names" `Quick test_storm_distinct_names;
          Alcotest.test_case "closed loop validation" `Quick
            test_closed_loop_mix_invalid;
          Alcotest.test_case "closed loop creates" `Quick
            test_closed_loop_only_creates;
          Alcotest.test_case "closed loop deletes" `Quick
            test_closed_loop_deletes_only_own_files;
          QCheck_alcotest.to_alcotest prop_pool_matches_list;
          Alcotest.test_case "pool take range" `Quick test_pool_take_range;
        ] );
      ( "batching",
        [
          Alcotest.test_case "plan merge" `Quick test_plan_merge;
          Alcotest.test_case "flush on size" `Quick test_batching_flush_on_size;
          Alcotest.test_case "flush on window" `Quick
            test_batching_flush_on_window;
          Alcotest.test_case "atomic abort" `Quick test_batching_atomic_abort;
          Alcotest.test_case "batched deletes" `Quick test_batching_deletes;
          Alcotest.test_case "passthrough" `Quick test_batching_passthrough;
          Alcotest.test_case "throughput gain" `Quick
            test_batching_throughput_gain;
        ] );
      ( "trace replay",
        [
          Alcotest.test_case "parse" `Quick test_parse_script;
          Alcotest.test_case "end to end" `Quick test_replay_end_to_end;
          Alcotest.test_case "concurrency" `Quick test_replay_concurrency;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "sweep shapes" `Quick test_sweep_shapes;
          Alcotest.test_case "encoded sizes ablation" `Quick
            test_encoded_sizes_ablation;
          Alcotest.test_case "independent disks" `Quick
            test_independent_disks;
        ] );
    ]
