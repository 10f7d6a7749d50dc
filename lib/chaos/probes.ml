(* Directed coverage probes: deterministic conflict scenarios for the
   edges random campaigns cannot reach. See the interface for the
   reasoning behind each shape. *)

type outcome = {
  edge_hits : int array;
  settled : bool;
  conserved : bool;
}

let base kind =
  {
    Opc_cluster.Config.default with
    servers = 4;
    protocol = kind;
    placement = Mds.Placement.Spread;
    record_coverage = true;
  }

let settled cluster =
  match Opc_cluster.Cluster.settle cluster with
  | Opc_cluster.Cluster.Quiescent -> true
  | Deadline_exceeded | Stuck -> false

let finish cluster ~settled:ok =
  {
    edge_hits =
      Array.copy
        (Obs.Coverage.counts (Opc_cluster.Cluster.sink cluster).coverage);
    settled = ok;
    conserved =
      Obs.Meter.check (Opc_cluster.Cluster.sink cluster).meter = [];
  }

(* Two directories on distinct servers, [n] files in the source — the
   stage every probe races its conflicts on. *)
let stage cluster ~n =
  let root = Opc_cluster.Cluster.root cluster in
  let d1 =
    Opc_cluster.Cluster.add_directory cluster ~parent:root ~name:"src"
      ~server:1 ()
  in
  let d2 =
    Opc_cluster.Cluster.add_directory cluster ~parent:root ~name:"dst"
      ~server:2 ()
  in
  for i = 0 to n - 1 do
    Opc_cluster.Cluster.submit cluster
      (Mds.Op.create_file ~parent:d1 ~name:(Printf.sprintf "x%d" i))
      ~on_done:(fun _ -> ())
  done;
  let ok = settled cluster in
  (d1, d2, ok)

(* Submit CREATE(d2/y_i) and RENAME(d1/x_i -> d2/y_i) in the same
   instant: both plan against a state where y_i is absent; the create
   commits under the d2 directory lock first, so the rename's remote
   worker fails the dentry add and votes NO. *)
let race cluster ~d1 ~d2 ~n =
  for i = 0 to n - 1 do
    Opc_cluster.Cluster.submit cluster
      (Mds.Op.create_file ~parent:d2 ~name:(Printf.sprintf "y%d" i))
      ~on_done:(fun _ -> ());
    Opc_cluster.Cluster.submit cluster
      (Mds.Op.rename ~src_dir:d1 ~src_name:(Printf.sprintf "x%d" i)
         ~dst_dir:d2 ~dst_name:(Printf.sprintf "y%d" i))
      ~on_done:(fun _ -> ())
  done

let conflict kind =
  let cluster = Opc_cluster.Cluster.create (base kind) in
  let d1, d2, ok = stage cluster ~n:8 in
  race cluster ~d1 ~d2 ~n:8;
  finish cluster ~settled:(ok && settled cluster)

let tombstone_config ~ttl ~cap =
  {
    (base Acp.Protocol.Opc) with
    Opc_cluster.Config.resend_interval = Some (Simkit.Time.span_us 500);
    max_soft_retries = 1000;
    tombstone_ttl = Some ttl;
    tombstone_cap = cap;
  }

let tombstone_ttl () =
  let cluster =
    Opc_cluster.Cluster.create
      (tombstone_config ~ttl:(Simkit.Time.span_us 100) ~cap:64)
  in
  let d1, d2, ok = stage cluster ~n:8 in
  race cluster ~d1 ~d2 ~n:8;
  let ok = ok && settled cluster in
  (* Second wave: its UPDATE_REQ arrivals run the lazy GC over the
     first wave's long-expired tombstones. *)
  let root = Opc_cluster.Cluster.root cluster in
  let d3 =
    Opc_cluster.Cluster.add_directory cluster ~parent:root ~name:"src2"
      ~server:1 ()
  in
  for i = 0 to 7 do
    Opc_cluster.Cluster.submit cluster
      (Mds.Op.create_file ~parent:d3 ~name:(Printf.sprintf "w%d" i))
      ~on_done:(fun _ -> ())
  done;
  let ok = ok && settled cluster in
  for i = 0 to 7 do
    Opc_cluster.Cluster.submit cluster
      (Mds.Op.create_file ~parent:d2 ~name:(Printf.sprintf "v%d" i))
      ~on_done:(fun _ -> ());
    Opc_cluster.Cluster.submit cluster
      (Mds.Op.rename ~src_dir:d3 ~src_name:(Printf.sprintf "w%d" i)
         ~dst_dir:d2 ~dst_name:(Printf.sprintf "v%d" i))
      ~on_done:(fun _ -> ())
  done;
  finish cluster ~settled:(ok && settled cluster)

let tombstone_cap () =
  let cluster =
    Opc_cluster.Cluster.create
      (tombstone_config ~ttl:(Simkit.Time.span_ms 10_000) ~cap:1)
  in
  let d1, d2, ok = stage cluster ~n:8 in
  race cluster ~d1 ~d2 ~n:8;
  finish cluster ~settled:(ok && settled cluster)

let stale_config () =
  {
    (base Acp.Protocol.Opc) with
    Opc_cluster.Config.resend_interval = Some (Simkit.Time.span_ms 2);
    max_soft_retries = 1000;
    detector_timeout = Simkit.Time.span_ms 10_000;
    heartbeat_interval = Simkit.Time.span_ms 1_000;
    tombstone_ttl = Some (Simkit.Time.span_us 100);
    tombstone_cap = 64;
  }

let stale_slice_us = 500

(* One conflict pair; [probe] fires once the stage is set. Shared by
   the calibration twin and the real run so both see the exact same
   event sequence up to the cut. *)
let stale_run probe =
  let cluster = Opc_cluster.Cluster.create (stale_config ()) in
  let d1, d2, ok = stage cluster ~n:4 in
  race cluster ~d1 ~d2 ~n:4;
  probe cluster ~staged_ok:ok

(* Calibration twin: step in small slices until the worker's NO vote
   lands in the tombstone ledger, and report the slice floor — an
   instant at which the UPDATE_REQ is across but the vote has not
   left. *)
let calibrate_cut_us () =
  stale_run (fun cluster ~staged_ok:_ ->
      let ledger = Opc_cluster.Cluster.ledger cluster in
      let slice = ref 0 in
      let found = ref None in
      while !found = None && !slice < 4000 do
        incr slice;
        Opc_cluster.Cluster.run_for cluster
          (Simkit.Time.span_us stale_slice_us);
        if Metrics.Ledger.get ledger "acp.tombstone.add" > 0 then
          found := Some ((!slice - 1) * stale_slice_us)
      done;
      !found)

let stale_replay () =
  match calibrate_cut_us () with
  | None ->
      (* No conflict reached a 1PC worker at all: report the empty
         outcome rather than guessing a cut point. *)
      stale_run (fun cluster ~staged_ok ->
          finish cluster ~settled:(staged_ok && settled cluster))
  | Some cut_us ->
      stale_run (fun cluster ~staged_ok ->
          Opc_cluster.Cluster.run_for cluster (Simkit.Time.span_us cut_us);
          Opc_cluster.Cluster.partition cluster [ 1 ] [ 2 ];
          Opc_cluster.Cluster.run_for cluster (Simkit.Time.span_ms 25);
          Opc_cluster.Cluster.heal cluster;
          finish cluster ~settled:(staged_ok && settled cluster))

let all () =
  List.map
    (fun kind ->
      (Printf.sprintf "conflict-%s" (Acp.Protocol.name kind), conflict kind))
    Acp.Protocol.all
  @ [
      ("tombstone-ttl", tombstone_ttl ());
      ("tombstone-cap", tombstone_cap ());
      ("stale-replay", stale_replay ());
    ]
