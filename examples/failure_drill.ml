(* Failure drill: watch the 1PC protocol survive the failure cases of
   §III-C, narrated from the event trace.

   Scene 1 — worker crash mid-transaction: the coordinator times out,
   fences the worker (STONITH through the SAN), reads its log partition
   and decides from what it finds.

   Scene 2 — network partition (split brain): both servers are alive but
   cannot talk; the coordinator must NOT trust its timeout alone, so it
   fences (power-cycling a healthy machine!) before touching the log.

   Scene 3 — coordinator crash after the worker committed: recovery
   re-executes the transaction from the REDO record; the worker
   recognises the duplicate and the client still gets exactly one
   committed reply.

   Run with: dune exec examples/failure_drill.exe *)

open Opc

let drill_config =
  {
    Config.default with
    servers = 2;
    protocol = Acp.Protocol.Opc;
    placement = Mds.Placement.Spread;
    txn_timeout = Simkit.Time.span_ms 300;
    heartbeat_interval = Simkit.Time.span_ms 20;
    detector_timeout = Simkit.Time.span_ms 100;
    restart_delay = Simkit.Time.span_ms 50;
    auto_restart = true;
    record_trace = true;
  }

let narrate cluster =
  let keep (e : Simkit.Trace.entry) =
    match e.kind with
    | "send" | "txn.commit" | "txn.abort" | "txn.fence" | "txn.recover"
    | "node.crash" | "node.restart" | "fence" | "detector" ->
        true
    | _ -> false
  in
  List.iter
    (fun (e : Simkit.Trace.entry) ->
      if keep e then
        Fmt.pr "  %a %-6s %-12s %s@." Simkit.Time.pp e.time e.source e.kind
          e.detail)
    (Simkit.Trace.entries (Cluster.sink cluster).trace)

let run_scene ~title ~faults =
  Fmt.pr "@.--- %s ---@." title;
  let cluster = Cluster.create drill_config in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  let outcome = ref None in
  Cluster.submit cluster
    (Mds.Op.create_file ~parent:dir ~name:"file1")
    ~on_done:(fun o -> outcome := Some o);
  faults cluster;
  (match Cluster.settle cluster with
  | Cluster.Quiescent -> ()
  | _ -> failwith "drill did not settle");
  narrate cluster;
  (match !outcome with
  | Some o -> Fmt.pr "  => client reply: %a@." Acp.Txn.pp_outcome o
  | None -> failwith "no reply");
  (match Cluster.check_invariants cluster with
  | [] -> Fmt.pr "  => namespace invariants: OK@."
  | vs ->
      List.iter
        (fun v -> Fmt.pr "  => VIOLATION %a@." Mds.Invariant.pp_violation v)
        vs;
      exit 1)

let () =
  run_scene ~title:"Scene 1: worker crashes mid-transaction"
    ~faults:(fun cluster ->
      Fault.crash_at cluster ~server:1 ~at:(Simkit.Time.of_ns 15_000_000));
  run_scene ~title:"Scene 2: network partition (split brain)"
    ~faults:(fun cluster ->
      Fault.partition_at cluster ~left:[ 0 ] ~right:[ 1 ]
        ~at:(Simkit.Time.of_ns 12_000_000);
      Fault.heal_at cluster ~at:(Simkit.Time.of_ns 1_500_000_000));
  run_scene ~title:"Scene 3: coordinator crashes after the worker committed"
    ~faults:(fun cluster ->
      Fault.crash_at cluster ~server:0 ~at:(Simkit.Time.of_ns 25_000_000))
