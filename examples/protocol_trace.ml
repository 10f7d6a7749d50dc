(* Annotated message/log timelines of all four protocols for a single
   distributed CREATE — the executable version of the paper's Figures
   2-5. Shows exactly which messages cross the wire and which log writes
   are forced, in simulated time order.

   Run with: dune exec examples/protocol_trace.exe *)

let interesting (e : Opc.Simkit.Trace.entry) =
  match e.kind with
  | "send" | "log.force" | "log.append" | "log.durable" | "txn.commit"
  | "txn.abort" | "txn.start" ->
      true
  | _ -> false

let () =
  List.iter
    (fun protocol ->
      Fmt.pr "=== %s: one distributed CREATE (coordinator mds0, worker \
              mds1) ===@."
        (Opc.Acp.Protocol.name protocol);
      let config =
        {
          Opc.Config.default with
          servers = 2;
          protocol;
          placement = Opc.Mds.Placement.Spread;
          record_trace = true;
        }
      in
      let cluster = Opc.Cluster.create config in
      let dir =
        Opc.Cluster.add_directory cluster
          ~parent:(Opc.Cluster.root cluster)
          ~name:"d" ~server:0 ()
      in
      Opc.Cluster.submit cluster
        (Opc.Mds.Op.create_file ~parent:dir ~name:"file1")
        ~on_done:(fun outcome ->
          Fmt.pr "%a   client <- %a@." Opc.Simkit.Time.pp
            (Opc.Cluster.now cluster)
            Opc.Acp.Txn.pp_outcome outcome);
      (match Opc.Cluster.settle cluster with
      | Opc.Cluster.Quiescent -> ()
      | _ -> failwith "did not settle");
      Opc.Simkit.Timeline.print ~keep:interesting ~column_width:34
        (Opc.Cluster.sink cluster).trace;
      let ledger = Opc.Cluster.ledger cluster in
      Fmt.pr
        "totals: %d sync log writes, %d async, %d protocol messages (%d \
         beyond the baseline round trip)@.@."
        (Opc.Metrics.Ledger.get ledger "log.sync")
        (Opc.Metrics.Ledger.get ledger "log.async")
        (Opc.Metrics.Ledger.get ledger "msg.total")
        (Opc.Metrics.Ledger.get ledger "msg.acp"))
    Opc.Acp.Protocol.all
