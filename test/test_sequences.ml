(* The paper's Figures 2-5 as assertions: for one failure-free
   distributed CREATE, each protocol must exchange exactly the depicted
   message sequence and issue exactly the depicted log writes, in
   order. *)

open Opc

let first_word s =
  match String.index_opt s ' ' with
  | Some i -> String.sub s 0 i
  | None -> s

(* Run one CREATE under [protocol]; return (message names in delivery
   order, (source, sync?) log writes in issue order). *)
let observe protocol =
  let config =
    {
      Config.default with
      servers = 2;
      protocol;
      placement = Mds.Placement.Spread;
      record_trace = true;
    }
  in
  let cluster = Cluster.create config in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  let outcome = ref None in
  Cluster.submit cluster
    (Mds.Op.create_file ~parent:dir ~name:"file1")
    ~on_done:(fun o -> outcome := Some o);
  (match Cluster.settle cluster with
  | Cluster.Quiescent -> ()
  | _ -> Alcotest.fail "did not settle");
  (match !outcome with
  | Some Acp.Txn.Committed -> ()
  | _ -> Alcotest.fail "expected commit");
  let entries = Simkit.Trace.entries (Cluster.sink cluster).trace in
  let messages =
    List.filter_map
      (fun (e : Simkit.Trace.entry) ->
        if e.kind = "send" then Some (first_word e.detail) else None)
      entries
  in
  let writes =
    List.filter_map
      (fun (e : Simkit.Trace.entry) ->
        match e.kind with
        | "log.force" -> Some (e.source, `Sync)
        | "log.append" -> Some (e.source, `Async)
        | _ -> None)
      entries
  in
  (messages, writes)

let msg_list = Alcotest.(list string)

let write_list =
  Alcotest.(
    list
      (pair string
         (Alcotest.testable
            (fun ppf -> function
              | `Sync -> Fmt.string ppf "sync"
              | `Async -> Fmt.string ppf "async")
            ( = ))))

(* Figure 2. *)
let test_prn_sequence () =
  let messages, writes = observe Acp.Protocol.Prn in
  Alcotest.check msg_list "PrN messages"
    [ "UPDATE_REQ"; "UPDATED"; "PREPARE"; "PREPARED"; "COMMIT"; "ACK" ]
    messages;
  Alcotest.check write_list "PrN log writes"
    [
      ("mds0", `Sync) (* STARTED *);
      ("mds0", `Sync) (* own updates + PREPARED *);
      ("mds1", `Sync) (* worker updates + PREPARED *);
      ("mds0", `Sync) (* COMMITTED *);
      ("mds1", `Sync) (* worker COMMITTED *);
      ("mds0", `Async) (* ENDED *);
    ]
    writes

(* Figure 3. *)
let test_prc_sequence () =
  let messages, writes = observe Acp.Protocol.Prc in
  Alcotest.check msg_list "PrC messages"
    [ "UPDATE_REQ"; "UPDATED"; "PREPARE"; "PREPARED"; "COMMIT" ]
    messages;
  Alcotest.check write_list "PrC log writes"
    [
      ("mds0", `Sync);
      ("mds0", `Sync);
      ("mds1", `Sync);
      ("mds0", `Sync);
      ("mds1", `Async) (* worker COMMITTED, asynchronous *);
    ]
    writes

(* Figure 4: PREPARE rides on the update request, UPDATED is the vote. *)
let test_ep_sequence () =
  let messages, writes = observe Acp.Protocol.Ep in
  Alcotest.check msg_list "EP messages"
    [ "UPDATE_REQ"; "UPDATED"; "COMMIT" ]
    messages;
  Alcotest.check write_list "EP log writes"
    [
      ("mds0", `Sync);
      ("mds0", `Sync);
      ("mds1", `Sync);
      ("mds0", `Sync);
      ("mds1", `Async);
    ]
    writes

(* Figure 5: no voting phase at all; the only extra message is ACK. *)
let test_opc_sequence () =
  let messages, writes = observe Acp.Protocol.Opc in
  Alcotest.check msg_list "1PC messages"
    [ "UPDATE_REQ"; "UPDATED"; "ACK" ]
    messages;
  Alcotest.check write_list "1PC log writes"
    [
      ("mds0", `Sync) (* STARTED + REDO, one force *);
      ("mds1", `Sync) (* worker updates + COMMITTED *);
      ("mds0", `Sync) (* own updates + COMMITTED, off the client path *);
      ("mds1", `Async) (* ENDED *);
    ]
    writes

(* The reply-point difference of Figure 3's caption: PrC answers the
   client before the worker commits; PrN only after the ACK; 1PC as soon
   as the worker's UPDATED arrives. *)
let reply_latency protocol =
  let config =
    {
      Config.default with
      servers = 2;
      protocol;
      placement = Mds.Placement.Spread;
    }
  in
  let cluster = Cluster.create config in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  let at = ref Simkit.Time.zero in
  Cluster.submit cluster
    (Mds.Op.create_file ~parent:dir ~name:"f")
    ~on_done:(fun _ -> at := Cluster.now cluster);
  (match Cluster.settle cluster with
  | Cluster.Quiescent -> ()
  | _ -> Alcotest.fail "did not settle");
  Simkit.Time.to_ns !at

let test_reply_points () =
  let prn = reply_latency Acp.Protocol.Prn in
  let prc = reply_latency Acp.Protocol.Prc in
  let ep = reply_latency Acp.Protocol.Ep in
  let opc = reply_latency Acp.Protocol.Opc in
  Alcotest.(check bool) "PrC replies before PrN" true (prc < prn);
  Alcotest.(check bool) "EP no slower than PrC" true (ep <= prc);
  Alcotest.(check bool) "1PC replies first" true
    (opc < ep && opc < prc && opc < prn)

let () =
  Alcotest.run "sequences"
    [
      ( "figures 2-5",
        [
          Alcotest.test_case "PrN (fig 2)" `Quick test_prn_sequence;
          Alcotest.test_case "PrC (fig 3)" `Quick test_prc_sequence;
          Alcotest.test_case "EP (fig 4)" `Quick test_ep_sequence;
          Alcotest.test_case "1PC (fig 5)" `Quick test_opc_sequence;
          Alcotest.test_case "reply points" `Quick test_reply_points;
        ] );
    ]
