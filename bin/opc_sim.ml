(* opc_sim — command-line driver for the One Phase Commit simulator.

   Subcommands:
     run       run a custom workload and print the metrics
     replay    replay a namespace-operation trace file
     trace     print a protocol timeline for one distributed CREATE *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let protocol_conv =
  let parse s =
    match Opc.Acp.Protocol.of_name s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown protocol %S (expected prn, prc, ep, 1pc or l1pc)" s))
  in
  Arg.conv (parse, Opc.Acp.Protocol.pp)

let protocol_arg =
  let doc = "Protocol: prn (2pc), prc, ep, 1pc or l1pc." in
  Arg.(value & opt protocol_conv Opc.Acp.Protocol.Opc & info [ "p"; "protocol" ] ~doc)

let seed_arg =
  let doc = "Random seed (runs are deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let servers_arg =
  let doc = "Metadata servers in the cluster." in
  Arg.(value & opt int 4 & info [ "servers" ] ~doc)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run protocol servers clients ops seed =
  let config =
    {
      Opc.Config.default with
      servers;
      protocol;
      placement = Opc.Mds.Placement.Hash;
      seed;
    }
  in
  let cluster = Opc.Cluster.create config in
  let root = Opc.Cluster.root cluster in
  let dirs =
    Array.init (max 1 (servers / 2)) (fun i ->
        Opc.Cluster.add_directory cluster ~parent:root
          ~name:(Printf.sprintf "dir%d" i) ~server:(i mod servers) ())
  in
  let rng = Opc.Simkit.Rng.create ~seed in
  let wl =
    Opc.Workload.closed_loop cluster ~dirs ~clients ~ops_per_client:ops ~rng
      ()
  in
  (match Opc.Cluster.settle cluster with
  | Opc.Cluster.Quiescent -> ()
  | _ -> failwith "cluster did not settle");
  let stats = Opc.Workload.stats wl in
  Fmt.pr "%a@." Opc.Workload.pp_stats stats;
  Fmt.pr "throughput: %.1f committed ops/s@."
    (Opc.Workload.throughput_per_s stats);
  Opc.Report.print (Opc.Report.collect cluster);
  match Opc.Cluster.check_invariants cluster with
  | [] -> Fmt.pr "invariants: OK@."
  | vs ->
      List.iter
        (fun v -> Fmt.pr "VIOLATION %a@." Opc.Mds.Invariant.pp_violation v)
        vs;
      exit 1

let run_cmd =
  let clients =
    Arg.(value & opt int 8 & info [ "clients" ] ~doc:"Closed-loop clients.")
  in
  let ops =
    Arg.(value & opt int 50 & info [ "ops" ] ~doc:"Operations per client.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a mixed create/delete/rename workload.")
    Term.(const run $ protocol_arg $ servers_arg $ clients $ ops $ seed_arg)

(* ------------------------------------------------------------------ *)
(* replay                                                              *)
(* ------------------------------------------------------------------ *)

let replay protocol servers concurrency file =
  let text =
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Opc.Workload.parse_script text with
  | Error msg ->
      Fmt.epr "%s: %s@." file msg;
      exit 2
  | Ok script ->
      let config =
        {
          Opc.Config.default with
          servers;
          protocol;
          placement = Opc.Mds.Placement.Hash;
        }
      in
      let cluster = Opc.Cluster.create config in
      let wl = Opc.Workload.replay cluster ~concurrency script in
      (match Opc.Cluster.settle cluster with
      | Opc.Cluster.Quiescent -> ()
      | _ -> failwith "replay did not settle");
      Fmt.pr "%a@." Opc.Workload.pp_stats (Opc.Workload.stats wl);
      Opc.Report.print (Opc.Report.collect cluster);
      (match Opc.Cluster.check_invariants cluster with
      | [] -> Fmt.pr "invariants: OK@."
      | vs ->
          List.iter
            (fun v ->
              Fmt.pr "VIOLATION %a@." Opc.Mds.Invariant.pp_violation v)
            vs;
          exit 1)

let replay_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Trace file (one operation per line).")
  in
  let concurrency =
    Arg.(
      value & opt int 1
      & info [ "concurrency" ] ~doc:"Operations kept in flight.")
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a namespace-operation trace file.")
    Term.(const replay $ protocol_arg $ servers_arg $ concurrency $ file)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace protocol =
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
    Opc.Cluster.add_directory cluster ~parent:(Opc.Cluster.root cluster)
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
  List.iter
    (fun (e : Opc.Simkit.Trace.entry) ->
      match e.kind with
      | "send" | "log.force" | "log.append" | "log.durable" | "txn.commit"
      | "txn.abort" ->
          Fmt.pr "%a   %-6s %-12s %s@." Opc.Simkit.Time.pp e.time e.source
            e.kind e.detail
      | _ -> ())
    (Opc.Simkit.Trace.entries (Opc.Cluster.sink cluster).trace)

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print the message/log timeline of one distributed CREATE.")
    Term.(const trace $ protocol_arg)

(* ------------------------------------------------------------------ *)

let main =
  Cmd.group
    (Cmd.info "opc_sim" ~version:"1.0.0"
       ~doc:
         "Simulator for 'One Phase Commit: A Low Overhead Atomic \
          Commitment Protocol for Scalable Metadata Services' (CLUSTER \
          2012).")
    [ run_cmd; replay_cmd; trace_cmd ]

let () = exit (Cmd.eval main)
