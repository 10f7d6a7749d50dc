(* Overload-survival layer: idempotent ingress (replay cache, bounded
   admission, load shedding), open-loop retry-storm workload, and the
   graceful-degradation oracles.

   The qcheck properties pin the two ingress guarantees the paper's
   overload story rests on: a shed request leaves zero MDS state, and a
   replayed idempotency key returns the original reply — physically the
   same value — without re-executing anything. *)

open Opc

let config ?(servers = 2) ~protocol () =
  { Chaos.Runner.regime with servers; protocol }

let make ?servers ?(max_inflight = 2) ?(queue_capacity = 1)
    ?(protocol = Acp.Protocol.Opc) () =
  let cluster = Cluster.create (config ?servers ~protocol ()) in
  let dir =
    Cluster.add_directory cluster ~parent:(Cluster.root cluster) ~name:"d"
      ~server:0 ()
  in
  let ingress = Ingress.create ~max_inflight ~queue_capacity cluster in
  (cluster, dir, ingress)

let durable_dir cluster dir =
  let owner = Mds.Placement.node_of (Cluster.placement cluster) dir in
  Mds.Store.durable (Node.store (Cluster.node cluster owner))

let settle cluster =
  match Cluster.settle cluster with
  | Cluster.Quiescent -> ()
  | _ -> Alcotest.fail "cluster did not settle"

(* ------------------------------------------------------------------ *)
(* Admission control and shedding                                      *)
(* ------------------------------------------------------------------ *)

(* Past max_inflight + queue_capacity, submit answers Busy in the same
   breath — before any planning — and the shed operation leaves no
   durable or volatile trace. *)
let test_shed_is_synchronous_and_stateless () =
  let cluster, dir, ingress = make ~max_inflight:1 ~queue_capacity:1 () in
  let replies = Array.make 3 None in
  for i = 0 to 2 do
    Ingress.submit ingress
      ~key:{ Ingress.client = i; request = 0 }
      (Mds.Op.create_file ~parent:dir ~name:(Printf.sprintf "f%d" i))
      ~on_reply:(fun r -> replies.(i) <- Some r)
  done;
  (* The third submission overflowed both bounds: Busy already, without
     running the engine at all. *)
  Alcotest.(check bool) "shed answered synchronously" true
    (replies.(2) = Some Ingress.Busy);
  Alcotest.(check bool) "admitted not yet answered" true
    (replies.(0) = None && replies.(1) = None);
  settle cluster;
  (match (replies.(0), replies.(1)) with
  | Some (Ingress.Done Acp.Txn.Committed), Some (Ingress.Done Acp.Txn.Committed)
    ->
      ()
  | _ -> Alcotest.fail "admitted requests should commit");
  let durable = durable_dir cluster dir in
  Alcotest.(check bool) "admitted names durable" true
    (Mds.State.lookup durable ~dir ~name:"f0" <> None
    && Mds.State.lookup durable ~dir ~name:"f1" <> None);
  Alcotest.(check (option int)) "shed name absent" None
    (Mds.State.lookup durable ~dir ~name:"f2");
  Alcotest.(check int) "shed key never executed" 0
    (Ingress.executions ingress ~key:{ Ingress.client = 2; request = 0 });
  let s = Ingress.stats ingress in
  Alcotest.(check int) "one shed" 1 s.Ingress.shed;
  Alcotest.(check int) "two executions" 2 s.Ingress.started;
  Alcotest.(check (list string)) "no invariant violations" []
    (List.map
       (fun v -> Fmt.str "%a" Mds.Invariant.pp_violation v)
       (Cluster.check_invariants cluster))

(* Property: whatever the offered burst size and bounds, every reply
   past the two bounds is an immediate Busy, and after settling, the
   durable directory holds exactly the committed (non-shed) names. *)
let prop_shed_busy_and_stateless =
  QCheck2.Test.make ~name:"shed requests: BUSY, zero MDS state" ~count:60
    QCheck2.Gen.(
      triple (int_range 1 4) (int_range 0 3) (int_range 1 12))
    (fun (max_inflight, queue_capacity, burst) ->
      let cluster, dir, ingress = make ~max_inflight ~queue_capacity () in
      let replies = Array.make burst None in
      for i = 0 to burst - 1 do
        Ingress.submit ingress
          ~key:{ Ingress.client = i; request = 0 }
          (Mds.Op.create_file ~parent:dir ~name:(Printf.sprintf "f%d" i))
          ~on_reply:(fun r -> replies.(i) <- Some r)
      done;
      let shed_now =
        Array.to_list replies
        |> List.mapi (fun i r -> (i, r))
        |> List.filter (fun (_, r) -> r = Some Ingress.Busy)
        |> List.map fst
      in
      (* Exactly the overflow was shed, synchronously. *)
      let expected_shed = max 0 (burst - max_inflight - queue_capacity) in
      if List.length shed_now <> expected_shed then false
      else begin
        settle cluster;
        let durable = durable_dir cluster dir in
        Array.for_all
          (fun i ->
            let name = Printf.sprintf "f%d" i in
            let key = { Ingress.client = i; request = 0 } in
            let present = Mds.State.lookup durable ~dir ~name <> None in
            if List.mem i shed_now then
              (* Shed: never executed, never visible. *)
              (not present) && Ingress.executions ingress ~key = 0
            else
              match Ingress.find_reply ingress ~key with
              | Some (Ingress.Done Acp.Txn.Committed) ->
                  present && Ingress.executions ingress ~key = 1
              | Some (Ingress.Done (Acp.Txn.Aborted _)) -> not present
              | _ -> false)
          (Array.init burst Fun.id)
      end)

(* ------------------------------------------------------------------ *)
(* Replay cache                                                        *)
(* ------------------------------------------------------------------ *)

(* Replaying a committed key returns the original reply — physically
   the same value — and never re-executes. *)
let test_replay_returns_original_reply () =
  let cluster, dir, ingress = make () in
  let key = { Ingress.client = 7; request = 3 } in
  let op = Mds.Op.create_file ~parent:dir ~name:"once" in
  let first = ref None in
  Ingress.submit ingress ~key op ~on_reply:(fun r -> first := Some r);
  settle cluster;
  let original =
    match !first with
    | Some r -> r
    | None -> Alcotest.fail "first submission unanswered"
  in
  (* Retried after completion: answered synchronously from the cache. *)
  let replayed = ref None in
  Ingress.submit ingress ~key op ~on_reply:(fun r -> replayed := Some r);
  (match !replayed with
  | Some r ->
      Alcotest.(check bool) "physically the original reply" true
        (r == original)
  | None -> Alcotest.fail "replay was not synchronous");
  Alcotest.(check int) "executed exactly once" 1
    (Ingress.executions ingress ~key);
  Alcotest.(check int) "replay counted" 1
    (Ingress.stats ingress).Ingress.replayed;
  (* A racing retry (same key, still in flight) coalesces instead. *)
  let k2 = { Ingress.client = 7; request = 4 } in
  let op2 = Mds.Op.create_file ~parent:dir ~name:"twice" in
  let a = ref None and b = ref None in
  Ingress.submit ingress ~key:k2 op2 ~on_reply:(fun r -> a := Some r);
  Ingress.submit ingress ~key:k2 op2 ~on_reply:(fun r -> b := Some r);
  settle cluster;
  (match (!a, !b) with
  | Some ra, Some rb ->
      Alcotest.(check bool) "coalesced waiters share the reply" true (ra == rb)
  | _ -> Alcotest.fail "coalesced waiters unanswered");
  Alcotest.(check int) "coalesced executed once" 1
    (Ingress.executions ingress ~key:k2);
  (* Same key with a different operation is a client bug: loud. *)
  match
    Ingress.submit ingress ~key
      (Mds.Op.create_file ~parent:dir ~name:"other")
      ~on_reply:ignore
  with
  | () -> Alcotest.fail "key reuse with a different op must be rejected"
  | exception Invalid_argument _ -> ()

(* Property: across protocols and op mixes, a second submission of any
   completed key is synchronous, physically identical, and leaves the
   execution count at 1. *)
let prop_replay_byte_identical =
  QCheck2.Test.make ~name:"replay cache: original reply, no re-execution"
    ~count:40
    QCheck2.Gen.(
      pair (oneofl Acp.Protocol.all) (int_range 1 6))
    (fun (protocol, n) ->
      let cluster, dir, ingress =
        make ~protocol ~max_inflight:8 ~queue_capacity:8 ()
      in
      let keys = List.init n (fun i -> { Ingress.client = i; request = i }) in
      let ops =
        List.mapi
          (fun i _ -> Mds.Op.create_file ~parent:dir ~name:(Printf.sprintf "r%d" i))
          keys
      in
      List.iter2
        (fun key op -> Ingress.submit ingress ~key op ~on_reply:ignore)
        keys ops;
      settle cluster;
      List.for_all2
        (fun key op ->
          let original =
            match Ingress.find_reply ingress ~key with
            | Some r -> r
            | None -> Alcotest.fail "completed key has no cached reply"
          in
          let got = ref None in
          Ingress.submit ingress ~key op ~on_reply:(fun r -> got := Some r);
          (match !got with Some r -> r == original | None -> false)
          && Ingress.executions ingress ~key = 1)
        keys ops)

(* ------------------------------------------------------------------ *)
(* Open-loop workload determinism                                      *)
(* ------------------------------------------------------------------ *)

let run_open_loop ~seed =
  let cluster, dir, ingress =
    make ~max_inflight:8 ~queue_capacity:8 ()
  in
  let spec =
    {
      Workload.Open_loop.arrival = Workload.Open_loop.Poisson;
      rate_per_s = 300.0;
      duration = Simkit.Time.span_ms 300;
      dirs = [| dir |];
      zipf_s = 1.1;
      policy = Workload.Open_loop.default_policy;
    }
  in
  let ol =
    Workload.Open_loop.run cluster ingress spec
      ~rng:(Simkit.Rng.create ~seed)
  in
  let settled = Workload.Open_loop.settle ol in
  (cluster, ingress, ol, [| dir |], settled)

let test_open_loop_deterministic () =
  let _, ingress1, ol1, _, _ = run_open_loop ~seed:42 in
  let _, ingress2, ol2, _, _ = run_open_loop ~seed:42 in
  let s1 = Workload.Open_loop.stats ol1 in
  let s2 = Workload.Open_loop.stats ol2 in
  Alcotest.(check bool) "same seed, same workload stats" true (s1 = s2);
  Alcotest.(check bool) "same seed, same ingress stats" true
    (Ingress.stats ingress1 = Ingress.stats ingress2);
  Alcotest.(check bool) "workload produced work" true
    (s1.Workload.Open_loop.offered > 0)

let test_open_loop_oracles_pass () =
  let cluster, ingress, ol, dirs, settled = run_open_loop ~seed:7 in
  match
    Chaos.Oracle.check_open_loop cluster ~ingress ~open_loop:ol ~dirs ~settled
  with
  | [] -> ()
  | vs ->
      Alcotest.failf "oracle violations: %a"
        Fmt.(list ~sep:semi Chaos.Oracle.pp_violation)
        vs

(* ------------------------------------------------------------------ *)
(* Overload campaign smoke                                             *)
(* ------------------------------------------------------------------ *)

(* One reference/storm pair per protocol through the full harness:
   every graceful-degradation oracle holds. *)
let test_overload_pair_smoke () =
  List.iter
    (fun protocol ->
      let o =
        Chaos.Overload.execute Chaos.Overload.default_spec ~protocol ~seed:3
      in
      if not (Chaos.Overload.passed o) then
        Alcotest.failf "%a" Chaos.Overload.pp_outcome o;
      (* The storm really was a storm: the open loop retried and the
         ingress shed. *)
      let st = o.Chaos.Overload.storm in
      Alcotest.(check bool) "storm shed work" true
        (st.Chaos.Overload.ingress.Ingress.shed > 0);
      Alcotest.(check bool) "storm amplified retries" true
        (st.Chaos.Overload.stats.Workload.Open_loop.retry_amplification > 1.0))
    Acp.Protocol.all

(* The goodput-floor oracle itself must trip when degradation is not
   graceful — a storm that commits (almost) nothing. *)
let test_goodput_floor_trips () =
  let mk ~committed ~offered =
    {
      Workload.Open_loop.offered;
      resolved = offered;
      committed;
      aborted = 0;
      gave_up = offered - committed;
      busy_replies = 0;
      attempt_timeouts = 0;
      attempts = offered;
      goodput_per_s = float_of_int committed;
      retry_amplification = 1.0;
    }
  in
  (match
     Chaos.Oracle.check_goodput_floor
       ~reference:(mk ~committed:100 ~offered:100)
       ~storm:(mk ~committed:10 ~offered:600)
       ~floor:0.25
   with
  | [ Chaos.Oracle.Goodput_collapse _ ] -> ()
  | _ -> Alcotest.fail "collapse should trip the floor oracle");
  match
    Chaos.Oracle.check_goodput_floor
      ~reference:(mk ~committed:100 ~offered:100)
      ~storm:(mk ~committed:30 ~offered:600)
      ~floor:0.25
  with
  | [] -> ()
  | _ -> Alcotest.fail "30% of reference goodput satisfies a 25% floor"

let () =
  Alcotest.run "overload"
    [
      ( "ingress",
        [
          Alcotest.test_case "shed: synchronous BUSY, zero state" `Quick
            test_shed_is_synchronous_and_stateless;
          Alcotest.test_case "replay: original reply, once" `Quick
            test_replay_returns_original_reply;
          QCheck_alcotest.to_alcotest prop_shed_busy_and_stateless;
          QCheck_alcotest.to_alcotest prop_replay_byte_identical;
        ] );
      ( "open loop",
        [
          Alcotest.test_case "deterministic runs" `Quick
            test_open_loop_deterministic;
          Alcotest.test_case "oracles pass fault-free" `Quick
            test_open_loop_oracles_pass;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "reference/storm pair per protocol" `Slow
            test_overload_pair_smoke;
          Alcotest.test_case "goodput floor trips on collapse" `Quick
            test_goodput_floor_trips;
        ] );
    ]
