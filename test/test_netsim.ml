(* Tests for the network model and the heartbeat failure detector. *)

open Opc.Simkit
open Opc.Netsim

let make ?(config = Network.default_config) () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:1 in
  let net : string Network.t = Network.create ~engine ~rng config in
  (engine, net)

let test_latency () =
  let engine, net = make () in
  let got = ref [] in
  let a =
    Network.register net ~name:"a" (fun _ -> Alcotest.fail "a gets nothing")
  in
  let b =
    Network.register net ~name:"b" (fun env ->
        got := (env.Network.payload, Time.to_ns (Engine.now engine)) :: !got)
  in
  Network.send net ~src:a ~dst:b "hello";
  ignore (Engine.run engine);
  Alcotest.(check (list (pair string int)))
    "delivered at exactly 100us"
    [ ("hello", 100_000) ]
    (List.rev !got);
  let stats = Network.stats net in
  Alcotest.(check int) "sent" 1 stats.Network.sent;
  Alcotest.(check int) "delivered" 1 stats.Network.delivered

let test_envelope_fields () =
  let engine, net = make () in
  let seen = ref None in
  let a = Network.register net ~name:"a" (fun _ -> ()) in
  let b = Network.register net ~name:"b" (fun env -> seen := Some env) in
  ignore
    (Engine.schedule engine ~after:(Time.span_us 7) (fun () ->
         Network.send net ~src:a ~dst:b "payload"));
  ignore (Engine.run engine);
  match !seen with
  | None -> Alcotest.fail "no delivery"
  | Some env ->
      Alcotest.(check string) "src" "a" (Address.name env.Network.src);
      Alcotest.(check string) "dst" "b" (Address.name env.Network.dst);
      Alcotest.(check int) "sent_at" 7_000 (Time.to_ns env.Network.sent_at);
      Alcotest.(check string) "payload" "payload" env.Network.payload

(* Messages on one link never overtake each other: every copy arrives
   one latency after its send, and same-instant copies keep their send
   order. Sends and multicasts interleave on the same links, rounds
   overlap in flight, and duplicates arrive right behind their
   originals. *)
let test_fifo_links () =
  let config =
    { Network.default_config with Network.duplicate_probability = 0.5 }
  in
  let engine, net = make ~config () in
  let got = Hashtbl.create 4 in
  let receiver name =
    Network.register net ~name (fun env ->
        let prev = Option.value (Hashtbl.find_opt got name) ~default:[] in
        Hashtbl.replace got name (env.Network.payload :: prev))
  in
  let a = Network.register net ~name:"a" (fun _ -> ()) in
  let b = receiver "b" and c = receiver "c" in
  let sent_to = Hashtbl.create 4 in
  let note dst payload =
    let prev = Option.value (Hashtbl.find_opt sent_to dst) ~default:[] in
    Hashtbl.replace sent_to dst (payload :: prev)
  in
  for round = 0 to 2 do
    ignore
      (Engine.schedule engine
         ~after:(Time.span_us (40 * round))
         (fun () ->
           for i = 0 to 19 do
             let payload = Printf.sprintf "%d.%d" round i in
             if i mod 3 = 0 then begin
               Network.multicast net ~src:a ~dsts:[| b; c |] payload;
               note "b" payload;
               note "c" payload
             end
             else begin
               Network.send net ~src:a ~dst:b payload;
               note "b" payload
             end
           done))
  done;
  ignore (Engine.run engine);
  (* A duplicate sits right behind its original: dropping repeats of the
     previous arrival must leave the send order. *)
  let rec squash = function
    | x :: (y :: _ as rest) when String.equal x y -> squash rest
    | x :: rest -> x :: squash rest
    | [] -> []
  in
  List.iter
    (fun dst ->
      let arrived = List.rev (Hashtbl.find got dst) in
      Alcotest.(check (list string))
        (dst ^ ": same-link messages never reorder")
        (List.rev (Hashtbl.find sent_to dst))
        (squash arrived))
    [ "b"; "c" ];
  Alcotest.(check bool) "duplicates were exercised" true
    ((Network.stats net).Network.duplicated > 0)

let test_down_drops () =
  let engine, net = make () in
  let got = ref 0 in
  let a = Network.register net ~name:"a" (fun _ -> ()) in
  let b = Network.register net ~name:"b" (fun _ -> incr got) in
  Network.set_down net b;
  Network.send net ~src:a ~dst:b "x";
  Network.set_up net b;
  (* Crash the destination while a message is in flight. *)
  Network.send net ~src:a ~dst:b "y";
  ignore
    (Engine.schedule engine ~after:(Time.span_us 50) (fun () ->
         Network.set_down net b));
  (* A down source cannot send. *)
  Network.set_down net a;
  Network.send net ~src:a ~dst:b "z";
  ignore (Engine.run engine);
  Alcotest.(check int) "nothing delivered" 0 !got;
  let stats = Network.stats net in
  Alcotest.(check int) "down drops" 3 stats.Network.dropped_down

let test_partition () =
  let engine, net = make () in
  let got = ref [] in
  let a = Network.register net ~name:"a" (fun _ -> ()) in
  let b =
    Network.register net ~name:"b" (fun env ->
        got := env.Network.payload :: !got)
  in
  Alcotest.(check bool) "reachable before" true (Network.reachable net a b);
  Network.partition net [ a ] [ b ];
  Alcotest.(check bool) "cut" false (Network.reachable net a b);
  Network.send net ~src:a ~dst:b "lost";
  ignore (Engine.run engine);
  Alcotest.(check (list string)) "partitioned drop" [] !got;
  Network.heal net;
  Alcotest.(check bool) "healed reachability" true (Network.reachable net a b);
  Network.send net ~src:a ~dst:b "through";
  ignore (Engine.run engine);
  Alcotest.(check (list string)) "healed" [ "through" ] !got;
  let stats = Network.stats net in
  Alcotest.(check int) "partition drops" 1 stats.Network.dropped_partition

let test_heal_pair () =
  let engine, net = make () in
  let got = ref [] in
  let a = Network.register net ~name:"a" (fun _ -> ()) in
  let b =
    Network.register net ~name:"b" (fun env ->
        got := env.Network.payload :: !got)
  in
  let c = Network.register net ~name:"c" (fun _ -> ()) in
  Network.partition net [ a ] [ b; c ];
  Network.heal_pair net a b;
  Alcotest.(check bool) "a-b healed" true (Network.reachable net a b);
  Alcotest.(check bool) "a-c still cut" false (Network.reachable net a c);
  Network.send net ~src:a ~dst:b "m";
  ignore (Engine.run engine);
  Alcotest.(check (list string)) "delivered" [ "m" ] !got

let test_partition_in_flight () =
  let engine, net = make () in
  let got = ref 0 in
  let a = Network.register net ~name:"a" (fun _ -> ()) in
  let b = Network.register net ~name:"b" (fun _ -> incr got) in
  Network.send net ~src:a ~dst:b "x";
  ignore
    (Engine.schedule engine ~after:(Time.span_us 10) (fun () ->
         Network.partition net [ a ] [ b ]));
  ignore (Engine.run engine);
  Alcotest.(check int) "cut mid-flight" 0 !got

let test_loss () =
  let config =
    { Network.default_config with Network.drop_probability = 0.5 }
  in
  let engine, net = make ~config () in
  let got = ref 0 in
  let a = Network.register net ~name:"a" (fun _ -> ()) in
  let b = Network.register net ~name:"b" (fun _ -> incr got) in
  for _ = 1 to 1000 do
    Network.send net ~src:a ~dst:b "m"
  done;
  ignore (Engine.run engine);
  if !got < 350 || !got > 650 then
    Alcotest.failf "loss rate implausible: %d/1000 delivered" !got;
  let stats = Network.stats net in
  Alcotest.(check int) "conservation" 1000
    (stats.Network.delivered + stats.Network.dropped_loss)

let test_duplication () =
  let config =
    { Network.default_config with Network.duplicate_probability = 0.5 }
  in
  let engine, net = make ~config () in
  let got = ref 0 in
  let a = Network.register net ~name:"a" (fun _ -> ()) in
  let b = Network.register net ~name:"b" (fun _ -> incr got) in
  for _ = 1 to 500 do
    Network.send net ~src:a ~dst:b "m"
  done;
  ignore (Engine.run engine);
  let stats = Network.stats net in
  Alcotest.(check int) "deliveries = sent + duplicates"
    (stats.Network.sent + stats.Network.duplicated)
    !got;
  if stats.Network.duplicated < 150 || stats.Network.duplicated > 350 then
    Alcotest.failf "duplication rate implausible: %d/500"
      stats.Network.duplicated

let test_self_send () =
  let engine, net = make () in
  let got = ref 0 in
  let a = Network.register net ~name:"a" (fun _ -> incr got) in
  Network.send net ~src:a ~dst:a "self";
  ignore (Engine.run engine);
  Alcotest.(check int) "self delivery" 1 !got

let test_in_flight_count () =
  let engine, net = make () in
  let a = Network.register net ~name:"a" (fun _ -> ()) in
  let b = Network.register net ~name:"b" (fun _ -> ()) in
  Network.send net ~src:a ~dst:b "1";
  Network.send net ~src:a ~dst:b "2";
  Alcotest.(check int) "in flight" 2 (Network.in_flight net);
  ignore (Engine.run engine);
  Alcotest.(check int) "drained" 0 (Network.in_flight net)

let test_endpoints () =
  let _, net = make () in
  let a = Network.register net ~name:"a" (fun _ -> ()) in
  let b = Network.register net ~name:"b" (fun _ -> ()) in
  Alcotest.(check (list string))
    "registration order" [ "a"; "b" ]
    (List.map Address.name (Network.endpoints net));
  Alcotest.(check int) "indices" 0 (Address.index a);
  Alcotest.(check int) "indices" 1 (Address.index b);
  Alcotest.(check bool) "distinct" false (Address.equal a b);
  Alcotest.(check bool) "address_at 1" true
    (Address.equal b (Network.address_at net 1));
  List.iter
    (fun i ->
      Alcotest.check_raises
        (Printf.sprintf "address_at %d" i)
        (Invalid_argument "Network.address_at: no such endpoint") (fun () ->
          ignore (Network.address_at net i)))
    [ -1; 2 ]

(* ------------------------------------------------------------------ *)
(* Failure detector                                                    *)
(* ------------------------------------------------------------------ *)

let mk_addr net name = Network.register net ~name (fun _ -> ())

let test_detector_suspects_silent_peer () =
  let engine, net = make () in
  let p = mk_addr net "p" in
  let suspected = ref [] in
  let d =
    Failure_detector.create ~engine ~timeout:(Time.span_ms 100) ~peers:[ p ]
      ~on_suspect:(fun a -> suspected := Address.name a :: !suspected)
      ()
  in
  Failure_detector.start d;
  ignore (Engine.run ~until:(Time.of_ns 50_000_000) engine);
  Alcotest.(check (list string)) "not yet" [] !suspected;
  Alcotest.(check bool) "not suspected" false
    (Failure_detector.is_suspected d p);
  ignore (Engine.run ~until:(Time.of_ns 300_000_000) engine);
  Alcotest.(check (list string)) "suspected once" [ "p" ] !suspected;
  Alcotest.(check bool) "flag" true (Failure_detector.is_suspected d p);
  Alcotest.(check int) "listed" 1 (List.length (Failure_detector.suspected d));
  Failure_detector.stop d;
  ignore (Engine.run engine)

let test_detector_heartbeats_keep_alive () =
  let engine, net = make () in
  let p = mk_addr net "p" in
  let suspected = ref 0 in
  let d =
    Failure_detector.create ~engine ~timeout:(Time.span_ms 100) ~peers:[ p ]
      ~on_suspect:(fun _ -> incr suspected)
      ()
  in
  Failure_detector.start d;
  for i = 1 to 20 do
    ignore
      (Engine.schedule_at engine
         ~at:(Time.of_ns (i * 50_000_000))
         (fun () -> Failure_detector.heard_from d p))
  done;
  ignore (Engine.run ~until:(Time.of_ns 1_000_000_000) engine);
  Alcotest.(check int) "never suspected" 0 !suspected;
  Failure_detector.stop d;
  ignore (Engine.run engine)

let test_detector_recovers () =
  let engine, net = make () in
  let p = mk_addr net "p" in
  let events = ref [] in
  let d =
    Failure_detector.create ~engine ~timeout:(Time.span_ms 100) ~peers:[ p ]
      ~on_suspect:(fun _ -> events := "suspect" :: !events)
      ~on_alive:(fun _ -> events := "alive" :: !events)
      ()
  in
  Failure_detector.start d;
  ignore
    (Engine.schedule_at engine ~at:(Time.of_ns 300_000_000) (fun () ->
         Failure_detector.heard_from d p));
  (* Stop before the renewed silence after 300 ms would trip the
     detector again. *)
  ignore (Engine.run ~until:(Time.of_ns 350_000_000) engine);
  Alcotest.(check (list string))
    "edge-triggered both ways" [ "suspect"; "alive" ]
    (List.rev !events);
  Alcotest.(check bool) "alive again" false
    (Failure_detector.is_suspected d p);
  Failure_detector.stop d;
  ignore (Engine.run engine)

let test_detector_stop_is_quiet () =
  let engine, net = make () in
  let p = mk_addr net "p" in
  let suspected = ref 0 in
  let d =
    Failure_detector.create ~engine ~timeout:(Time.span_ms 10) ~peers:[ p ]
      ~on_suspect:(fun _ -> incr suspected)
      ()
  in
  Failure_detector.start d;
  Failure_detector.stop d;
  ignore (Engine.run ~until:(Time.of_ns 100_000_000) engine);
  Alcotest.(check int) "no callbacks after stop" 0 !suspected

let test_detector_unknown_peer () =
  let engine, net = make () in
  let p = mk_addr net "p" in
  let q = mk_addr net "q" in
  let d =
    Failure_detector.create ~engine ~timeout:(Time.span_ms 10) ~peers:[ p ]
      ~on_suspect:(fun _ -> ())
      ()
  in
  (* Unknown peers are ignored, not added. *)
  Failure_detector.heard_from d q;
  Alcotest.(check bool) "unknown never suspected" false
    (Failure_detector.is_suspected d q)

(* The list-and-record detector that the flat-table one replaced, kept
   as the model: a list of peer records in [create] order, found by
   index through an option array. *)
module Reference_detector = struct
  type peer_state = {
    address : Address.t;
    mutable last_heard : Time.t;
    mutable suspected : bool;
  }

  type t = {
    engine : Engine.t;
    timeout : Time.span;
    sweep_interval : Time.span;
    peers : peer_state list;
    by_index : peer_state option array;
    on_suspect : Address.t -> unit;
    on_alive : Address.t -> unit;
    mutable running : bool;
    mutable sweep : Engine.handle option;
  }

  let create ~engine ~timeout ?sweep_interval ~peers ~on_suspect
      ?(on_alive = fun _ -> ()) () =
    let sweep_interval =
      match sweep_interval with
      | Some s -> s
      | None -> Time.span_ns (max 1 (Time.span_to_ns timeout / 4))
    in
    let now = Engine.now engine in
    let peers =
      List.map
        (fun address -> { address; last_heard = now; suspected = false })
        peers
    in
    let max_index =
      List.fold_left (fun m p -> max m (Address.index p.address)) (-1) peers
    in
    let by_index = Array.make (max_index + 1) None in
    List.iter (fun p -> by_index.(Address.index p.address) <- Some p) peers;
    {
      engine;
      timeout;
      sweep_interval;
      peers;
      by_index;
      on_suspect;
      on_alive;
      running = false;
      sweep = None;
    }

  let find t a =
    let i = Address.index a in
    if i < 0 || i >= Array.length t.by_index then None else t.by_index.(i)

  let check_peer t now p =
    if (not p.suspected) && Time.( >= ) now (Time.add p.last_heard t.timeout)
    then begin
      p.suspected <- true;
      t.on_suspect p.address
    end

  let rec arm t =
    let h =
      Engine.schedule t.engine ~after:t.sweep_interval (fun () ->
          if t.running then begin
            List.iter (check_peer t (Engine.now t.engine)) t.peers;
            arm t
          end)
    in
    t.sweep <- Some h

  let start t =
    if not t.running then begin
      t.running <- true;
      arm t
    end

  let stop t =
    if t.running then begin
      t.running <- false;
      Option.iter Engine.cancel t.sweep;
      t.sweep <- None
    end

  let heard_from t a =
    match find t a with
    | None -> ()
    | Some p ->
        p.last_heard <- Engine.now t.engine;
        if p.suspected then begin
          p.suspected <- false;
          t.on_alive p.address
        end

  let is_suspected t a =
    match find t a with None -> false | Some p -> p.suspected

  let suspected t =
    List.filter_map
      (fun p -> if p.suspected then Some p.address else None)
      t.peers

  let suspected_count t =
    List.fold_left (fun acc p -> if p.suspected then acc + 1 else acc) 0 t.peers
end

type detector_step =
  | Heard of int  (* endpoint index: a peer or not *)
  | Advance of int  (* ns; the timeout is 100 µs *)
  | Stop_detector
  | Start_detector

type detector_scenario = {
  endpoints : int;
  members : int list;  (* distinct endpoint indices, in [create] order *)
  sweep_us : int option;  (* None: the default, timeout / 4 *)
  steps : detector_step list;
}

let detector_print sc =
  let ints l = String.concat ";" (List.map string_of_int l) in
  let step = function
    | Heard i -> Printf.sprintf "heard %d" i
    | Advance ns -> Printf.sprintf "+%dns" ns
    | Stop_detector -> "stop"
    | Start_detector -> "start"
  in
  Printf.sprintf "endpoints %d, peers [%s], sweep %s, steps [%s]"
    sc.endpoints (ints sc.members)
    (match sc.sweep_us with Some us -> string_of_int us | None -> "default")
    (String.concat "; " (List.map step sc.steps))

(* Peer sets skip indices at random, so the tables have gaps and
   endpoints past the highest peer. Clock jumps reach three timeouts;
   nudges of a nanosecond either way move traffic and sweeps off each
   other's microsecond grid, so sweeps land one nanosecond either side of
   a deadline. *)
let detector_gen =
  let open QCheck2.Gen in
  let* endpoints = int_range 1 10 in
  let* picks = list_repeat endpoints bool in
  let chosen =
    List.concat (List.mapi (fun i p -> if p then [ i ] else []) picks)
  in
  let* members = shuffle_l chosen
  and* sweep_us = option (int_range 1 100)
  and* steps =
    list_size (int_range 1 40)
      (frequency
         [
           (5, map (fun i -> Heard i) (int_bound (endpoints - 1)));
           (4, map (fun us -> Advance (us * 1_000)) (int_bound 300));
           (1, map (fun ns -> Advance ns) (oneofl [ 1; 999 ]));
           (1, return Stop_detector);
           (1, return Start_detector);
         ])
  in
  return { endpoints; members; sweep_us; steps }

(* The operations both detectors offer, so one script drives either. *)
type detector_ops = {
  start : unit -> unit;
  stop : unit -> unit;
  heard : Address.t -> unit;
  is_suspected : Address.t -> bool;
  suspected : unit -> Address.t list;
  suspected_count : unit -> int;
}

let flat_detector ~engine ~timeout ~sweep_interval ~peers ~on_suspect
    ~on_alive =
  let d =
    Failure_detector.create ~engine ~timeout ?sweep_interval ~peers
      ~on_suspect ~on_alive ()
  in
  {
    start = (fun () -> Failure_detector.start d);
    stop = (fun () -> Failure_detector.stop d);
    heard = Failure_detector.heard_from d;
    is_suspected = Failure_detector.is_suspected d;
    suspected = (fun () -> Failure_detector.suspected d);
    suspected_count = (fun () -> Failure_detector.suspected_count d);
  }

let reference_detector ~engine ~timeout ~sweep_interval ~peers ~on_suspect
    ~on_alive =
  let module R = Reference_detector in
  let d =
    R.create ~engine ~timeout ?sweep_interval ~peers ~on_suspect ~on_alive ()
  in
  {
    start = (fun () -> R.start d);
    stop = (fun () -> R.stop d);
    heard = R.heard_from d;
    is_suspected = R.is_suspected d;
    suspected = (fun () -> R.suspected d);
    suspected_count = (fun () -> R.suspected_count d);
  }

(* The callback log (kind, instant, index, name) and, after every step,
   the suspected list, its count and [is_suspected] of every endpoint. *)
let run_detector sc detector =
  let engine, net = make () in
  let addrs =
    Array.init sc.endpoints (fun i -> mk_addr net (string_of_int i))
  in
  let log = ref [] in
  let note kind a =
    log :=
      (kind, Time.to_ns (Engine.now engine), Address.index a, Address.name a)
      :: !log
  in
  let d =
    detector ~engine ~timeout:(Time.span_us 100)
      ~sweep_interval:(Option.map Time.span_us sc.sweep_us)
      ~peers:(List.map (fun i -> addrs.(i)) sc.members)
      ~on_suspect:(note "suspect") ~on_alive:(note "alive")
  in
  let observe () =
    ( List.map Address.index (d.suspected ()),
      d.suspected_count (),
      Array.map d.is_suspected addrs )
  in
  d.start ();
  let seen =
    List.map
      (fun step ->
        (match step with
        | Heard i -> d.heard addrs.(i)
        | Advance ns ->
            let until = Time.to_ns (Engine.now engine) + ns in
            ignore (Engine.run ~until:(Time.of_ns until) engine)
        | Stop_detector -> d.stop ()
        | Start_detector -> d.start ());
        observe ())
      sc.steps
  in
  (List.rev !log, seen)

let prop_detector_matches_reference =
  QCheck2.Test.make ~name:"flat detector matches the list-and-record model"
    ~count:500 ~print:detector_print detector_gen (fun sc ->
      run_detector sc flat_detector = run_detector sc reference_detector)

(* ------------------------------------------------------------------ *)
(* Message-conservation meter                                          *)
(* ------------------------------------------------------------------ *)

(* One metered fabric under loss, duplication, a downed receiver and a
   message parked in flight: the ledger must satisfy
   sent = delivered + dup_delivered + dropped + in_flight exactly, and
   flag any tag where it does not. *)
let test_meter_conservation () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:7 in
  let meter = Network.Meter.create ~tags:2 in
  let tag_of s = if String.length s > 0 && s.[0] = 'b' then 1 else 0 in
  let config =
    { Network.default_config with duplicate_probability = 0.5 }
  in
  let net : string Network.t =
    Network.create ~engine ~rng ~tag_of ~meter config
  in
  let a = Network.register net ~name:"a" (fun _ -> ()) in
  let b = Network.register net ~name:"b" (fun _ -> ()) in
  for _ = 1 to 20 do
    Network.send net ~src:a ~dst:b "apple";
    Network.send net ~src:b ~dst:a "banana"
  done;
  ignore (Engine.run engine);
  (* Copies cut in flight are drops; sends into a cut are refusals
     (never accepted, so outside the sent-side of the law). *)
  Network.send net ~src:a ~dst:b "apple";
  Network.partition net [ a ] [ b ];
  for _ = 1 to 5 do
    Network.send net ~src:a ~dst:b "apple"
  done;
  ignore (Engine.run engine);
  Network.heal net;
  (* Leave one message in flight at the end of the run. *)
  Network.send net ~src:a ~dst:b "apple";
  Alcotest.(check (list (pair int int)))
    "conservation holds on every tag" []
    (Network.Meter.check meter);
  Alcotest.(check bool) "message parked in flight" true
    (Network.Meter.in_flight meter 0 >= 1);
  Alcotest.(check bool) "in-flight copies died at the cut" true
    (Network.Meter.dropped meter 0 >= 1);
  Alcotest.(check int) "sends into the cut were refused" 5
    (Network.Meter.rejected meter 0);
  let sent0 = Network.Meter.sent meter 0 in
  Alcotest.(check bool) "duplicates counted as extra copies" true
    (sent0 > 22);
  Alcotest.(check int)
    "imbalance is the law's residual"
    (sent0
    - (Network.Meter.delivered meter 0
      + Network.Meter.dup_delivered meter 0
      + Network.Meter.dropped meter 0
      + Network.Meter.in_flight meter 0))
    (Network.Meter.imbalance meter 0);
  ignore (Engine.run engine);
  Alcotest.(check int) "drained" 0 (Network.Meter.in_flight meter 0)

let test_meter_disabled () =
  let m = Network.Meter.disabled () in
  Alcotest.(check bool) "not recording" false (Network.Meter.is_recording m);
  Alcotest.(check int) "no tags" 0 (Network.Meter.tags m);
  Alcotest.(check (list (pair int int))) "vacuously balanced" []
    (Network.Meter.check m)

(* ------------------------------------------------------------------ *)
(* Multicast against per-destination sends                             *)
(* ------------------------------------------------------------------ *)

(* A fault flipped by an event, possibly while casts are in flight. *)
type flip = Toggle_up of int | Toggle_cut of int * int

type twin_scenario = {
  endpoints : int;
  drop : float;
  dup : float;
  seed : int;
  down : int list;  (* down from the start *)
  cuts : (int * int) list;  (* cut from the start *)
  casts : (int * int * int list) list;  (* (at µs, src, dsts) *)
  flips : (int * flip) list;  (* (at µs, fault) *)
}

let twin_print sc =
  let ints l = String.concat ";" (List.map string_of_int l) in
  let pair (a, b) = Printf.sprintf "(%d,%d)" a b in
  let flip = function
    | Toggle_up i -> Printf.sprintf "up %d" i
    | Toggle_cut (i, j) -> Printf.sprintf "cut %d-%d" i j
  in
  Printf.sprintf
    "endpoints %d, drop %.1f, dup %.1f, seed %d, down [%s], cuts [%s], \
     casts [%s], flips [%s]"
    sc.endpoints sc.drop sc.dup sc.seed (ints sc.down)
    (String.concat ";" (List.map pair sc.cuts))
    (String.concat ";"
       (List.map
          (fun (at, src, dsts) ->
            Printf.sprintf "%d: %d->[%s]" at src (ints dsts))
          sc.casts))
    (String.concat ";"
       (List.map (fun (at, f) -> Printf.sprintf "%d: %s" at (flip f)) sc.flips))

(* Casts go out in the first 300 µs and take 100 µs, so flips drawn
   from the first 400 µs land before, among and after deliveries. *)
let twin_gen =
  let open QCheck2.Gen in
  let* endpoints = int_range 2 8 in
  let node = int_bound (endpoints - 1) in
  let* drop = oneofl [ 0.0; 0.3 ]
  and* dup = oneofl [ 0.0; 0.3 ]
  and* seed = int_bound 1_000_000
  and* down = list_size (int_bound 2) node
  and* cuts = list_size (int_bound 3) (pair node node)
  and* casts =
    list_size (int_range 1 8)
      (triple (int_bound 300) node (list_size (int_bound 9) node))
  and* flips =
    list_size (int_bound 6)
      (pair (int_bound 400)
         (oneof
            [
              map (fun i -> Toggle_up i) node;
              map2 (fun i j -> Toggle_cut (i, j)) node node;
            ]))
  in
  return { endpoints; drop; dup; seed; down; cuts; casts; flips }

(* Everything a caller can read off one run: the delivery log (instant,
   src, dst, payload, in order), [stats], every meter counter and the
   next draw of the RNG. The counters are read mid-flight too. *)
let run_twin sc ~multicast =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:sc.seed in
  let meter = Network.Meter.create ~tags:2 in
  let config =
    {
      Network.default_config with
      drop_probability = sc.drop;
      duplicate_probability = sc.dup;
    }
  in
  let net : int Network.t =
    Network.create ~engine ~rng ~tag_of:(fun p -> p land 1) ~meter config
  in
  let log = ref [] in
  let addrs =
    Array.init sc.endpoints (fun i ->
        Network.register net ~name:(string_of_int i) (fun env ->
            log :=
              ( Time.to_ns (Engine.now engine),
                Address.index env.Network.src,
                Address.index env.Network.dst,
                env.Network.payload )
              :: !log))
  in
  List.iter (fun i -> Network.set_down net addrs.(i)) sc.down;
  List.iter
    (fun (i, j) -> Network.partition net [ addrs.(i) ] [ addrs.(j) ])
    sc.cuts;
  let at_us us = Time.of_ns (us * 1_000) in
  List.iter
    (fun (us, flip) ->
      ignore
        (Engine.schedule_at engine ~at:(at_us us) (fun () ->
             match flip with
             | Toggle_up i ->
                 let a = addrs.(i) in
                 if Network.is_up net a then Network.set_down net a
                 else Network.set_up net a
             | Toggle_cut (i, j) ->
                 let a = addrs.(i) and b = addrs.(j) in
                 if Network.reachable net a b then
                   Network.partition net [ a ] [ b ]
                 else Network.heal_pair net a b)))
    sc.flips;
  List.iteri
    (fun payload (us, src, dsts) ->
      let src = addrs.(src) in
      let dsts = Array.of_list (List.map (fun i -> addrs.(i)) dsts) in
      ignore
        (Engine.schedule_at engine ~at:(at_us us) (fun () ->
             if multicast then Network.multicast net ~src ~dsts payload
             else
               Array.iter
                 (fun dst -> Network.send net ~src ~dst payload)
                 dsts)))
    sc.casts;
  let books () =
    ( Network.stats net,
      Network.in_flight net,
      List.init 2 (fun tag ->
          Network.Meter.
            [
              sent meter tag;
              delivered meter tag;
              dup_delivered meter tag;
              dropped meter tag;
              rejected meter tag;
              in_flight meter tag;
            ]),
      Network.Meter.check meter )
  in
  ignore (Engine.run ~until:(at_us 250) engine);
  let mid = books () in
  ignore (Engine.run engine);
  (List.rev !log, mid, books (), Rng.bits64 rng)

let prop_multicast_matches_sends =
  QCheck2.Test.make ~name:"multicast matches per-destination sends"
    ~count:300 ~print:twin_print twin_gen (fun sc ->
      let ((_, (_, _, _, mid_check), (_, _, _, end_check), _) as cast) =
        run_twin sc ~multicast:true
      in
      cast = run_twin sc ~multicast:false && mid_check = [] && end_check = [])

let () =
  Alcotest.run "netsim"
    [
      ( "network",
        [
          Alcotest.test_case "latency" `Quick test_latency;
          Alcotest.test_case "envelope" `Quick test_envelope_fields;
          Alcotest.test_case "fifo links" `Quick test_fifo_links;
          Alcotest.test_case "down drops" `Quick test_down_drops;
          Alcotest.test_case "partition" `Quick test_partition;
          Alcotest.test_case "heal pair" `Quick test_heal_pair;
          Alcotest.test_case "partition in flight" `Quick
            test_partition_in_flight;
          Alcotest.test_case "loss" `Quick test_loss;
          Alcotest.test_case "duplication" `Quick test_duplication;
          Alcotest.test_case "self send" `Quick test_self_send;
          Alcotest.test_case "in flight count" `Quick test_in_flight_count;
          Alcotest.test_case "endpoints" `Quick test_endpoints;
          QCheck_alcotest.to_alcotest prop_multicast_matches_sends;
        ] );
      ( "meter",
        [
          Alcotest.test_case "conservation law" `Quick
            test_meter_conservation;
          Alcotest.test_case "disabled is inert" `Quick test_meter_disabled;
        ] );
      ( "failure detector",
        [
          Alcotest.test_case "suspects silent peer" `Quick
            test_detector_suspects_silent_peer;
          Alcotest.test_case "heartbeats keep alive" `Quick
            test_detector_heartbeats_keep_alive;
          Alcotest.test_case "recovers" `Quick test_detector_recovers;
          Alcotest.test_case "stop is quiet" `Quick test_detector_stop_is_quiet;
          Alcotest.test_case "unknown peer" `Quick test_detector_unknown_peer;
          QCheck_alcotest.to_alcotest prop_detector_matches_reference;
        ] );
    ]
