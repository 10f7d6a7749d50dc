(* Unit and property tests for the discrete-event kernel. *)

open Opc.Simkit

let span = Alcotest.testable Time.pp_span (fun a b -> Time.compare_span a b = 0)
let time = Alcotest.testable Time.pp Time.equal

(* ------------------------------------------------------------------ *)
(* Time                                                                *)
(* ------------------------------------------------------------------ *)

let test_time_units () =
  Alcotest.(check int) "us" 1_000 (Time.span_to_ns (Time.span_us 1));
  Alcotest.(check int) "ms" 1_000_000 (Time.span_to_ns (Time.span_ms 1));
  Alcotest.(check int) "s" 1_000_000_000 (Time.span_to_ns (Time.span_s 1));
  Alcotest.check span "float roundtrip" (Time.span_ms 1500)
    (Time.span_of_float_s 1.5)

let test_time_arithmetic () =
  let t = Time.add Time.zero (Time.span_us 5) in
  Alcotest.check time "add" (Time.of_ns 5_000) t;
  Alcotest.check span "diff" (Time.span_us 5) (Time.diff t Time.zero);
  Alcotest.check span "sub_span" (Time.span_us 3)
    (Time.sub_span (Time.span_us 5) (Time.span_us 2));
  Alcotest.check span "mul" (Time.span_us 15) (Time.mul_span (Time.span_us 5) 3)

let test_time_invalid () =
  Alcotest.check_raises "negative ns" (Invalid_argument "Time.of_ns: negative")
    (fun () -> ignore (Time.of_ns (-1)));
  Alcotest.check_raises "diff underflow"
    (Invalid_argument "Time.diff: later < earlier") (fun () ->
      ignore (Time.diff Time.zero (Time.of_ns 1)));
  Alcotest.check_raises "sub underflow"
    (Invalid_argument "Time.sub_span: underflow") (fun () ->
      ignore (Time.sub_span (Time.span_ns 1) (Time.span_ns 2)))

let test_time_pp () =
  let str t = Fmt.str "%a" Time.pp_span t in
  Alcotest.(check string) "zero" "0s" (str Time.zero_span);
  Alcotest.(check string) "ns" "42ns" (str (Time.span_ns 42));
  Alcotest.(check bool) "us unit" true
    (String.length (str (Time.span_us 3)) > 0)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  let draws r = List.init 50 (fun _ -> Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (draws a) (draws b);
  let c = Rng.create ~seed:8 in
  Alcotest.(check bool) "different seed differs" true (draws a <> draws c)

let test_rng_split () =
  let parent = Rng.create ~seed:3 in
  let child = Rng.split parent in
  let a = List.init 20 (fun _ -> Rng.int parent 100) in
  let b = List.init 20 (fun _ -> Rng.int child 100) in
  Alcotest.(check bool) "streams differ" true (a <> b)

let test_rng_bounds () =
  let r = Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "int out of bounds";
    let w = Rng.int_in r (-5) 5 in
    if w < -5 || w > 5 then Alcotest.fail "int_in out of bounds";
    let f = Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "float out of bounds"
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound <= 0")
    (fun () -> ignore (Rng.int r 0))

let test_rng_bernoulli () =
  let r = Rng.create ~seed:13 in
  Alcotest.(check bool) "p=0" false (Rng.bernoulli r 0.0);
  Alcotest.(check bool) "p=1" true (Rng.bernoulli r 1.0);
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. 10_000.0 in
  if rate < 0.25 || rate > 0.35 then
    Alcotest.failf "bernoulli(0.3) rate off: %.3f" rate

let test_rng_exponential () =
  let r = Rng.create ~seed:17 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.exponential r ~mean:5.0 in
    if v < 0.0 then Alcotest.fail "negative exponential";
    total := !total +. v
  done;
  let mean = !total /. float_of_int n in
  if mean < 4.6 || mean > 5.4 then
    Alcotest.failf "exponential mean off: %.3f" mean

let test_rng_zipf () =
  let r = Rng.create ~seed:19 in
  let counts = Array.make 10 0 in
  for _ = 1 to 20_000 do
    let v = Rng.zipf r ~n:10 ~s:1.0 in
    if v < 0 || v >= 10 then Alcotest.fail "zipf out of bounds";
    counts.(v) <- counts.(v) + 1
  done;
  (* Rank 0 must dominate rank 9 by roughly n^s. *)
  if counts.(0) <= 3 * counts.(9) then
    Alcotest.failf "zipf not skewed: %d vs %d" counts.(0) counts.(9);
  (* s = 0 is uniform. *)
  let r = Rng.create ~seed:23 in
  let c2 = Array.make 4 0 in
  for _ = 1 to 8_000 do
    let v = Rng.zipf r ~n:4 ~s:0.0 in
    c2.(v) <- c2.(v) + 1
  done;
  Array.iter
    (fun c -> if c < 1_600 || c > 2_400 then Alcotest.fail "zipf(0) not uniform")
    c2

let test_rng_shuffle_pick () =
  let r = Rng.create ~seed:29 in
  let a = Array.init 30 Fun.id in
  Rng.shuffle r a;
  Alcotest.(check (list int))
    "permutation" (List.init 30 Fun.id)
    (List.sort Int.compare (Array.to_list a));
  let v = Rng.pick r a in
  Alcotest.(check bool) "pick member" true (Array.exists (( = ) v) a);
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick r [||]))

(* The first 10,000 draws of each kind from a fresh generator, as one
   digest per (seed, kind). The bound 3 * 2^60 rejects about a quarter
   of the raw draws, so the rejection loop is in the stream too. The
   expected digests were recorded from the boxed-[int64] generator that
   preceded the current representation: the stream must never move. *)
let rng_stream_digests r_of_seed seed =
  let digest draw =
    let r = r_of_seed seed and b = Buffer.create (1 lsl 17) in
    for _ = 1 to 10_000 do
      draw r b
    done;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  [
    digest (fun r b -> Printf.bprintf b "%d," (Rng.int r 1000));
    digest (fun r b -> Printf.bprintf b "%d," (Rng.int r (3 lsl 60)));
    digest (fun r b -> Printf.bprintf b "%h," (Rng.float r 1.0));
    digest (fun r b -> Printf.bprintf b "%Lx," (Rng.bits64 r));
    digest (fun r b -> Printf.bprintf b "%b," (Rng.bool r));
  ]

let test_rng_stream_golden () =
  let fresh seed = Rng.create ~seed in
  let child seed = Rng.split (Rng.create ~seed) in
  let got =
    List.concat_map (rng_stream_digests fresh) [ 0; 1; 7; -3 ]
    @ rng_stream_digests child 5
  in
  Alcotest.(check (list string)) "streams"
    [
      (* seed 0: int 1000, int 3*2^60, float, bits64, bool *)
      "c437b37346919a693ad71d428f065ae9";
      "a54ee93eac98e2e388ca336cb3eca03b";
      "e353a388b01aade28c5a187bde71fe35";
      "4a0ae7b42d84954751efb82d3cc8a161";
      "76ab96af1fd1c894a4a12053faa9410a";
      (* seed 1: int 1000, int 3*2^60, float, bits64, bool *)
      "22ed8ccdbc4606a25a1cff07fd27bd60";
      "d16b68ef36525eca6b63c42be33ba27e";
      "25b6ac7bfb0aab6fda4ae4709132f543";
      "fea6e8c8883fa924c2787249eda85271";
      "bed0eb859fb2ff457ff3f31afc1ae02b";
      (* seed 7: int 1000, int 3*2^60, float, bits64, bool *)
      "6fba97d23237a16629129de75b9d1311";
      "a425ea3c60ad4723ff6281eabdc0724c";
      "927f5d935402a5a7270c45c2ca4c50ff";
      "36219446bb569e0cbe143fdfefa483a4";
      "6939d17ded3501f7749ee7bdc6ddd82f";
      (* seed -3: int 1000, int 3*2^60, float, bits64, bool *)
      "8ea36b839369ea6122f71e7cadec4e13";
      "2f124dd00131ebf3dd5e052d5c300069";
      "14f8b416fd952a7839585dc0b421dd2d";
      "761b3bde8a4ba91d637bc351a91b56a8";
      "88b7424bcd1b1bd53d8bc1f722f267f6";
      (* split child of seed 5: int 1000, int 3*2^60, float, bits64, bool *)
      "35ca5122ccc62fffd666e9399d4676fa";
      "e6e6e7d8a8867af2b949284bf77b6872";
      "9639c3bcca1d8a7b6d2c2931accd9f89";
      "98ae0c388a88a8ac327594a4cd5cf0f8";
      "9e7543d86f135b2c4f4bb3945351fb4c";
    ]
    got

(* The generator keeps its state unboxed, so the draws the workloads
   make per operation allocate nothing. *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.create ~seed:31 in
  let sink = ref 0 in
  let words0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    sink := !sink + Rng.int r (1 + i) + Rng.int r (3 lsl 60);
    if Rng.bool r then incr sink
  done;
  let words = Gc.minor_words () -. words0 in
  ignore (Sys.opaque_identity !sink);
  if words > 100.0 then
    Alcotest.failf "%.0f words for 30,000 draws (limit 100)" words

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  let record tag () = log := (tag, Time.to_ns (Engine.now e)) :: !log in
  ignore (Engine.schedule e ~after:(Time.span_us 3) (record "c"));
  ignore (Engine.schedule e ~after:(Time.span_us 1) (record "a"));
  ignore (Engine.schedule e ~after:(Time.span_us 2) (record "b"));
  Alcotest.(check int) "pending" 3 (Engine.pending e);
  let outcome = Engine.run e in
  Alcotest.(check bool) "drained" true (outcome = Engine.Drained);
  Alcotest.(check (list (pair string int)))
    "order and clock"
    [ ("a", 1_000); ("b", 2_000); ("c", 3_000) ]
    (List.rev !log);
  Alcotest.(check int) "dispatched" 3 (Engine.dispatched e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore
      (Engine.schedule e ~after:(Time.span_us 5) (fun () ->
           log := i :: !log))
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "FIFO among equal stamps" (List.init 10 Fun.id)
    (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~after:(Time.span_us 1) (fun () -> fired := true) in
  Alcotest.(check bool) "pending before" true (Engine.is_pending e h);
  Engine.cancel e h;
  Engine.cancel e h;
  Alcotest.(check bool) "pending after" false (Engine.is_pending e h);
  Alcotest.(check int) "pending count" 0 (Engine.pending e);
  ignore (Engine.run e);
  Alcotest.(check bool) "never fired" false !fired

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~after:(Time.span_us 1) (fun () -> fired := 1 :: !fired));
  ignore (Engine.schedule e ~after:(Time.span_us 10) (fun () -> fired := 10 :: !fired));
  let outcome = Engine.run ~until:(Time.of_ns 5_000) e in
  Alcotest.(check bool) "reached until" true (outcome = Engine.Reached_until);
  Alcotest.(check (list int)) "only early event" [ 1 ] (List.rev !fired);
  Alcotest.check time "clock at until" (Time.of_ns 5_000) (Engine.now e);
  (* Resume. *)
  ignore (Engine.run e);
  Alcotest.(check (list int)) "rest ran" [ 1; 10 ] (List.rev !fired)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~after:(Time.span_us 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule e ~after:(Time.span_us 1) (fun () ->
                log := "inner" :: !log))));
  ignore (Engine.run e);
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.check time "clock" (Time.of_ns 2_000) (Engine.now e)

let test_engine_defer () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~after:(Time.span_us 1) (fun () ->
         log := "a" :: !log;
         ignore (Engine.defer e (fun () -> log := "deferred" :: !log));
         log := "b" :: !log));
  ignore (Engine.run e);
  Alcotest.(check (list string))
    "defer runs after current event, same instant" [ "a"; "b"; "deferred" ]
    (List.rev !log);
  Alcotest.check time "no time passed" (Time.of_ns 1_000) (Engine.now e)

let test_engine_max_events () =
  let e = Engine.create () in
  for _ = 1 to 5 do
    ignore (Engine.schedule e ~after:Time.zero_span (fun () -> ()))
  done;
  let outcome = Engine.run ~max_events:3 e in
  Alcotest.(check bool) "limited" true (outcome = Engine.Reached_limit);
  Alcotest.(check int) "remaining" 2 (Engine.pending e)

let test_engine_past_raises () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:(Time.span_us 5) (fun () -> ()));
  ignore (Engine.run e);
  Alcotest.check_raises "past"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      ignore (Engine.schedule_at e ~at:Time.zero (fun () -> ())))

let test_engine_event_failure () =
  let e = Engine.create () in
  ignore
    (Engine.schedule e ~label:(Label.v Other "boom") ~after:Time.zero_span
       (fun () -> failwith "kaput"));
  match Engine.run e with
  | exception Engine.Event_failure (label, _) ->
      Alcotest.(check string) "label" "boom" label
  | _ -> Alcotest.fail "expected Event_failure"

let prop_engine_monotone_clock =
  QCheck2.Test.make ~name:"dispatch times are monotone" ~count:100
    QCheck2.Gen.(list (int_bound 10_000))
    (fun delays ->
      let e = Engine.create () in
      let stamps = ref [] in
      List.iter
        (fun d ->
          ignore
            (Engine.schedule e ~after:(Time.span_ns d) (fun () ->
                 stamps := Time.to_ns (Engine.now e) :: !stamps)))
        delays;
      ignore (Engine.run e);
      let s = List.rev !stamps in
      List.sort Int.compare s = s && List.length s = List.length delays)

(* The engine's published determinism contract: equal-time events run in
   scheduling order. Delays are drawn from a tiny range so most runs
   have many exact collisions. *)
let prop_engine_fifo_ties =
  QCheck2.Test.make ~name:"equal-time events dispatch FIFO" ~count:200
    QCheck2.Gen.(list (int_bound 3))
    (fun delays ->
      let e = Engine.create () in
      let order = ref [] in
      List.iteri
        (fun i d ->
          ignore
            (Engine.schedule e ~after:(Time.span_ns d) (fun () ->
                 order := (d, i) :: !order)))
        delays;
      ignore (Engine.run e);
      let ran = List.rev !order in
      let expected =
        List.mapi (fun i d -> (d, i)) delays
        |> List.sort (fun (da, ia) (db, ib) ->
               let c = Int.compare da db in
               if c <> 0 then c else Int.compare ia ib)
      in
      ran = expected)

(* Model test for the event queue: random interleavings of scheduling
   (with timestamp ties and same-instant bursts, which the engine queues
   as runs, and batches), cancellation, stepping and bounded runs,
   checked against a sorted-list reference after every operation. The
   reference expands a batch into its members, one id each. *)
type engine_op =
  | Sched of int  (** [schedule ~after] *)
  | Sched_at of int  (** [schedule_at], [now + d] *)
  | Burst of int * int  (** [n] back-to-back [Sched_at d] *)
  | Batch of int * int
      (** [schedule_batch] of [n] members at [now + d]: to the
          reference, [Burst (n, d)] whose ids share one handle *)
  | Batch_canceller of int * int * int
      (** as [Batch (n, d)]; its second member (its only one if
          [n = 1]) cancels the [k]-th handle created up to the batch
          (mod their count + 1), the last being the batch's own *)
  | Batch_deferrer of int * int
      (** as [Batch (n, d)]; every member [defer]s an event at its own
          instant *)
  | Sched_canceller of int * int
      (** as [Sched_at d]; the callback cancels the [k]-th handle
          created before it (mod their count) *)
  | Sched_deferrer of int
      (** as [Sched_at d]; the callback [defer]s an event at its own
          instant *)
  | Cancel of int  (** the [k]-th handle ever created (mod count) *)
  | Cancel_rank of int
      (** the [r]-th pending event in dispatch order: 0 is the root *)
  | Cancel_last  (** the pending event that dispatches last *)
  | Cancel_stale of int
      (** the [k]-th (mod count) handle of an event that was dispatched
          or cancelled, its slot likely reused since: a no-op *)
  | Cancel_none  (** [cancel Engine.none]: a no-op *)
  | Step
  | Run_until of int  (** [run ~until:(now + d)] *)
  | Run_max of int  (** [run ~max_events:k] *)

let engine_op_print = function
  | Sched d -> Printf.sprintf "Sched %d" d
  | Sched_at d -> Printf.sprintf "Sched_at %d" d
  | Burst (n, d) -> Printf.sprintf "Burst (%d, %d)" n d
  | Batch (n, d) -> Printf.sprintf "Batch (%d, %d)" n d
  | Batch_canceller (n, d, k) ->
      Printf.sprintf "Batch_canceller (%d, %d, %d)" n d k
  | Batch_deferrer (n, d) -> Printf.sprintf "Batch_deferrer (%d, %d)" n d
  | Sched_canceller (d, k) -> Printf.sprintf "Sched_canceller (%d, %d)" d k
  | Sched_deferrer d -> Printf.sprintf "Sched_deferrer %d" d
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Cancel_rank r -> Printf.sprintf "Cancel_rank %d" r
  | Cancel_last -> "Cancel_last"
  | Cancel_stale k -> Printf.sprintf "Cancel_stale %d" k
  | Cancel_none -> "Cancel_none"
  | Step -> "Step"
  | Run_until d -> Printf.sprintf "Run_until %d" d
  | Run_max k -> Printf.sprintf "Run_max %d" k

let engine_op_gen =
  let open QCheck2.Gen in
  let delay = int_bound 3 in
  frequency
    [
      (4, map (fun d -> Sched d) delay);
      (2, map (fun d -> Sched_at d) delay);
      (2, map2 (fun n d -> Burst (n, d)) (int_range 1 8) delay);
      (2, map2 (fun n d -> Batch (n, d)) (int_range 1 8) delay);
      ( 1,
        map3
          (fun n d k -> Batch_canceller (n, d, k))
          (int_range 1 8) delay small_nat );
      (1, map2 (fun n d -> Batch_deferrer (n, d)) (int_range 1 8) delay);
      (1, map2 (fun d k -> Sched_canceller (d, k)) delay small_nat);
      (1, map (fun d -> Sched_deferrer d) delay);
      (2, map (fun k -> Cancel k) small_nat);
      (2, map (fun r -> Cancel_rank r) (int_bound 10));
      (1, pure Cancel_last);
      (2, map (fun k -> Cancel_stale k) small_nat);
      (1, pure Cancel_none);
      (3, pure Step);
      (1, map (fun d -> Run_until d) delay);
      (1, map (fun k -> Run_max k) (int_bound 5));
    ]

(* Runs [ops] on a real engine and on the reference — a list of pending
   [(at, id)] sorted by dispatch order, ids being creation order and so
   the engine's tie-break — and checks the dispatch log, [pending],
   [pending_high_water] and every handle's [is_pending] after each
   operation. Every member of a batch maps to the batch's handle, so
   cancelling any of them drops every member still pending. Handles of
   events that left the queue must stay dead after their slots are
   reused, and [Engine.none] must never name an event. *)
let engine_matches_model ops =
  let e = Engine.create () in
  let handles = Hashtbl.create 64 in
  (* Member id -> the batch's first id; absent for plain events. *)
  let batch_of = Hashtbl.create 16 in
  let group id = Option.value (Hashtbl.find_opt batch_of id) ~default:id in
  let created = ref 0 in
  let log = ref [] in
  (* Reference state. *)
  let clock = ref 0 in
  let live = ref [] in
  let targets = Hashtbl.create 8 in
  (* Deferrer id -> id of the event its callback deferred. *)
  let spawned = Hashtbl.create 8 in
  let ref_log = ref [] in
  let ref_hwm = ref 0 in
  let ref_remove id =
    let g = group id in
    live := List.filter (fun (_, i) -> group i <> g) !live
  in
  let ref_add at id =
    live := List.merge compare !live [ (at, id) ];
    ref_hwm := max !ref_hwm (List.length !live)
  in
  let ref_dispatch () =
    match !live with
    | [] -> ()
    | (at, id) :: rest ->
        live := rest;
        clock := at;
        ref_log := id :: !ref_log;
        Option.iter ref_remove (Hashtbl.find_opt targets id);
        Option.iter (ref_add at) (Hashtbl.find_opt spawned id)
  in
  let fresh_id () =
    let id = !created in
    incr created;
    id
  in
  (* Called from the callback of [parent]; the reference adds the event
     when it dispatches [parent]. *)
  let defer_from parent =
    let id = fresh_id () in
    Hashtbl.replace handles id (Engine.defer e (fun () -> log := id :: !log));
    Hashtbl.replace spawned parent id
  in
  let add ?target ?(defers = false) ~at_ns schedule =
    let id = fresh_id () in
    let callback () =
      log := id :: !log;
      Option.iter (fun k -> Engine.cancel e (Hashtbl.find handles k)) target;
      if defers then defer_from id
    in
    Hashtbl.replace handles id (schedule callback);
    Option.iter (Hashtbl.replace targets id) target;
    ref_add at_ns id
  in
  let add_at ?target ?defers d =
    let at_ns = !clock + d in
    add ?target ?defers ~at_ns (Engine.schedule_at e ~at:(Time.of_ns at_ns))
  in
  let add_batch ?cancels ?(defers = false) n d =
    let at_ns = !clock + d in
    let base = !created in
    let target = Option.map (fun k -> k mod (base + 1)) cancels in
    created := base + n;
    let canceller = min 1 (n - 1) in
    let calls = ref 0 in
    let callback () =
      let m = !calls in
      incr calls;
      log := (base + m) :: !log;
      if m = canceller then
        Option.iter (fun k -> Engine.cancel e (Hashtbl.find handles k)) target;
      if defers then defer_from (base + m)
    in
    let h = Engine.schedule_batch e ~at:(Time.of_ns at_ns) ~count:n callback in
    for m = 0 to n - 1 do
      Hashtbl.replace handles (base + m) h;
      Hashtbl.replace batch_of (base + m) base;
      ref_add at_ns (base + m)
    done;
    Option.iter (Hashtbl.replace targets (base + canceller)) target
  in
  let cancel_id id =
    Engine.cancel e (Hashtbl.find handles id);
    ref_remove id
  in
  let apply = function
    | Sched d ->
        add ~at_ns:(!clock + d) (Engine.schedule e ~after:(Time.span_ns d))
    | Sched_at d -> add_at d
    | Burst (n, d) ->
        for _ = 1 to n do
          add_at d
        done
    | Batch (n, d) -> add_batch n d
    | Batch_canceller (n, d, k) -> add_batch ~cancels:k n d
    | Batch_deferrer (n, d) -> add_batch ~defers:true n d
    | Sched_canceller (d, k) ->
        let target = if !created = 0 then None else Some (k mod !created) in
        add_at ?target d
    | Sched_deferrer d -> add_at ~defers:true d
    | Cancel k -> if !created > 0 then cancel_id (k mod !created)
    | Cancel_rank r -> (
        match List.nth_opt !live r with
        | Some (_, id) -> cancel_id id
        | None -> ())
    | Cancel_last -> (
        match List.rev !live with (_, id) :: _ -> cancel_id id | [] -> ())
    | Cancel_stale k -> (
        let dead =
          List.filter
            (fun i -> not (List.exists (fun (_, j) -> group j = group i) !live))
            (List.init !created Fun.id)
        in
        match dead with
        | [] -> ()
        | _ ->
            Engine.cancel e
              (Hashtbl.find handles (List.nth dead (k mod List.length dead))))
    | Cancel_none -> Engine.cancel e Engine.none
    | Step ->
        let stepped = Engine.step e in
        if stepped <> (!live <> []) then failwith "step disagrees";
        ref_dispatch ()
    | Run_until d ->
        let stop = !clock + d in
        ignore (Engine.run ~until:(Time.of_ns stop) e);
        let rec drain () =
          match !live with
          | (at, _) :: _ when at <= stop ->
              ref_dispatch ();
              drain ()
          | _ -> ()
        in
        drain ();
        clock := stop
    | Run_max k ->
        ignore (Engine.run ~max_events:k e);
        for _ = 1 to k do
          ref_dispatch ()
        done
  in
  let pending_agrees () =
    (not (Engine.is_pending e Engine.none))
    && Hashtbl.fold
      (fun id h ok ->
        let g = group id in
        ok
        && Engine.is_pending e h
           = List.exists (fun (_, i) -> group i = g) !live)
      handles true
  in
  List.for_all
    (fun op ->
      apply op;
      !log = !ref_log
      && Time.to_ns (Engine.now e) = !clock
      && Engine.pending e = List.length !live
      && Engine.pending_high_water e = !ref_hwm
      && pending_agrees ())
    ops
  &&
  (* Whatever is left drains in reference order. *)
  (ignore (Engine.run e);
   while !live <> [] do
     ref_dispatch ()
   done;
   !log = !ref_log && Engine.pending e = 0)

let prop_engine_model =
  QCheck2.Test.make ~name:"indexed heap matches sorted-list model" ~count:500
    ~print:QCheck2.Print.(list engine_op_print)
    QCheck2.Gen.(list_size (int_bound 60) engine_op_gen)
    engine_matches_model

let check_model cases =
  List.iter
    (fun (name, ops) ->
      Alcotest.(check bool) name true (engine_matches_model ops))
    cases

(* The shapes the model property must not leave to chance, spelled out:
   cancelling the root, the last slot (increasing keys never sift, so
   the newest event sits there), an interior slot, an already-dispatched
   handle and the same handle twice, and a callback that cancels
   another pending event. *)
let test_engine_model_directed () =
  let fill = List.init 12 (fun i -> Sched_at (i + 1)) in
  check_model
    [
      ("root", fill @ [ Cancel_rank 0; Step; Step ]);
      ("last slot", fill @ [ Cancel 11; Sched 0; Step ]);
      ("interior slot", fill @ [ Cancel 5; Cancel_rank 3; Step; Step; Step ]);
      ("dispatched handle", fill @ [ Step; Cancel 0; Step ]);
      ("twice", fill @ [ Cancel 4; Cancel 4; Run_until 3 ]);
      ( "callback cancels",
        fill @ [ Sched_canceller (0, 7); Sched_canceller (0, 0); Step; Step ] );
      ("ties", [ Sched 1; Sched 1; Sched_at 1; Cancel 1; Sched 1; Run_until 2 ]);
      ( "dispatched handle, slot reused",
        [ Sched_at 1; Step; Sched_at 1; Cancel_stale 0; Cancel 0; Step ] );
      ( "cancelled handle, slot reused",
        [ Sched_at 1; Cancel 0; Burst (2, 1); Cancel_stale 0; Cancel_none; Step ]
      );
    ]

(* The same for runs — events enqueued back to back for one instant,
   which share a heap entry: the head cancelled while it has followers,
   a middle member, the tail followed by a new event for its instant,
   two runs for one instant split by an event for another, a bounded
   run that stops inside a run, and callbacks that defer or cancel
   inside one. *)
let test_engine_runs_directed () =
  check_model
    [
      ( "head with followers",
        [ Sched_at 1; Burst (4, 2); Cancel 1; Cancel_rank 0; Step; Cancel_rank 0; Step ]
      );
      ("middle member", [ Burst (5, 1); Cancel 2; Cancel 3; Step; Step; Step ]);
      ( "tail, then its instant again",
        [ Burst (3, 1); Cancel 2; Sched_at 1; Cancel_last; Burst (2, 1); Step ]
      );
      ( "two runs, one instant",
        [ Burst (3, 2); Sched_at 1; Burst (3, 2); Sched_at 3; Run_until 3 ] );
      ( "stop mid-run",
        [ Burst (6, 1); Run_max 2; Burst (2, 0); Run_max 3; Cancel_rank 1; Step ]
      );
      ( "defer inside a run",
        [ Burst (2, 1); Sched_deferrer 1; Burst (2, 1); Run_until 1 ] );
      ("defer from the tail", [ Burst (2, 1); Sched_deferrer 1; Run_max 3; Step ]);
      ( "callback cancels its follower",
        [ Burst (2, 1); Sched_canceller (1, 3); Sched_at 1; Run_until 1 ] );
    ]

(* The same for batches — members behind one handle: cancelled before
   the first member and from inside the second, a bounded run that stops
   mid-batch and a step that resumes it, members that enqueue events for
   their own instant, a batch that follows an event in a run and one
   that heads a run with followers. *)
let test_engine_batches_directed () =
  check_model
    [
      ("cancel before the first", [ Batch (4, 1); Cancel 2; Step; Step ]);
      ( "cancel from inside the second",
        [ Sched_at 1; Batch_canceller (4, 1, 1); Sched_at 1; Run_until 1 ] );
      ( "stop mid-batch, then step",
        [ Batch (5, 1); Run_max 2; Step; Cancel_rank 1; Step; Step ] );
      ( "members enqueue for their instant",
        [ Batch_deferrer (3, 1); Run_max 2; Sched_at 0; Run_until 1 ] );
      ( "a run follower",
        [ Sched_at 1; Batch (3, 1); Sched_at 1; Cancel 0; Run_until 1 ] );
      ( "a run head with followers",
        [ Batch (3, 2); Burst (2, 2); Step; Cancel_rank 2; Step; Step; Step ]
      );
      ( "a member cancels another batch",
        [ Batch (3, 2); Batch_canceller (2, 1, 0); Run_until 3 ] );
    ]

(* A batch's members are dispatched one by one to the observer too:
   each gets its own bracket, whether a bounded run stops among them or
   not, and the clock hook sees the one move to their instant. *)
let test_engine_batch_hooks () =
  let e = Engine.create () in
  let clocks = ref 0 and before = ref 0 and after = ref 0 in
  Engine.observe e
    ~clock:(fun _ -> incr clocks)
    ~before:(fun _ _ -> incr before)
    ~after:(fun _ -> incr after)
    ();
  let h = Engine.schedule_batch e ~at:(Time.of_ns 5) ~count:6 ignore in
  Alcotest.(check int) "pending" 6 (Engine.pending e);
  Alcotest.(check int) "high water" 6 (Engine.pending_high_water e);
  Alcotest.(check bool) "stopped" true
    (Engine.run ~max_events:4 e = Engine.Reached_limit);
  Alcotest.(check (list int))
    "clock, before, after, dispatched after 4" [ 1; 4; 4; 4 ]
    [ !clocks; !before; !after; Engine.dispatched e ];
  Alcotest.(check bool) "still pending" true (Engine.is_pending e h);
  Alcotest.(check int) "members left" 2 (Engine.pending e);
  ignore (Engine.run e);
  Alcotest.(check (list int))
    "clock, before, after, dispatched after 6" [ 1; 6; 6; 6 ]
    [ !clocks; !before; !after; Engine.dispatched e ];
  Alcotest.(check bool) "done" false (Engine.is_pending e h)

(* A later [observe] replaces the whole slot: hooks it omits stop being
   called, so a clock-only observer leaves dispatches unbracketed. *)
let test_engine_observe_replaces () =
  let e = Engine.create () in
  let clocks = ref 0 and before = ref 0 and after = ref 0 in
  let counts () = [ !clocks; !before; !after ] in
  let step_at ns =
    ignore (Engine.schedule_at e ~at:(Time.of_ns ns) ignore);
    ignore (Engine.run e)
  in
  Engine.observe e
    ~clock:(fun _ -> incr clocks)
    ~before:(fun _ _ -> incr before)
    ~after:(fun _ -> incr after)
    ();
  step_at 1;
  Alcotest.(check (list int)) "all hooks" [ 1; 1; 1 ] (counts ());
  Engine.observe e ~clock:(fun _ -> incr clocks) ();
  step_at 2;
  Alcotest.(check (list int)) "clock only" [ 2; 1; 1 ] (counts ());
  Engine.observe e ~after:(fun _ -> incr after) ();
  step_at 3;
  Alcotest.(check (list int)) "after only" [ 2; 1; 2 ] (counts ());
  Engine.observe e ();
  step_at 4;
  Alcotest.(check (list int)) "none" [ 2; 1; 2 ] (counts ());
  Alcotest.(check int) "dispatched" 4 (Engine.dispatched e)

(* A member that raises stops the run like any event, and leaves the
   members behind it queued for the next [run]. *)
let test_engine_batch_failure () =
  let e = Engine.create () in
  let calls = ref 0 in
  let h =
    Engine.schedule_batch e ~label:(Label.v Other "fanout")
      ~at:(Time.of_ns 1) ~count:4 (fun () ->
        incr calls;
        if !calls = 2 then failwith "kaput")
  in
  (match Engine.run e with
  | exception Engine.Event_failure (label, _) ->
      Alcotest.(check string) "label" "fanout" label
  | _ -> Alcotest.fail "expected Event_failure");
  Alcotest.(check int) "calls" 2 !calls;
  Alcotest.(check int) "rest queued" 2 (Engine.pending e);
  Alcotest.(check bool) "pending" true (Engine.is_pending e h);
  Alcotest.(check bool) "drained" true (Engine.run e = Engine.Drained);
  Alcotest.(check int) "all members ran" 4 !calls;
  Alcotest.(check int) "dispatched" 4 (Engine.dispatched e);
  Alcotest.(check bool) "done" false (Engine.is_pending e h);
  Alcotest.check_raises "empty batch"
    (Invalid_argument "Engine.schedule_batch: count below 1") (fun () ->
      ignore (Engine.schedule_batch e ~at:(Engine.now e) ~count:0 ignore))

(* The queue holds no reference to events that have left it: 10,000
   cancelled 60 s timers must leave nothing reachable before their
   instant, and neither may dispatched ones. The timers share one
   instant, so they queue as one run; with every other one cancelled
   out of the middle of it, the survivors still dispatch in order. The
   caller keeps the handle of timer 1, the run's head once timer 0 is
   gone; a handle is an int, so it keeps nothing alive. *)
let test_engine_cancel_releases () =
  let n = 10_000 in
  let e = Engine.create () in
  let weak = Weak.create n in
  let log = ref [] in
  let[@inline never] schedule_and_cancel ~keep =
    let hs =
      Array.init n (fun i ->
          let block = Bytes.create 64 in
          Weak.set weak i (Some block);
          Engine.schedule e ~after:(Time.span_s 60) (fun () ->
              ignore (Sys.opaque_identity block);
              log := i :: !log))
    in
    Array.iteri (fun i h -> if not (keep i) then Engine.cancel e h) hs;
    hs.(1)
  in
  let reachable () =
    Gc.full_major ();
    List.filter (Weak.check weak) (List.init n Fun.id)
  in
  let held = schedule_and_cancel ~keep:(fun _ -> false) in
  Alcotest.(check (list int)) "cancelled blocks reachable" [] (reachable ());
  Alcotest.(check int) "pending" 0 (Engine.pending e);
  Alcotest.(check bool) "drained" true (Engine.run e = Engine.Drained);
  let odd i = i mod 2 = 1 in
  let held' = schedule_and_cancel ~keep:odd in
  let survivors = List.filter odd (List.init n Fun.id) in
  Alcotest.(check (list int)) "reachable: the survivors" survivors (reachable ());
  Alcotest.(check int) "pending survivors" (n / 2) (Engine.pending e);
  Alcotest.(check bool) "drained again" true (Engine.run e = Engine.Drained);
  Alcotest.(check (list int)) "survivors in order" survivors (List.rev !log);
  Alcotest.(check (list int)) "dispatched blocks reachable" [] (reachable ());
  ignore (Sys.opaque_identity (held, held'))

(* An event costs no allocation beyond its callback: once a warm-up has
   grown the slots, each pattern below allocates no minor word at all,
   callbacks being built before the count starts. *)
let test_engine_allocates_nothing () =
  let e = Engine.create () in
  let calls = ref 0 in
  let f () = incr calls in
  let words pattern =
    pattern ();
    let w0 = Gc.minor_words () in
    pattern ();
    Gc.minor_words () -. w0
  in
  let schedule_and_run () =
    for i = 1 to 10_000 do
      ignore (Engine.schedule e ~after:(Time.span_ns (i land 1023)) f)
    done;
    ignore (Engine.run e)
  in
  let batch () =
    ignore (Engine.schedule_batch e ~at:(Engine.now e) ~count:64 f);
    ignore (Engine.run e)
  in
  let schedule_and_cancel () =
    for i = 1 to 10_000 do
      Engine.cancel e (Engine.schedule e ~after:(Time.span_ns i) f)
    done
  in
  Alcotest.(check (float 0.)) "10,000 events" 0. (words schedule_and_run);
  Alcotest.(check (float 0.)) "a batch of 64" 0. (words batch);
  Alcotest.(check (float 0.)) "10,000 schedule/cancel pairs" 0.
    (words schedule_and_cancel);
  Alcotest.(check int) "calls" (2 * (10_000 + 64)) !calls

(* Growth from a fresh engine's few slots: 100,000 events over 997
   instants, so instants repeat and runs form, with every third one
   cancelled, dispatch the survivors in (instant, enqueue) order. *)
let test_engine_growth () =
  let n = 100_000 in
  let e = Engine.create () in
  let log = ref [] in
  let at i = i * 7919 mod 997 in
  let hs =
    Array.init n (fun i ->
        Engine.schedule_at e ~at:(Time.of_ns (at i)) (fun () ->
            log := i :: !log))
  in
  Array.iteri (fun i h -> if i mod 3 = 0 then Engine.cancel e h) hs;
  Alcotest.(check int) "pending" (n - ((n + 2) / 3)) (Engine.pending e);
  ignore (Engine.run e);
  let expected =
    List.init n Fun.id
    |> List.filter (fun i -> i mod 3 <> 0)
    |> List.stable_sort (fun i j -> compare (at i) (at j))
  in
  Alcotest.(check bool) "(instant, seq) order" true (List.rev !log = expected);
  Alcotest.(check bool) "dead handles" false
    (Array.exists (Engine.is_pending e) hs)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_basics () =
  let tr = Trace.create () in
  Trace.emit tr ~time:Time.zero ~source:"a" ~kind:"k1" "one";
  Trace.emitf tr ~time:(Time.of_ns 5) ~source:"b" ~kind:"k2" "%d" 2;
  Alcotest.(check int) "length" 2 (Trace.length tr);
  Alcotest.(check int) "count kind" 1 (Trace.count ~kind:"k1" tr);
  Alcotest.(check int) "count source" 1 (Trace.count ~source:"b" tr);
  Alcotest.(check int) "count both" 0 (Trace.count ~source:"a" ~kind:"k2" tr);
  (match Trace.entries tr with
  | [ e1; e2 ] ->
      Alcotest.(check string) "order" "one" e1.Trace.detail;
      Alcotest.(check string) "fmt" "2" e2.Trace.detail
  | _ -> Alcotest.fail "expected two entries");
  Trace.clear tr;
  Alcotest.(check int) "cleared" 0 (Trace.length tr)

let test_trace_disabled () =
  let tr = Trace.disabled () in
  Trace.emit tr ~time:Time.zero ~source:"x" ~kind:"k" "dropped";
  Alcotest.(check int) "drops" 0 (Trace.length tr);
  Alcotest.(check bool) "flag" false (Trace.is_recording tr)

let test_timeline_render () =
  let tr = Trace.create () in
  Trace.emit tr ~time:Time.zero ~source:"mds0" ~kind:"send" "UPDATE_REQ";
  Trace.emit tr ~time:(Time.of_ns 5_000) ~source:"mds1" ~kind:"force" "COMMIT";
  Trace.emit tr ~time:(Time.of_ns 9_000) ~source:"mds0" ~kind:"noise" "x";
  let out =
    Timeline.render
      ~keep:(fun e -> e.Trace.kind <> "noise")
      ~column_width:20 (Trace.entries tr)
  in
  let lines = String.split_on_char '\n' out |> List.filter (( <> ) "") in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i =
      i + n <= h && (String.sub hay i n = needle || go (i + 1))
    in
    n = 0 || go 0
  in
  Alcotest.(check bool) "columns named" true
    (contains (List.nth lines 0) "mds0" && contains (List.nth lines 0) "mds1");
  Alcotest.(check bool) "entry placed" true
    (contains out "send UPDATE_REQ" && contains out "force COMMIT");
  Alcotest.(check bool) "filtered out" false (contains out "noise");
  (* Explicit source list drops others. *)
  let only0 = Timeline.render ~sources:[ "mds0" ] (Trace.entries tr) in
  Alcotest.(check bool) "mds1 dropped" false (contains only0 "COMMIT")


(* Golden swimlane: a whole two-node 1PC CREATE, rendered verbatim.
   Pins column sizing, padding, the '~' truncation marker and row
   order; drift in the renderer or in the protocol's deterministic
   timing shows up as a line diff here. *)
(* The trace of one distributed CREATE on a traced two-node cluster. *)
let traced_create protocol =
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
    (Opc.Mds.Op.create_file ~parent:dir ~name:"f")
    ~on_done:(fun _ -> ());
  (match Opc.Cluster.settle cluster with
  | Opc.Cluster.Quiescent -> ()
  | _ -> Alcotest.fail "two-node CREATE did not settle");
  Trace.entries (Opc.Cluster.sink cluster).trace

let test_timeline_golden () =
  let rendered =
    Timeline.render ~sources:[ "mds0"; "mds1" ]
      (traced_create Opc.Acp.Protocol.Opc)
  in
  let expected =
    String.concat "\n"
      [
        {|time    | mds0                         | mds1                        |};
        {|--------+------------------------------+-----------------------------|};
        {|0s      | node.boot first start        |                             |};
        {|0s      |                              | node.boot first start       |};
        {|0s      | txn.start t0.0 1PC coordina~ |                             |};
        {|0s      | log.force 2 record(s), 512B  |                             |};
        {|100us   |                              | net.recv from mds0          |};
        {|100us   | net.recv from mds1           |                             |};
        {|10.24ms | log.durable 2 record(s), 51~ |                             |};
        {|10.24ms | send UPDATE_REQ t0.0 (1 upd~ |                             |};
        {|10.34ms |                              | net.recv from mds0          |};
        {|10.34ms |                              | txn.start t0.0 1PC worker   |};
        {|10.34ms |                              | log.force 2 record(s), 768B |};
        {|20.58ms |                              | log.durable 2 record(s), 76~|};
        {|20.58ms |                              | txn.commit t0.0 worker comm~|};
        {|20.58ms |                              | send UPDATED t0.0 (ok) -> m~|};
        {|20.68ms | net.recv from mds1           |                             |};
        {|20.68ms | txn.commit t0.0 worker comm~ |                             |};
        {|20.68ms | log.force 2 record(s), 768B  |                             |};
        {|30.92ms | log.durable 2 record(s), 76~ |                             |};
        {|30.92ms | send ACK t0.0 -> mds1        |                             |};
        {|30.92ms | log.gc 4 record(s) collected |                             |};
        {|31.02ms |                              | net.recv from mds0          |};
        {|31.02ms |                              | log.append 1 record(s), 192B|};
        {|41.26ms |                              | log.durable 1 record(s), 19~|};
        {|41.26ms |                              | log.gc 3 record(s) collected|};
        "";
      ]
  in
  Alcotest.(check string) "swimlane" expected rendered

(* The same CREATE under PrN: its start and log-collection entries,
   whose details 2PC and the WAL build only while tracing. *)
let test_trace_prn_details () =
  let lines =
    List.filter_map
      (fun (e : Trace.entry) ->
        if String.equal e.kind "txn.start" || String.equal e.kind "log.gc"
        then
          Some
            (Fmt.str "%a %s %s %s" Time.pp e.time e.source e.kind e.detail)
        else None)
      (traced_create Opc.Acp.Protocol.Prn)
  in
  Alcotest.(check (list string))
    "entries"
    [
      "0s mds0 txn.start t0.0 PrN coordinator";
      "10.34ms mds1 txn.start t0.0 PrN worker";
      "51.6ms mds1 log.gc 3 record(s) collected";
      "51.7ms mds0 log.gc 4 record(s) collected";
      "61.94ms mds0 log.gc 1 record(s) collected";
    ]
    lines

let test_timeline_truncation () =
  let tr = Trace.create () in
  Trace.emit tr ~time:Time.zero ~source:"s" ~kind:"kind" "0123456789";
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    n = 0 || go 0
  in
  (* A cell one character over the width keeps exactly [width] chars,
     the last one the marker. *)
  let out = Timeline.render ~column_width:8 (Trace.entries tr) in
  Alcotest.(check bool) "cut to width with marker" true
    (contains out "| kind 01~\n");
  (* The boundary case: a cell of exactly the column width is kept
     whole, no marker. *)
  let exact = Timeline.render ~column_width:15 (Trace.entries tr) in
  Alcotest.(check bool) "exact fit untouched" true
    (contains exact "| kind 0123456789\n");
  (* Degenerate widths render empty cells instead of raising. *)
  List.iter
    (fun w ->
      let out = Timeline.render ~column_width:w (Trace.entries tr) in
      Alcotest.(check bool)
        (Printf.sprintf "width %d drops the cell" w)
        false (contains out "kind"))
    [ 0; -3 ]

(* ------------------------------------------------------------------ *)
(* Monomorphic tables                                                  *)
(* ------------------------------------------------------------------ *)

type 'k tbl_op =
  | Add of 'k * int
  | Replace of 'k * int
  | Remove of 'k
  | Find of 'k
  | Reset

(* A script: an initial size, then operations. Resets are rare and keys
   come from a few hundred values, so a script typically grows the table
   from 16 buckets past 256, crossing several resizes. *)
let tbl_script_gen key =
  QCheck2.Gen.(
    pair (int_bound 64)
      (list_size (int_range 100 600)
         (frequency
            [
              (40, map2 (fun k v -> Add (k, v)) key small_nat);
              (40, map2 (fun k v -> Replace (k, v)) key small_nat);
              (20, map (fun k -> Remove k) key);
              (30, map (fun k -> Find k) key);
              (1, pure Reset);
            ])))

(* Replays a script on a [Hashtbl.create]d table and on [T]: every
   [find_opt] must answer alike and, at every lookup and at the end, a
   [fold] must visit the same bindings in the same order. *)
module Agrees_with_stdlib (T : Hashtbl.S) = struct
  let run (size, ops) =
    let h = Hashtbl.create size and t = T.create size in
    let same_order () =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []
      = T.fold (fun k v acc -> (k, v) :: acc) t []
    in
    List.for_all
      (function
        | Add (k, v) ->
            Hashtbl.add h k v;
            T.add t k v;
            true
        | Replace (k, v) ->
            Hashtbl.replace h k v;
            T.replace t k v;
            true
        | Remove k ->
            Hashtbl.remove h k;
            T.remove t k;
            true
        | Find k -> Hashtbl.find_opt h k = T.find_opt t k && same_order ()
        | Reset ->
            Hashtbl.reset h;
            T.reset t;
            true)
      ops
    && same_order ()
end

let int_key = QCheck2.Gen.int_bound 400

let prop_tbl_int =
  let module A = Agrees_with_stdlib (Tbl.Int) in
  QCheck2.Test.make ~name:"Tbl.Int orders like Hashtbl" ~count:200
    (tbl_script_gen int_key) A.run

let prop_tbl_pair =
  let module A = Agrees_with_stdlib (Tbl.Pair) in
  QCheck2.Test.make ~name:"Tbl.Pair orders like Hashtbl" ~count:200
    (tbl_script_gen QCheck2.Gen.(pair (int_bound 20) (int_bound 20)))
    A.run

let prop_tbl_string =
  let module A = Agrees_with_stdlib (Tbl.String) in
  QCheck2.Test.make ~name:"Tbl.String orders like Hashtbl" ~count:200
    (tbl_script_gen QCheck2.Gen.(map (Printf.sprintf "k%d") (int_bound 400)))
    A.run

(* The property has teeth: the same table code with another hash finds
   the same bindings but visits them in another order. *)
let prop_tbl_other_hash_differs =
  let module Id = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash = Fun.id
  end) in
  let module A = Agrees_with_stdlib (Id) in
  QCheck2.Test.make_neg ~name:"hash = Fun.id orders unlike Hashtbl"
    ~count:200 (tbl_script_gen int_key) A.run

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

(* A server's hardened set is a bitset keyed by [Txn.id.seq] alone. The
   ids it sees are cluster-shaped: seqs distinct (one counter for every
   origin, from 0), origins arbitrary. Over such ids the bitset must
   answer like a set of whole (origin, seq) pairs. Seqs start at 0 or
   near it, and gaps of up to 5,000 carry them far past the set's
   initial 16 bits, through several doublings. Half the ids are never
   added, and every added id is added twice. *)
module Ids = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let cluster_ids_gen =
  QCheck2.Gen.(
    let* first = oneof [ return 0; int_bound 40 ] in
    let* steps =
      list_size (int_range 1 120)
        (triple (int_bound 63)
           (frequency [ (4, int_range 1 3); (1, int_range 1 5_000) ])
           bool)
    in
    let _, ids =
      List.fold_left
        (fun (seq, acc) (origin, gap, added) ->
          (seq + gap, (origin, seq, added) :: acc))
        (first, []) steps
    in
    shuffle_l ids)

let prop_bitset_model =
  QCheck2.Test.make ~name:"Bitset by seq answers like a set of ids"
    ~count:300
    ~print:QCheck2.Print.(list (triple int int bool))
    cluster_ids_gen
    (fun ids ->
      let bits = Bitset.create 16 in
      let model =
        List.fold_left
          (fun model (origin, seq, added) ->
            if added then begin
              Bitset.add bits seq;
              Bitset.add bits seq;
              Ids.add (origin, seq) model
            end
            else model)
          Ids.empty ids
      in
      List.for_all
        (fun (origin, seq, _) ->
          Bitset.mem bits seq = Ids.mem (origin, seq) model)
        ids
      && (not (Bitset.mem bits (-1)))
      && not (Bitset.mem bits max_int))

let test_bitset_negative () =
  Alcotest.check_raises "negative add"
    (Invalid_argument "Bitset.add: negative element") (fun () ->
      Bitset.add (Bitset.create 8) (-1))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "simkit"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "arithmetic" `Quick test_time_arithmetic;
          Alcotest.test_case "invalid" `Quick test_time_invalid;
          Alcotest.test_case "pp" `Quick test_time_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "exponential" `Quick test_rng_exponential;
          Alcotest.test_case "zipf" `Quick test_rng_zipf;
          Alcotest.test_case "shuffle/pick" `Quick test_rng_shuffle_pick;
          Alcotest.test_case "stream golden" `Quick test_rng_stream_golden;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "nested" `Quick test_engine_nested_schedule;
          Alcotest.test_case "defer" `Quick test_engine_defer;
          Alcotest.test_case "max events" `Quick test_engine_max_events;
          Alcotest.test_case "past raises" `Quick test_engine_past_raises;
          Alcotest.test_case "event failure" `Quick test_engine_event_failure;
          Alcotest.test_case "model, directed" `Quick
            test_engine_model_directed;
          Alcotest.test_case "runs, directed" `Quick test_engine_runs_directed;
          Alcotest.test_case "batches, directed" `Quick
            test_engine_batches_directed;
          Alcotest.test_case "batch hooks" `Quick test_engine_batch_hooks;
          Alcotest.test_case "observe replaces" `Quick
            test_engine_observe_replaces;
          Alcotest.test_case "batch failure" `Quick test_engine_batch_failure;
          Alcotest.test_case "cancel releases" `Quick
            test_engine_cancel_releases;
          Alcotest.test_case "allocates nothing" `Quick
            test_engine_allocates_nothing;
          Alcotest.test_case "growth" `Quick test_engine_growth;
        ]
        @ qsuite
            [
              prop_engine_monotone_clock;
              prop_engine_fifo_ties;
              prop_engine_model;
            ] );
      ( "tbl",
        qsuite
          [
            prop_tbl_int;
            prop_tbl_pair;
            prop_tbl_string;
            prop_tbl_other_hash_differs;
          ] );
      ( "bitset",
        Alcotest.test_case "negative" `Quick test_bitset_negative
        :: qsuite [ prop_bitset_model ] );
      ( "trace",
        [
          Alcotest.test_case "basics" `Quick test_trace_basics;
          Alcotest.test_case "disabled" `Quick test_trace_disabled;
          Alcotest.test_case "timeline" `Quick test_timeline_render;
          Alcotest.test_case "timeline golden" `Quick test_timeline_golden;
          Alcotest.test_case "PrN trace details" `Quick test_trace_prn_details;
          Alcotest.test_case "timeline truncation" `Quick
            test_timeline_truncation;
        ] );
    ]
