(* Tests for the disk model, the write-ahead log and the shared SAN. *)

open Opc.Simkit
open Opc.Storage

let disk_config =
  { Disk.bandwidth_bytes_per_s = 400_000; block_bytes = 4096 }

let make_disk () =
  let engine = Engine.create () in
  (engine, Disk.create ~engine disk_config)

(* ------------------------------------------------------------------ *)
(* Disk                                                                *)
(* ------------------------------------------------------------------ *)

let test_transfer_span () =
  let _, d = make_disk () in
  (* One 4096-byte block at 400 KB/s = 10.24 ms, regardless of how much
     of the block is used. *)
  let block_ns = 4096 * 1_000_000_000 / 400_000 in
  Alcotest.(check int) "1 byte rounds up" block_ns
    (Time.span_to_ns (Disk.transfer_span d ~bytes:1));
  Alcotest.(check int) "full block" block_ns
    (Time.span_to_ns (Disk.transfer_span d ~bytes:4096));
  Alcotest.(check int) "block+1 doubles" (2 * block_ns)
    (Time.span_to_ns (Disk.transfer_span d ~bytes:4097));
  Alcotest.(check int) "zero is free" 0
    (Time.span_to_ns (Disk.transfer_span d ~bytes:0))

let test_fifo_service () =
  let engine, d = make_disk () in
  let completions = ref [] in
  let submit tag bytes =
    match
      Disk.submit d ~initiator:0 ~bytes ~label:tag
        ~on_complete:(fun () ->
          completions := (tag, Time.to_ns (Engine.now engine)) :: !completions)
        ()
    with
    | `Accepted -> ()
    | `Rejected -> Alcotest.fail "unexpected rejection"
  in
  submit "a" 4096;
  submit "b" 4096;
  submit "c" 8192;
  Alcotest.(check int) "queue depth" 3 (Disk.queue_depth d);
  ignore (Engine.run engine);
  let block = 10_240_000 in
  Alcotest.(check (list (pair string int)))
    "FIFO, cumulative times"
    [ ("a", block); ("b", 2 * block); ("c", 4 * block) ]
    (List.rev !completions);
  let stats = Disk.stats d in
  Alcotest.(check int) "completed" 3 stats.Disk.requests_completed;
  Alcotest.(check int) "bytes" 16384 stats.Disk.bytes_transferred;
  Alcotest.(check int) "busy" (4 * block) (Time.span_to_ns stats.Disk.busy_time)

let test_expel () =
  let engine, d = make_disk () in
  let done_tags = ref [] in
  let submit initiator tag =
    ignore
      (Disk.submit d ~initiator ~bytes:4096 ~label:tag
         ~on_complete:(fun () -> done_tags := tag :: !done_tags)
         ())
  in
  submit 1 "victim-in-service";
  submit 1 "victim-queued";
  submit 2 "innocent";
  (* Expel initiator 1 while its first request is in service. *)
  Disk.expel d ~initiator:1;
  Alcotest.(check bool) "flag" true (Disk.is_expelled d ~initiator:1);
  (* New submissions from the victim are rejected without callback. *)
  (match
     Disk.submit d ~initiator:1 ~bytes:4096
       ~on_complete:(fun () -> Alcotest.fail "rejected request completed")
       ()
   with
  | `Rejected -> ()
  | `Accepted -> Alcotest.fail "expected rejection");
  ignore (Engine.run engine);
  Alcotest.(check (list string))
    "in-service completes, queued dropped, others fine"
    [ "victim-in-service"; "innocent" ]
    (List.rev !done_tags);
  let stats = Disk.stats d in
  Alcotest.(check int) "dropped" 1 stats.Disk.requests_dropped;
  Alcotest.(check int) "rejected" 1 stats.Disk.requests_rejected;
  (* Readmission restores service. *)
  Disk.readmit d ~initiator:1;
  submit 1 "after-readmit";
  ignore (Engine.run engine);
  Alcotest.(check bool) "readmitted" true
    (List.mem "after-readmit" !done_tags)

let test_busy_until () =
  let engine, d = make_disk () in
  ignore
    (Disk.submit d ~initiator:0 ~bytes:4096 ~on_complete:(fun () -> ()) ());
  ignore
    (Disk.submit d ~initiator:0 ~bytes:4096 ~on_complete:(fun () -> ()) ());
  Alcotest.(check int) "two blocks ahead" 20_480_000
    (Time.to_ns (Disk.busy_until d));
  ignore (Engine.run engine);
  Alcotest.(check int) "idle = now" (Time.to_ns (Engine.now engine))
    (Time.to_ns (Disk.busy_until d))

let test_disk_validation () =
  let engine = Engine.create () in
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Disk.create: bandwidth <= 0") (fun () ->
      ignore
        (Disk.create ~engine
           { Disk.bandwidth_bytes_per_s = 0; block_bytes = 512 }));
  let d = Disk.create ~engine disk_config in
  Alcotest.check_raises "negative size"
    (Invalid_argument "Disk.submit: negative size") (fun () ->
      ignore
        (Disk.submit d ~initiator:0 ~bytes:(-1)
           ~on_complete:(fun () -> ())
           ()))

(* ------------------------------------------------------------------ *)
(* WAL                                                                 *)
(* ------------------------------------------------------------------ *)

(* Records are (name, payload-size) pairs for these tests. *)
let make_wal () =
  let engine, d = make_disk () in
  let wal =
    Wal.create ~engine ~disk:d ~owner:"w" ~initiator:0 ~size:snd
      ~header_bytes:64 ()
  in
  (engine, d, wal)

let rec_names wal = List.map fst (Wal.durable wal)

let test_wal_force_durability () =
  let engine, _, wal = make_wal () in
  let durable_at = ref (-1) in
  Wal.force wal
    [ ("a", 100); ("b", 200) ]
    ~on_durable:(fun () -> durable_at := Time.to_ns (Engine.now engine));
  Alcotest.(check (list string)) "not durable yet" [] (rec_names wal);
  ignore (Engine.run engine);
  (* 100+64 + 200+64 = 428 bytes -> one 4 KiB block. *)
  Alcotest.(check int) "durable after one block" 10_240_000 !durable_at;
  Alcotest.(check (list string)) "contents in order" [ "a"; "b" ]
    (rec_names wal);
  Alcotest.(check int) "bytes" 428 (Wal.durable_bytes wal);
  let stats = Wal.stats wal in
  Alcotest.(check int) "sync" 1 stats.Wal.sync_writes;
  Alcotest.(check int) "async" 0 stats.Wal.async_writes;
  Alcotest.(check int) "records" 2 stats.Wal.records_durable

let test_wal_async () =
  let engine, _, wal = make_wal () in
  let flag = ref false in
  Wal.append_async wal [ ("x", 1) ] ~on_durable:(fun () -> flag := true);
  Alcotest.(check bool) "caller does not wait" false !flag;
  ignore (Engine.run engine);
  Alcotest.(check bool) "eventually durable" true !flag;
  Alcotest.(check (list string)) "present" [ "x" ] (rec_names wal);
  Alcotest.(check int) "async counted" 1 (Wal.stats wal).Wal.async_writes

let test_wal_crash_suppresses_callbacks () =
  let engine, _, wal = make_wal () in
  let fired = ref false in
  Wal.force wal [ ("a", 1) ] ~on_durable:(fun () -> fired := true);
  (* Crash before the write completes: the record still becomes durable
     (it is in the fabric) but the dead owner never observes it. *)
  Wal.crash wal;
  ignore (Engine.run engine);
  Alcotest.(check bool) "callback suppressed" false !fired;
  Alcotest.(check (list string)) "record survived" [ "a" ] (rec_names wal);
  (* After restart, new writes observe callbacks again. *)
  Wal.restart wal;
  let again = ref false in
  Wal.force wal [ ("b", 1) ] ~on_durable:(fun () -> again := true);
  ignore (Engine.run engine);
  Alcotest.(check bool) "new epoch fires" true !again;
  Alcotest.(check (list string)) "appended" [ "a"; "b" ] (rec_names wal)

let test_wal_fenced_writes_lost () =
  let engine, d, wal = make_wal () in
  Disk.expel d ~initiator:0;
  let fired = ref false in
  Wal.force wal [ ("doomed", 1) ] ~on_durable:(fun () -> fired := true);
  ignore (Engine.run engine);
  Alcotest.(check bool) "no callback" false !fired;
  Alcotest.(check (list string)) "never durable" [] (rec_names wal);
  Alcotest.(check int) "counted rejected" 1
    (Wal.stats wal).Wal.rejected_writes

let test_wal_gc () =
  let engine, _, wal = make_wal () in
  Wal.force wal [ ("keep", 1); ("drop", 1); ("keep2", 1) ]
    ~on_durable:(fun () -> ());
  ignore (Engine.run engine);
  Wal.gc wal ~keep:(fun (name, _) -> name <> "drop");
  Alcotest.(check (list string)) "collected" [ "keep"; "keep2" ]
    (rec_names wal);
  Alcotest.(check int) "bytes recomputed" (2 * 65) (Wal.durable_bytes wal)

(* [gc] walks the log once and shares what it keeps after the last
   record it drops: collecting nothing, or only the newest record,
   allocates nothing. *)
let test_wal_gc_shares () =
  let engine, _, wal = make_wal () in
  List.iter
    (fun name -> Wal.force wal [ (name, 1) ] ~on_durable:(fun () -> ()))
    [ "a"; "b"; "c"; "newest" ];
  ignore (Engine.run engine);
  let words0 = Gc.minor_words () in
  Wal.gc wal ~keep:(fun _ -> true);
  Wal.gc wal ~keep:(fun (name, _) -> name <> "newest");
  let words = Gc.minor_words () -. words0 in
  Alcotest.(check (float 0.)) "words allocated" 0. words;
  Alcotest.(check (list string)) "kept" [ "a"; "b"; "c" ] (rec_names wal);
  Alcotest.(check int) "count" 3 (Wal.stats wal).Wal.records_durable;
  Alcotest.(check int) "bytes" (3 * 65) (Wal.durable_bytes wal)

(* Any interleaving of writes (empty ones included, with or without
   group commit) and collections leaves what filtering the records in
   append order and recomputing their footprint gives. *)
type wal_op = Write of int list | Collect of int

let wal_op_print = function
  | Write sizes -> Fmt.str "Write %a" Fmt.(Dump.list int) sizes
  | Collect k -> Fmt.str "Collect %d" k

let prop_wal_gc_model =
  QCheck2.Test.make ~name:"gc matches filter-and-recompute" ~count:300
    ~print:QCheck2.Print.(pair bool (list wal_op_print))
    QCheck2.Gen.(
      pair bool
        (list_size (int_range 1 40)
           (frequency
              [
                ( 3,
                  map
                    (fun l -> Write l)
                    (list_size (int_bound 4) (int_bound 300)) );
                (2, map (fun k -> Collect k) (int_range (-1) 5));
              ])))
    (fun (group_commit, ops) ->
      let engine, d = make_disk () in
      let wal =
        Wal.create ~engine ~disk:d ~owner:"w" ~initiator:0 ~size:snd
          ~header_bytes:64 ~group_commit ()
      in
      (* Record [n] is named by its write order; [Collect k] drops the
         records whose number is k modulo 6 ([-1] drops nothing). *)
      let next = ref 0 and model = ref [] in
      List.for_all
        (fun op ->
          (match op with
          | Write sizes ->
              let records =
                List.map
                  (fun size ->
                    incr next;
                    (string_of_int !next, size))
                  sizes
              in
              Wal.force wal records ~on_durable:(fun () -> ());
              ignore (Engine.run engine);
              model := !model @ records
          | Collect k ->
              let keep (name, _) = int_of_string name mod 6 <> k in
              Wal.gc wal ~keep;
              model := List.filter keep !model);
          Wal.durable wal = !model
          && (Wal.stats wal).Wal.records_durable = List.length !model
          && Wal.durable_bytes wal
             = List.fold_left (fun acc (_, size) -> acc + size + 64) 0 !model)
        ops)

let test_wal_batch_is_atomic () =
  let engine, _, wal = make_wal () in
  (* Two batches; crash between their completions. The first batch is
     fully durable, the second fully absent: batches never tear. *)
  Wal.force wal [ ("a1", 1); ("a2", 1) ] ~on_durable:(fun () -> ());
  ignore (Engine.run engine);
  Wal.crash wal;
  Wal.restart wal;
  Wal.force wal [ ("b1", 4096); ("b2", 1) ] ~on_durable:(fun () -> ());
  Wal.crash wal;
  (* The b-write was submitted before the crash, so it completes. *)
  ignore (Engine.run engine);
  Alcotest.(check (list string))
    "batches whole" [ "a1"; "a2"; "b1"; "b2" ]
    (rec_names wal)

(* ------------------------------------------------------------------ *)
(* WAL group commit                                                    *)
(* ------------------------------------------------------------------ *)

let make_gc_wal () =
  let engine, d = make_disk () in
  let wal =
    Wal.create ~engine ~disk:d ~owner:"g" ~initiator:0 ~size:snd
      ~header_bytes:64 ~group_commit:true ()
  in
  (engine, d, wal)

let test_group_commit_coalesces () =
  let engine, d, wal = make_gc_wal () in
  let done_at = ref [] in
  let force tag =
    Wal.force wal [ (tag, 100) ] ~on_durable:(fun () ->
        done_at := (tag, Time.to_ns (Engine.now engine)) :: !done_at)
  in
  (* First force goes out alone; the next three arrive while it is in
     flight and ride one coalesced transfer. *)
  force "a";
  force "b";
  force "c";
  force "d";
  ignore (Engine.run engine);
  let block = 10_240_000 in
  Alcotest.(check (list (pair string int)))
    "a alone, then b+c+d together"
    [ ("a", block); ("b", 2 * block); ("c", 2 * block); ("d", 2 * block) ]
    (List.rev !done_at);
  Alcotest.(check int) "two device transfers" 2
    (Disk.stats d).Disk.requests_completed;
  Alcotest.(check int) "caller accounting unchanged" 4
    (Wal.stats wal).Wal.sync_writes;
  Alcotest.(check (list string)) "record order preserved"
    [ "a"; "b"; "c"; "d" ] (rec_names wal)

let test_group_commit_crash_drops_buffer () =
  let engine, _, wal = make_gc_wal () in
  let fired = ref [] in
  Wal.force wal [ ("submitted", 1) ] ~on_durable:(fun () ->
      fired := "submitted" :: !fired);
  (* Buffered behind the in-flight write, never handed to the device. *)
  Wal.force wal [ ("buffered", 1) ] ~on_durable:(fun () ->
      fired := "buffered" :: !fired);
  Wal.crash wal;
  ignore (Engine.run engine);
  Alcotest.(check (list string)) "no callbacks" [] !fired;
  Alcotest.(check (list string))
    "in-flight survives, buffer dies" [ "submitted" ] (rec_names wal)

let test_group_commit_fenced () =
  let engine, d, wal = make_gc_wal () in
  Disk.expel d ~initiator:0;
  Wal.force wal [ ("x", 1) ] ~on_durable:(fun () ->
      Alcotest.fail "fenced write completed");
  ignore (Engine.run engine);
  Alcotest.(check int) "rejected" 1 (Wal.stats wal).Wal.rejected_writes;
  Alcotest.(check (list string)) "nothing durable" [] (rec_names wal)

(* ------------------------------------------------------------------ *)
(* SAN                                                                 *)
(* ------------------------------------------------------------------ *)

let make_san () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:5 in
  let net : unit Opc.Netsim.Network.t =
    Opc.Netsim.Network.create ~engine ~rng Opc.Netsim.Network.default_config
  in
  let a = Opc.Netsim.Network.register net ~name:"mds0" (fun _ -> ()) in
  let b = Opc.Netsim.Network.register net ~name:"mds1" (fun _ -> ()) in
  let san =
    San.create ~engine ~size:snd
      {
        San.disk = disk_config;
        fencing_delay = Time.span_ms 10;
        header_bytes = 64;
        shared_device = true;
        group_commit = false;
      }
  in
  let wal_a = San.add_partition san ~owner:a in
  let wal_b = San.add_partition san ~owner:b in
  (engine, san, (a, wal_a), (b, wal_b))

let test_san_partitions_share_device () =
  let engine, san, (_, wal_a), (_, wal_b) = make_san () in
  let order = ref [] in
  Wal.force wal_a [ ("a", 1) ] ~on_durable:(fun () -> order := "a" :: !order);
  Wal.force wal_b [ ("b", 1) ] ~on_durable:(fun () -> order := "b" :: !order);
  Alcotest.(check int) "both queued on one device" 2
    (Disk.queue_depth (San.disk san));
  ignore (Engine.run engine);
  Alcotest.(check (list string)) "FIFO across owners" [ "a"; "b" ]
    (List.rev !order)

let test_san_unfenced_foreign_read_raises () =
  let _, san, (a, _), (b, _) = make_san () in
  (match
     San.read_partition san ~reader:a ~target:b ~on_read:(fun _ -> ())
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unfenced foreign read must raise");
  (* Reading your own partition is always allowed. *)
  San.read_partition san ~reader:a ~target:a ~on_read:(fun _ -> ())

let test_san_fence_and_read () =
  let engine, san, (a, _), (b, wal_b) = make_san () in
  (* The victim commits one record, has a second in flight and a third
     queued when the fence lands. *)
  Wal.force wal_b [ ("committed", 1) ] ~on_durable:(fun () -> ());
  ignore (Engine.run engine);
  Wal.force wal_b [ ("in-flight", 1) ] ~on_durable:(fun () -> ());
  Wal.force wal_b [ ("queued", 1) ] ~on_durable:(fun () -> ());
  let seen = ref None in
  let fence_called_at = Time.to_ns (Engine.now engine) in
  let fenced_at = ref (-1) in
  San.fence san ~victim:b ~on_fenced:(fun () ->
      fenced_at := Time.to_ns (Engine.now engine);
      San.read_partition san ~reader:a ~target:b ~on_read:(fun records ->
          seen := Some (List.map fst records)));
  Alcotest.(check bool) "fenced flag" true (San.is_fenced san b);
  ignore (Engine.run engine);
  Alcotest.(check int) "fencing delay" (fence_called_at + 10_000_000)
    !fenced_at;
  (match !seen with
  | Some names ->
      Alcotest.(check (list string))
        "reader sees committed + in-flight, not the dropped queued write"
        [ "committed"; "in-flight" ] names
  | None -> Alcotest.fail "read never completed");
  (* The victim cannot write while fenced; after unfencing it can. *)
  let rejected = (Wal.stats wal_b).Wal.rejected_writes in
  Wal.force wal_b [ ("blocked", 1) ] ~on_durable:(fun () -> ());
  Alcotest.(check int) "write rejected" (rejected + 1)
    (Wal.stats wal_b).Wal.rejected_writes;
  San.unfence san b;
  Alcotest.(check bool) "unfenced" false (San.is_fenced san b);
  Wal.force wal_b [ ("free", 1) ] ~on_durable:(fun () -> ());
  ignore (Engine.run engine);
  Alcotest.(check bool) "writes again" true
    (List.mem "free" (List.map fst (Wal.durable wal_b)))

let () =
  Alcotest.run "storage"
    [
      ( "disk",
        [
          Alcotest.test_case "transfer span" `Quick test_transfer_span;
          Alcotest.test_case "fifo service" `Quick test_fifo_service;
          Alcotest.test_case "expel" `Quick test_expel;
          Alcotest.test_case "busy until" `Quick test_busy_until;
          Alcotest.test_case "validation" `Quick test_disk_validation;
        ] );
      ( "wal",
        [
          Alcotest.test_case "force durability" `Quick
            test_wal_force_durability;
          Alcotest.test_case "async" `Quick test_wal_async;
          Alcotest.test_case "crash suppression" `Quick
            test_wal_crash_suppresses_callbacks;
          Alcotest.test_case "fenced writes lost" `Quick
            test_wal_fenced_writes_lost;
          Alcotest.test_case "gc" `Quick test_wal_gc;
          Alcotest.test_case "gc shares" `Quick test_wal_gc_shares;
          Alcotest.test_case "batch atomicity" `Quick test_wal_batch_is_atomic;
          Alcotest.test_case "group commit coalesces" `Quick
            test_group_commit_coalesces;
          Alcotest.test_case "group commit crash" `Quick
            test_group_commit_crash_drops_buffer;
          Alcotest.test_case "group commit fenced" `Quick
            test_group_commit_fenced;
          QCheck_alcotest.to_alcotest prop_wal_gc_model;
        ] );
      ( "san",
        [
          Alcotest.test_case "shared device" `Quick
            test_san_partitions_share_device;
          Alcotest.test_case "unfenced read raises" `Quick
            test_san_unfenced_foreign_read_raises;
          Alcotest.test_case "fence and read" `Quick test_san_fence_and_read;
        ] );
    ]
