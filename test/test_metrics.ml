(* Tests for the metrics toolkit: ledger, histogram, table. *)

open Opc.Metrics
open Opc.Simkit

let test_ledger_counts () =
  let l = Ledger.create () in
  Alcotest.(check int) "zero default" 0 (Ledger.get l "nope");
  Ledger.incr l "a";
  Ledger.incr l "a";
  Ledger.add l "b" 5;
  Alcotest.(check int) "incr" 2 (Ledger.get l "a");
  Alcotest.(check int) "add" 5 (Ledger.get l "b");
  Alcotest.(check (list string)) "keys sorted" [ "a"; "b" ] (Ledger.keys l);
  Alcotest.(check (list (pair string int)))
    "snapshot"
    [ ("a", 2); ("b", 5) ]
    (Ledger.snapshot l)

let test_ledger_diff () =
  let l = Ledger.create () in
  Ledger.add l "x" 3;
  let before = Ledger.snapshot l in
  Ledger.add l "x" 4;
  Ledger.incr l "y";
  Alcotest.(check (list (pair string int)))
    "diff"
    [ ("x", 4); ("y", 1) ]
    (Ledger.diff ~after:l ~before)

let test_ledger_reset () =
  let l = Ledger.create () in
  let c = Ledger.counter l "a" in
  Ledger.incr l "a";
  Ledger.bump c;
  Ledger.reset l;
  Alcotest.(check (list string)) "empty" [] (Ledger.keys l);
  (* A counter bound before the reset counts into the emptied ledger. *)
  Ledger.bump c;
  Alcotest.(check int) "counter after reset" 1 (Ledger.get l "a")

(* Small key alphabet so random scripts collide on keys — the
   interesting cases for diff are keys bumped on both sides of the
   snapshot, only before, and only after. *)
let ledger_script_gen =
  QCheck2.Gen.(
    list_size (int_bound 30)
      (pair (map (Printf.sprintf "k%d") (int_bound 7)) (int_range 0 20)))

(* Counters are one more input: after the snapshot, some keys are bumped
   through counters bound before it, while a twin ledger takes every bump
   through [incr]. Both must read alike, and a counter that is bound but
   never bumped adds no key. *)
let prop_ledger_diff_is_per_key_delta =
  QCheck2.Test.make ~name:"diff after incr = per-key delta" ~count:200
    QCheck2.Gen.(
      triple ledger_script_gen ledger_script_gen (list_repeat 8 bool))
    (fun (before_ops, after_ops, via_counter) ->
      let l = Ledger.create () and twin = Ledger.create () in
      let counters =
        List.mapi
          (fun i use ->
            let k = Printf.sprintf "k%d" i in
            (k, (use, Ledger.counter l k)))
          via_counter
      in
      let _unbumped = Ledger.counter l "never" in
      List.iter
        (fun (k, n) ->
          Ledger.add l k n;
          Ledger.add twin k n)
        before_ops;
      let before = Ledger.snapshot l in
      let base k =
        match List.assoc_opt k before with Some v -> v | None -> 0
      in
      List.iter
        (fun (k, n) ->
          Ledger.add l k n;
          Ledger.add twin k n;
          Ledger.incr twin k;
          match List.assoc k counters with
          | true, c -> Ledger.bump c
          | false, _ -> Ledger.incr l k)
        after_ops;
      let diff = Ledger.diff ~after:l ~before in
      (* Every live key's reported delta is exactly live minus snapshot,
         with keys absent from the snapshot counting from zero. *)
      List.for_all
        (fun k ->
          (match List.assoc_opt k diff with Some v -> v | None -> 0)
          = Ledger.get l k - base k)
        (Ledger.keys l)
      && Ledger.keys l = Ledger.keys twin
      && Ledger.snapshot l = Ledger.snapshot twin
      && diff = Ledger.diff ~after:twin ~before
      && not (List.mem "never" (Ledger.keys l)))

let prop_ledger_snapshot_sorted =
  QCheck2.Test.make ~name:"snapshot is sorted, unique and live" ~count:200
    ledger_script_gen
    (fun ops ->
      let l = Ledger.create () in
      List.iter (fun (k, n) -> Ledger.add l k n) ops;
      let snap = Ledger.snapshot l in
      let ks = List.map fst snap in
      List.sort String.compare ks = ks
      && List.length (List.sort_uniq String.compare ks) = List.length ks
      && List.for_all (fun (k, v) -> Ledger.get l k = v) snap)

let test_histogram_stats () =
  let h = Histogram.create () in
  Alcotest.(check bool) "empty" true (Histogram.is_empty h);
  Alcotest.(check int) "mean of empty" 0 (Time.span_to_ns (Histogram.mean h));
  List.iter
    (fun ms -> Histogram.record h (Time.span_ms ms))
    [ 5; 1; 3; 2; 4 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check int) "mean" 3_000_000 (Time.span_to_ns (Histogram.mean h));
  Alcotest.(check int) "min" 1_000_000 (Time.span_to_ns (Histogram.min_value h));
  Alcotest.(check int) "max" 5_000_000 (Time.span_to_ns (Histogram.max_value h));
  Alcotest.(check int) "median" 3_000_000
    (Time.span_to_ns (Histogram.percentile h 50.0));
  Alcotest.(check int) "p100 = max" 5_000_000
    (Time.span_to_ns (Histogram.percentile h 100.0));
  Alcotest.(check int) "total" 15_000_000 (Time.span_to_ns (Histogram.total h));
  Alcotest.check_raises "bad rank"
    (Invalid_argument "Histogram.percentile: rank outside [0, 100]")
    (fun () -> ignore (Histogram.percentile h 101.0))

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a (Time.span_ms 1);
  Histogram.record b (Time.span_ms 3);
  let m = Histogram.merge a b in
  Alcotest.(check int) "merged count" 2 (Histogram.count m);
  Alcotest.(check int) "merged mean" 2_000_000
    (Time.span_to_ns (Histogram.mean m));
  (* Sources untouched. *)
  Alcotest.(check int) "a intact" 1 (Histogram.count a)

let prop_histogram_percentiles_monotone =
  QCheck2.Test.make ~name:"percentiles are monotone" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (int_bound 1_000_000))
    (fun samples ->
      let h = Histogram.create () in
      List.iter (fun ns -> Histogram.record h (Time.span_ns ns)) samples;
      let ranks = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ] in
      let values =
        List.map (fun r -> Time.span_to_ns (Histogram.percentile h r)) ranks
      in
      List.sort Int.compare values = values
      && Time.span_to_ns (Histogram.max_value h)
         = List.fold_left max 0 samples)

(* percentile is definitionally quantile at p/100 — pin the equivalence
   over random samples and ranks, including the endpoints. *)
let prop_percentile_is_scaled_quantile =
  QCheck2.Test.make ~name:"percentile p = quantile (p/100)" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 50) (int_bound 1_000_000))
        (int_bound 1000))
    (fun (samples, rank_tenths) ->
      let h = Histogram.create () in
      List.iter (fun ns -> Histogram.record h (Time.span_ns ns)) samples;
      let p = float_of_int rank_tenths /. 10.0 in
      Time.span_to_ns (Histogram.percentile h p)
      = Time.span_to_ns (Histogram.quantile h (p /. 100.0)))

let test_histogram_edge_cases () =
  let empty = Histogram.create () in
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "empty p%.0f" p)
        0
        (Time.span_to_ns (Histogram.percentile empty p)))
    [ 0.0; 50.0; 100.0 ];
  let single = Histogram.create () in
  Histogram.record single (Time.span_ms 7);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "single p%.0f" p)
        7_000_000
        (Time.span_to_ns (Histogram.percentile single p)))
    [ 0.0; 50.0; 100.0 ];
  let h = Histogram.create () in
  List.iter (fun ms -> Histogram.record h (Time.span_ms ms)) [ 4; 2; 9 ];
  Alcotest.(check int) "p0 = min" 2_000_000
    (Time.span_to_ns (Histogram.percentile h 0.0));
  Alcotest.(check int) "p100 = max" 9_000_000
    (Time.span_to_ns (Histogram.percentile h 100.0));
  Alcotest.check_raises "negative rank"
    (Invalid_argument "Histogram.percentile: rank outside [0, 100]")
    (fun () -> ignore (Histogram.percentile h (-1.0)));
  Alcotest.check_raises "nan rank"
    (Invalid_argument "Histogram.percentile: rank outside [0, 100]")
    (fun () -> ignore (Histogram.percentile h Float.nan));
  Alcotest.check_raises "nan quantile"
    (Invalid_argument "Histogram.quantile: rank outside [0, 1]")
    (fun () -> ignore (Histogram.quantile h Float.nan))

let test_table_rendering () =
  let t = Table.create ~columns:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_separator t;
  Table.add_rowf t "%s|%d" "beta-very-long" 22;
  let s = Table.render t in
  let lines = String.split_on_char '\n' s in
  (* header + 2 rows + 4 rules + trailing empty *)
  Alcotest.(check int) "line count" 8 (List.length lines);
  let widths =
    List.filter (fun l -> l <> "") lines |> List.map String.length
  in
  (match widths with
  | w :: rest ->
      Alcotest.(check bool) "aligned" true (List.for_all (( = ) w) rest)
  | [] -> Alcotest.fail "no output");
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let () =
  Alcotest.run "metrics"
    [
      ( "ledger",
        [
          Alcotest.test_case "counts" `Quick test_ledger_counts;
          Alcotest.test_case "diff" `Quick test_ledger_diff;
          Alcotest.test_case "reset" `Quick test_ledger_reset;
          QCheck_alcotest.to_alcotest prop_ledger_diff_is_per_key_delta;
          QCheck_alcotest.to_alcotest prop_ledger_snapshot_sorted;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "stats" `Quick test_histogram_stats;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "edge cases" `Quick test_histogram_edge_cases;
          QCheck_alcotest.to_alcotest prop_histogram_percentiles_monotone;
          QCheck_alcotest.to_alcotest prop_percentile_is_scaled_quantile;
        ] );
      ("table", [ Alcotest.test_case "rendering" `Quick test_table_rendering ]);
    ]
