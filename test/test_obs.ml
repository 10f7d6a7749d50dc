(* Tests for the lib/obs span subsystem: tracer mechanics, the
   critical-path walk on hand-built span sets, the kill-shot
   cross-check of measured critical-path force/message counts against
   the paper's Table I for all four protocols, the Chrome trace-event
   export schema, and Obs.Json, the one JSON writer and strict reader
   every artifact goes through. *)

open Opc

let time ns = Simkit.Time.of_ns ns
let pname = Acp.Protocol.name

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)
(* ------------------------------------------------------------------ *)

let test_tracer_disabled () =
  let t = Obs.Tracer.disabled () in
  Alcotest.(check bool) "not recording" false (Obs.Tracer.is_recording t);
  let id =
    Obs.Tracer.start t ~time:(time 0) ~txn:1 ~category:Obs.Span.Phase
      ~track:"x" ~name:"n"
  in
  Alcotest.(check int) "disabled start returns -1" (-1) id;
  Obs.Tracer.finish t ~time:(time 5) id;
  Obs.Tracer.span t ~start:(time 0) ~stop:(time 1) ~txn:1 ~baseline:false
    ~category:Obs.Span.Network ~track:"x" ~name:"n";
  Obs.Tracer.instant t ~time:(time 0) ~txn:1 ~track:"x" "m";
  Alcotest.(check int) "nothing recorded" 0 (Obs.Tracer.length t)

let test_tracer_records () =
  let t = Obs.Tracer.create () in
  Alcotest.(check bool) "recording" true (Obs.Tracer.is_recording t);
  let id =
    Obs.Tracer.start t ~time:(time 10) ~txn:7 ~category:Obs.Span.Lock_wait
      ~track:"locks" ~name:"lock.wait"
  in
  let open_span = Obs.Tracer.get t id in
  Alcotest.(check bool) "open until finished" false open_span.Obs.Span.closed;
  Obs.Tracer.finish t ~time:(time 25) id;
  Obs.Tracer.instant t ~time:(time 30) ~txn:7 ~track:"mds0" "milestone";
  Obs.Tracer.span t ~start:(time 2) ~stop:(time 4) ~txn:7 ~baseline:true
    ~category:Obs.Span.Network ~track:"net" ~name:"update_req";
  Alcotest.(check int) "three spans" 3 (Obs.Tracer.length t);
  let s = Obs.Tracer.get t id in
  Alcotest.(check bool) "closed" true s.Obs.Span.closed;
  Alcotest.(check int) "duration" 15
    (Simkit.Time.span_to_ns (Obs.Span.duration s));
  let count = ref 0 in
  Obs.Tracer.iter (fun _ -> incr count) t;
  Alcotest.(check int) "iter covers all" 3 !count

(* ------------------------------------------------------------------ *)
(* Critical-path walk on synthetic spans                               *)
(* ------------------------------------------------------------------ *)

let ns = Simkit.Time.span_to_ns

let test_walk_attribution () =
  let t = Obs.Tracer.create () in
  let sp ~start ~stop ~cat name =
    Obs.Tracer.span t ~start:(time start) ~stop:(time stop) ~txn:7
      ~baseline:false ~category:cat ~track:"x" ~name
  in
  sp ~start:0 ~stop:100 ~cat:Obs.Span.Network "update_req";
  sp ~start:100 ~stop:300 ~cat:Obs.Span.Lock_wait "lock.wait";
  sp ~start:300 ~stop:800 ~cat:Obs.Span.Log_force "force";
  (* an async append nobody waits on must not be attributed *)
  Obs.Tracer.span t ~start:(time 300) ~stop:(time 900) ~txn:7 ~baseline:false
    ~category:Obs.Span.Log_append ~track:"x" ~name:"append";
  Obs.Tracer.span t ~start:(time 0) ~stop:(time 1000) ~txn:7 ~baseline:false
    ~category:Obs.Span.Phase ~track:"txn" ~name:Obs.Breakdown.window_name;
  match Obs.Breakdown.paths t with
  | [ p ] ->
      Alcotest.(check int) "window" 1000 (ns p.Obs.Breakdown.window);
      Alcotest.(check int) "network" 100 (ns p.network);
      Alcotest.(check int) "lock wait" 200 (ns p.lock_wait);
      Alcotest.(check int) "log force" 500 (ns p.log_force);
      Alcotest.(check int) "compute gap" 200 (ns p.compute);
      Alcotest.(check int) "disk queue" 0 (ns p.disk_queue);
      Alcotest.(check int) "forces" 1 p.forces;
      Alcotest.(check int) "messages" 1 p.messages
  | ps -> Alcotest.failf "expected one path, got %d" (List.length ps)

(* Of two spans ending together, the later-starting (shorter) one gated
   progress; the longer one was overlapped and must not be charged —
   how EP's eager coordinator prepare is discounted. *)
let test_walk_tie_break () =
  let t = Obs.Tracer.create () in
  Obs.Tracer.span t ~start:(time 0) ~stop:(time 1000) ~txn:3 ~baseline:false
    ~category:Obs.Span.Network ~track:"x" ~name:"overlapped";
  Obs.Tracer.span t ~start:(time 800) ~stop:(time 1000) ~txn:3 ~baseline:false
    ~category:Obs.Span.Log_force ~track:"x" ~name:"force";
  Obs.Tracer.span t ~start:(time 0) ~stop:(time 1000) ~txn:3 ~baseline:false
    ~category:Obs.Span.Phase ~track:"txn" ~name:Obs.Breakdown.window_name;
  match Obs.Breakdown.paths t with
  | [ p ] ->
      Alcotest.(check int) "force wins the tie" 200 (ns p.Obs.Breakdown.log_force);
      Alcotest.(check int) "overlapped wait uncharged" 0 (ns p.network);
      Alcotest.(check int) "rest is compute" 800 (ns p.compute);
      Alcotest.(check int) "forces" 1 p.forces;
      Alcotest.(check int) "messages" 0 p.messages
  | ps -> Alcotest.failf "expected one path, got %d" (List.length ps)

let test_walk_clamps_and_filters () =
  let t = Obs.Tracer.create () in
  (* starts before the window: only the in-window part is charged *)
  Obs.Tracer.span t ~start:(time 0) ~stop:(time 150) ~txn:9 ~baseline:false
    ~category:Obs.Span.Lock_wait ~track:"x" ~name:"early";
  (* other transaction: invisible *)
  Obs.Tracer.span t ~start:(time 150) ~stop:(time 200) ~txn:4 ~baseline:false
    ~category:Obs.Span.Log_force ~track:"x" ~name:"foreign";
  (* unattributed (txn = -1) spans are visible to every window *)
  Obs.Tracer.span t ~start:(time 150) ~stop:(time 180) ~txn:(-1)
    ~baseline:false ~category:Obs.Span.Disk_queue ~track:"x" ~name:"queue";
  Obs.Tracer.span t ~start:(time 100) ~stop:(time 200) ~txn:9 ~baseline:false
    ~category:Obs.Span.Phase ~track:"txn" ~name:Obs.Breakdown.window_name;
  match Obs.Breakdown.paths t with
  | [ p ] ->
      Alcotest.(check int) "clamped lock wait" 50 (ns p.Obs.Breakdown.lock_wait);
      Alcotest.(check int) "unattributed queue" 30 (ns p.disk_queue);
      Alcotest.(check int) "foreign force invisible" 0 (ns p.log_force);
      Alcotest.(check int) "compute fills the rest" 20 (ns p.compute)
  | ps -> Alcotest.failf "expected one path, got %d" (List.length ps)

let test_summarize_empty_and_uniform () =
  let s = Obs.Breakdown.summarize [] in
  Alcotest.(check int) "no txns" 0 s.Obs.Breakdown.txns;
  Alcotest.(check (option int)) "no uniform forces" None s.uniform_forces;
  let p txn forces =
    {
      Obs.Breakdown.txn;
      window = Simkit.Time.span_ns 100;
      network = Simkit.Time.span_ns 40;
      log_force = Simkit.Time.span_ns 60;
      disk_queue = Simkit.Time.zero_span;
      lock_wait = Simkit.Time.zero_span;
      compute = Simkit.Time.zero_span;
      forces;
      messages = 2;
    }
  in
  let s = Obs.Breakdown.summarize [ p 1 3; p 2 3 ] in
  Alcotest.(check (option int)) "uniform forces" (Some 3) s.uniform_forces;
  Alcotest.(check (option int)) "uniform messages" (Some 2) s.uniform_messages;
  let s = Obs.Breakdown.summarize [ p 1 3; p 2 4 ] in
  Alcotest.(check (option int)) "non-uniform forces" None s.uniform_forces

(* ------------------------------------------------------------------ *)
(* Kill-shot: measured critical path vs the paper's Table I            *)
(* ------------------------------------------------------------------ *)

(* For isolated two-server CREATEs, the walk's force and message counts
   must equal Table I's critical-path columns, protocol by protocol.
   This ties the span instrumentation, the walk and the analytic cost
   model together: a bug in any of the three breaks the equality. *)
let test_breakdown_matches_table1 () =
  List.iter
    (fun kind ->
      let costs = Acp.Cost_model.paper_table1 kind in
      let p = Experiment.run_breakdown ~count:5 kind in
      let s = p.Experiment.summary in
      Alcotest.(check int) (pname kind ^ " txns") 5 s.Obs.Breakdown.txns;
      Alcotest.(check (option int))
        (pname kind ^ " critical forces")
        (Some costs.Acp.Cost_model.critical_sync)
        s.uniform_forces;
      Alcotest.(check (option int))
        (pname kind ^ " critical messages")
        (Some costs.Acp.Cost_model.critical_messages)
        s.uniform_messages;
      (* L1PC is logless: its force share must be identically zero, the
         logged protocols must actually pay theirs. *)
      let force_ok =
        if kind = Acp.Protocol.Lp1 then s.mean_log_force = 0.
        else s.mean_log_force > 0.
      in
      Alcotest.(check bool)
        (pname kind ^ " decomposition is positive")
        true
        (s.mean_network >= 0. && force_ok && s.mean_window > 0.))
    Acp.Protocol.all

(* Every nanosecond of every window lands in exactly one category. *)
let test_breakdown_conservation () =
  List.iter
    (fun kind ->
      let p = Experiment.run_breakdown ~count:3 kind in
      let paths = Obs.Breakdown.paths p.Experiment.tracer in
      Alcotest.(check bool)
        (pname kind ^ " measured some paths")
        true
        (List.length paths >= 3);
      List.iter
        (fun (q : Obs.Breakdown.path) ->
          let total =
            ns q.network + ns q.log_force + ns q.disk_queue + ns q.lock_wait
            + ns q.compute
          in
          Alcotest.(check int)
            (Printf.sprintf "%s txn %d conserved" (pname kind) q.txn)
            (ns q.window) total)
        paths)
    Acp.Protocol.all

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export schema                                    *)
(* ------------------------------------------------------------------ *)

module Json = Obs.Json

let test_export_schema () =
  let p = Experiment.run_breakdown ~count:2 Acp.Protocol.Opc in
  let s = Obs.Export.to_string p.Experiment.tracer in
  let json =
    match Json.parse s with
    | j -> j
    | exception Json.Parse_error msg ->
        Alcotest.failf "export is not JSON: %s" msg
  in
  let events =
    match Json.member "traceEvents" json with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  let phases = Hashtbl.create 4 in
  List.iter
    (fun ev ->
      let str k =
        match Json.member k ev with
        | Some (Json.Str v) -> v
        | _ -> Alcotest.failf "event missing string %S" k
      in
      let num k =
        match Json.to_float (Json.member k ev) with
        | Some v -> v
        | None -> Alcotest.failf "event %S missing number %S" (str "name") k
      in
      let ph = str "ph" in
      Hashtbl.replace phases ph ();
      ignore (num "pid");
      ignore (num "tid");
      match ph with
      | "X" ->
          Alcotest.(check bool)
            "dur non-negative" true
            (num "dur" >= 0.0);
          Alcotest.(check bool) "ts non-negative" true (num "ts" >= 0.0);
          let cat = str "cat" in
          Alcotest.(check bool)
            (Printf.sprintf "category %S known" cat)
            true
            (List.mem cat
               [
                 "network";
                 "log_force";
                 "log_append";
                 "disk_queue";
                 "lock_wait";
                 "compute";
                 "phase";
                 "other";
               ]);
          (match Json.member "args" ev with
          | Some (Json.Obj _) -> ()
          | _ -> Alcotest.fail "X event missing args object")
      | "M" ->
          Alcotest.(check string) "metadata name" "thread_name" (str "name")
      | other -> Alcotest.failf "unexpected phase %S" other)
    events;
  Alcotest.(check bool) "has complete events" true (Hashtbl.mem phases "X");
  Alcotest.(check bool) "has track metadata" true (Hashtbl.mem phases "M")

let test_export_creates_parent_dirs () =
  let t = Obs.Tracer.create () in
  Obs.Tracer.span t ~start:(time 0) ~stop:(time 10) ~txn:1 ~baseline:false
    ~category:Obs.Span.Network ~track:"net" ~name:"m";
  let dir = Filename.temp_file "obs_export" "" in
  Sys.remove dir;
  let path = Filename.concat (Filename.concat dir "a/b") "trace.json" in
  Obs.Export.to_file path t;
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  let ic = open_in path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  (match Json.parse (String.trim contents) with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "exported file is not a JSON object"
  | exception Json.Parse_error msg ->
      Alcotest.failf "exported file invalid: %s" msg);
  Sys.remove path

(* A %.6g float writer loses this: the timestamp is past 1e7 us. *)
let test_export_ts_precision () =
  let t = Obs.Tracer.create () in
  Obs.Tracer.span t ~start:(time 12_345_678_901) ~stop:(time 12_345_679_002)
    ~txn:1 ~baseline:false ~category:Obs.Span.Network ~track:"net" ~name:"m";
  let event =
    match Json.member "traceEvents" (Json.parse (Obs.Export.to_string t)) with
    | Some (Json.List evs) ->
        List.find (fun ev -> Json.member "ph" ev = Some (Json.Str "X")) evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let num k = Option.get (Json.to_float (Json.member k event)) in
  Alcotest.(check (float 0.)) "ts" (12_345_678_901. /. 1e3) (num "ts");
  Alcotest.(check (float 0.)) "dur" (101. /. 1e3) (num "dur")

(* ------------------------------------------------------------------ *)
(* Obs.Json: the one writer and strict reader                          *)
(* ------------------------------------------------------------------ *)

let roundtrip_str s =
  match Json.parse (Json.to_string (Json.Str s)) with
  | Json.Str s' -> s'
  | _ -> Alcotest.fail "escaped string parsed as a non-string"

let test_json_bytes () =
  (* every byte, alone and sandwiched, survives write -> parse *)
  for c = 0 to 255 do
    let s = Printf.sprintf "a%cb" (Char.chr c) in
    Alcotest.(check string) (Printf.sprintf "byte 0x%02x" c) s (roundtrip_str s)
  done;
  List.iter
    (fun s ->
      Alcotest.(check string) ("literal " ^ String.escaped s) s (roundtrip_str s))
    [
      "";
      "plain";
      "with \"quotes\" and \\backslashes\\";
      "tab\there\nnewline\rreturn\bbackspace\012formfeed";
      "\x00\x01\x1f\x7f\xff";
      "path\\to\\nowhere";
      "{\"not\":\"json\"}";
    ]

(* Strings over all 256 byte values; ints up to both extremes; finite
   floats from random bit patterns plus integral, subnormal, huge and
   past-1e15 integral values; nested lists and objects. *)
let gen_json =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_range 0 12) in
  let finite_bits =
    map
      (fun b ->
        let f = Int64.float_of_bits b in
        if Float.is_finite f then f else 0.)
      ui64
  in
  let float_ =
    oneof
      [
        finite_bits;
        map float_of_int (int_range (-1_000_000) 1_000_000);
        oneofl
          [
            0.; -0.; 0.1; 1e300; -1e300; 5e-324; 2.2250738585072009e-308;
            1e15; 1234567890123456.; 4e18; 12_345_678_901. /. 1e3;
          ];
      ]
  in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (oneof [ int; oneofl [ min_int; max_int; 0 ] ]);
        map (fun f -> Json.Float f) float_;
        map (fun s -> Json.Str s) str;
      ]
  in
  sized_size (int_bound 20)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           let sub = list_size (int_bound 4) (self (n / 2)) in
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) sub);
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4) (pair str (self (n / 2)))) );
             ])

let test_json_trees () =
  QCheck.Test.make ~count:1000 ~name:"value trees round-trip"
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.parse (Json.to_string v) = v)
  |> QCheck_alcotest.to_alcotest

let test_json_rejects () =
  List.iter
    (fun doc ->
      match Json.parse doc with
      | v -> Alcotest.failf "accepted %S as %s" doc (Json.to_string v)
      | exception Json.Parse_error _ -> ())
    [
      "{} x"; "1 2"; "\"abc"; "\"\\u12"; "\"\\u00\""; "\"\\u12g4\"";
      "\"\\x\""; "tru"; "[tru]"; "[tree]"; "nul"; "[nill]"; "nan"; "[1 2]";
      "{\"a\":1 \"b\":2}"; "{\"a\" 1}"; "-"; "[-]"; ""; "   "; "01"; "1.";
      ".5"; "+1"; "[1,]"; "{\"a\":1,}"; "\"a\x01b\"";
    ]

let test_json_non_finite () =
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%h" f) "[null]"
        (Json.to_string (Json.List [ Json.Float f ])))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_json_unicode_escape () =
  Alcotest.(check bool) "\\u00e9 is UTF-8" true
    (Json.parse "\"\\u00e9\"" = Json.Str "\xc3\xa9");
  Alcotest.(check bool) "\\u20ac is UTF-8" true
    (Json.parse "\"\\u20AC\"" = Json.Str "\xe2\x82\xac")

(* Incident bundles are compared byte for byte across changes, so pin
   one journal line's keys, order and escaping. *)
let test_json_journal_line () =
  let e =
    {
      Obs.Journal.time = time 5;
      node = 1;
      kind = Obs.Journal.Fault_injected { index = 3; desc = "a\"b" };
    }
  in
  Alcotest.(check string) "journal line"
    {|{"t_ns":5,"node":1,"event":"fault.injected","index":3,"desc":"a\"b"}|}
    (Json.to_string (Obs.Journal.to_json e))

(* ------------------------------------------------------------------ *)
(* Coverage                                                            *)
(* ------------------------------------------------------------------ *)

let test_coverage_disabled () =
  let c = Obs.Coverage.disabled () in
  Alcotest.(check bool) "not recording" false (Obs.Coverage.is_recording c);
  Obs.Coverage.hit c 3;
  Alcotest.(check int) "size 0" 0 (Obs.Coverage.size c);
  Alcotest.(check int) "count 0" 0 (Obs.Coverage.count c 3);
  Alcotest.(check int) "no last hit" (-1) (Obs.Coverage.last_hit c);
  Alcotest.(check int) "no distinct edges" 0 (Obs.Coverage.hit_edges c);
  Alcotest.(check int) "empty snapshot" 0
    (Array.length (Obs.Coverage.counts c));
  (* Merging a disabled tap must leave the accumulator alone. *)
  let acc = [| 7; 7 |] in
  Obs.Coverage.merge_into ~acc c;
  Alcotest.(check (list int)) "merge no-op" [ 7; 7 ] (Array.to_list acc)

let test_coverage_counts () =
  let c = Obs.Coverage.create ~size:4 in
  Alcotest.(check bool) "recording" true (Obs.Coverage.is_recording c);
  Obs.Coverage.hit c 1;
  Obs.Coverage.hit c 1;
  Obs.Coverage.hit c 3;
  (* A shared state machine passes -1 for edges its variant lacks. *)
  Obs.Coverage.hit c (-1);
  Alcotest.(check int) "edge 1 twice" 2 (Obs.Coverage.count c 1);
  Alcotest.(check int) "edge 0 never" 0 (Obs.Coverage.count c 0);
  Alcotest.(check int) "last hit" 3 (Obs.Coverage.last_hit c);
  Alcotest.(check int) "distinct" 2 (Obs.Coverage.hit_edges c);
  Alcotest.(check int) "total" 3 (Obs.Coverage.total c);
  Alcotest.(check (list int)) "snapshot" [ 0; 2; 0; 1 ]
    (Array.to_list (Obs.Coverage.counts c));
  (* The snapshot is a copy, not a view. *)
  (Obs.Coverage.counts c).(1) <- 99;
  Alcotest.(check int) "snapshot detached" 2 (Obs.Coverage.count c 1)

let test_coverage_merge () =
  let c = Obs.Coverage.create ~size:3 in
  Obs.Coverage.hit c 0;
  Obs.Coverage.hit c 2;
  let acc = [| 1; 0; 5 |] in
  Obs.Coverage.merge_into ~acc c;
  Alcotest.(check (list int)) "merged" [ 2; 0; 6 ] (Array.to_list acc);
  Alcotest.check_raises "size mismatch rejected"
    (Invalid_argument "Obs.Coverage.merge_into: size mismatch") (fun () ->
      Obs.Coverage.merge_into ~acc:[| 0; 0 |] c)

(* Every declared edge id must be dense and self-describing: ids round
   trip through the registry and each protocol's slice is non-empty. *)
let test_edge_registry () =
  Alcotest.(check int) "dense ids" Acp.Edges.count
    (List.length Acp.Edges.all);
  List.iteri
    (fun i (e : Acp.Edges.edge) ->
      Alcotest.(check int) "id in declaration order" i e.id)
    Acp.Edges.all;
  List.iter
    (fun kind ->
      let edges = Acp.Edges.of_protocol kind in
      Alcotest.(check bool)
        (pname kind ^ " declares edges")
        true
        (List.length edges > 0);
      List.iter
        (fun (e : Acp.Edges.edge) ->
          Alcotest.(check bool) "registry round trip" true
            (Acp.Edges.get e.id == e))
        edges)
    Acp.Protocol.all

let () =
  Alcotest.run "obs"
    [
      ( "tracer",
        [
          Alcotest.test_case "disabled is inert" `Quick test_tracer_disabled;
          Alcotest.test_case "records spans" `Quick test_tracer_records;
        ] );
      ( "walk",
        [
          Alcotest.test_case "attribution" `Quick test_walk_attribution;
          Alcotest.test_case "tie break" `Quick test_walk_tie_break;
          Alcotest.test_case "clamps and filters" `Quick
            test_walk_clamps_and_filters;
          Alcotest.test_case "summarize" `Quick test_summarize_empty_and_uniform;
        ] );
      ( "cross-check",
        [
          Alcotest.test_case "critical path matches Table I" `Quick
            test_breakdown_matches_table1;
          Alcotest.test_case "decomposition conserves the window" `Quick
            test_breakdown_conservation;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome trace schema" `Quick test_export_schema;
          Alcotest.test_case "ts keeps nanoseconds" `Quick
            test_export_ts_precision;
          Alcotest.test_case "creates parent dirs" `Quick
            test_export_creates_parent_dirs;
        ] );
      ( "json",
        [
          Alcotest.test_case "all bytes round-trip" `Quick test_json_bytes;
          test_json_trees ();
          Alcotest.test_case "strict rejects" `Quick test_json_rejects;
          Alcotest.test_case "non-finite floats write null" `Quick
            test_json_non_finite;
          Alcotest.test_case "unicode escapes read as UTF-8" `Quick
            test_json_unicode_escape;
          Alcotest.test_case "journal line format" `Quick
            test_json_journal_line;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "disabled is inert" `Quick test_coverage_disabled;
          Alcotest.test_case "counts and snapshots" `Quick
            test_coverage_counts;
          Alcotest.test_case "merge" `Quick test_coverage_merge;
          Alcotest.test_case "edge registry is dense" `Quick
            test_edge_registry;
        ] );
    ]
