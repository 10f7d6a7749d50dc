(* The benchmark's own test, run by [dune runtest]:
   - a smoke run emits exactly the metrics BENCHMARK.json declares, each
     with its unit, and its output re-parses through Bench_json.Json_in;
   - every results file starts with the shared header;
   - two smoke runs agree on every exact metric;
   - compare flags a host slowdown beyond the bound and one more failed
     operation as worse, and a wobble inside the bound as unchanged. *)

module Json = Bench_json.Json
module Json_in = Bench_json.Json_in

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt
let get k j = match Json_in.member k j with Some v -> v | None -> fail "no field %s" k
let str k j = match Json_in.to_str (Json_in.member k j) with Some s -> s | None -> fail "no string %s" k
let items = function Json.List l -> l | _ -> fail "expected a list"
let fields = function Json.Obj f -> f | _ -> fail "expected an object"
let spec = Json_in.of_file "../BENCHMARK.json"

let declared key =
  List.map (fun m -> (str "name" m, str "unit" m)) (items (get key spec))

(* Everything the test writes goes under test_out/. *)
let out = "test_out"
let path name = Filename.concat out name

let run ~log args =
  Sys.command
    (String.concat " " (List.map Filename.quote ("./run.exe" :: args))
    ^ " > " ^ Filename.quote (path log))

let last_line path =
  let ic = open_in path in
  let rec go last = match input_line ic with l -> go l | exception End_of_file -> last in
  let l = go "" in
  close_in ic;
  l

let smoke name =
  if run ~log:(name ^ ".log") [ "--smoke"; "--out"; path name ] <> 0 then
    fail "smoke run %s failed" name;
  Json_in.of_file (Filename.concat (path name) "results.json")

let emitted key w = List.map (fun (name, m) -> (name, str "unit" m)) (fields (get key w))

let () =
  Json.mkdirs out;
  let a = smoke "a" and b = smoke "b" in
  if
    List.map fst (fields (get "header" a))
    <> [ "benchmark"; "git_revision"; "clock"; "smoke"; "seed"; "seconds"; "nproc"; "ocaml" ]
  then fail "the results header is not the shared one";
  List.iter
    (fun w ->
      List.iter
        (fun key ->
          if emitted key w <> declared key then
            fail "%s: %s metrics differ from BENCHMARK.json" (str "name" w) key)
        [ "end_to_end"; "per_layer" ])
    (items (get "workloads" a));
  (* The contract's summary line, printed last. *)
  let exit_code =
    run ~log:"c.log" [ "--smoke"; "--trace"; "0"; "--workload"; "write-4"; "--out"; path "c" ]
  in
  let line = Json_in.parse (last_line (path "c.log")) in
  if exit_code <> 0 || get "correct" line <> Json.Bool true then fail "summary line";
  if List.map fst (fields (get "metrics" line)) <> List.map fst (declared "end_to_end")
  then fail "the summary line does not carry the end-to-end metrics";
  (* Exact metrics repeat across processes. *)
  List.iter2
    (fun wa wb ->
      List.iter
        (fun key ->
          List.iter2
            (fun (name, ma) (_, mb) ->
              if get "exact" ma = Json.Bool true && get "value" ma <> get "value" mb
              then fail "%s %s differs between two smoke runs" (str "name" wa) name)
            (fields (get key wa)) (fields (get key wb)))
        [ "end_to_end"; "per_layer" ])
    (items (get "workloads" a)) (items (get "workloads" b))

(* compare on synthetic results: every metric 1.0 with no spread. *)
let results ?(failed = 0) ?(host = 1.0) () =
  let metric (name, unit_) =
    let v = if name = "host_ms_per_kop" then host else 1.0 in
    (name, Json.Obj [ ("value", Json.Float v); ("q1", Json.Float v); ("q3", Json.Float v); ("unit", Json.Str unit_) ])
  in
  Json.Obj
    [
      ( "workloads",
        Json.List
          [
            Json.Obj
              [
                ("name", Json.Str "write-4");
                ("failed", Json.Int failed);
                ("end_to_end", Json.Obj (List.map metric (declared "end_to_end")));
              ];
          ] );
    ]

(* Run compare against old.json; return its exit code and the verdict,
   the last word of the row for [metric]. *)
let compare name j ~metric =
  Json.to_file (path (name ^ ".json")) j;
  let code =
    run ~log:(name ^ ".log")
      [ "compare"; path "old.json"; path (name ^ ".json"); "--spec"; "../BENCHMARK.json" ]
  in
  let ic = open_in (path (name ^ ".log")) in
  let rec row () =
    match String.split_on_char ' ' (input_line ic) |> List.filter (( <> ) "") with
    | _ :: m :: rest when m = metric -> List.nth rest (List.length rest - 1)
    | _ -> row ()
    | exception End_of_file -> "missing"
  in
  let verdict = row () in
  close_in ic;
  (code, verdict)

let () =
  Json.to_file (path "old.json") (results ());
  let bound =
    List.find (fun m -> str "name" m = "host_ms_per_kop") (items (get "end_to_end" spec))
    |> Json_in.member "bound" |> Json_in.to_float |> Option.get
  in
  let expect name j ~metric want =
    let code, verdict = compare name j ~metric in
    if (code, verdict) <> ((if want = "worse" then 1 else 0), want) then
      fail "compare %s: %s judged %s (exit %d), expected %s" name metric verdict code want
  in
  expect "slow" (results ~host:(1. +. bound +. 0.05) ()) ~metric:"host_ms_per_kop" "worse";
  expect "failed" (results ~failed:1 ()) ~metric:"failed" "worse";
  expect "wobble" (results ~host:(1. +. (bound /. 4.)) ()) ~metric:"host_ms_per_kop" "unchanged"
