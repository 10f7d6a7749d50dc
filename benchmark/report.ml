(* Results: the human-readable tables, the results JSON, and the
   comparison of two results files under BENCHMARK.json's bounds. *)

module Json = Bench_json.Json
module Json_in = Bench_json.Json_in

(* Json.to_string rounds floats to six digits; results keep every digit
   (the shortest form that reads back to the same float). *)
let rec write_exact buf = function
  | Json.Float f when Float.is_finite f ->
      let s =
        List.find
          (fun s -> float_of_string s = f)
          [ Printf.sprintf "%.15g" f; Printf.sprintf "%.16g" f; Printf.sprintf "%.17g" f ]
      in
      Buffer.add_string buf s
  | Json.List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write_exact buf x)
        xs;
      Buffer.add_char buf ']'
  | Json.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Json.write buf (Json.Str k);
          Buffer.add_char buf ':';
          write_exact buf v)
        fields;
      Buffer.add_char buf '}'
  | leaf -> Json.write buf leaf

let to_string j =
  let buf = Buffer.create 4096 in
  write_exact buf j;
  Buffer.contents buf

let to_file path j =
  Json.mkdirs (Filename.dirname path);
  let oc = open_out path in
  output_string oc (to_string j);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Header                                                              *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  String.trim s

(* The checked-out commit, read from .git without running git; the
   benchmark also runs from exported trees, which have none. *)
let git_revision () =
  try
    let head = read_file ".git/HEAD" in
    match String.split_on_char ' ' head with
    | [ "ref:"; ref_ ] -> (
        try read_file (Filename.concat ".git" ref_)
        with Sys_error _ ->
          let line =
            List.find
              (fun l -> String.ends_with ~suffix:(" " ^ ref_) l)
              (String.split_on_char '\n' (read_file ".git/packed-refs"))
          in
          List.hd (String.split_on_char ' ' line))
    | _ -> head
  with Sys_error _ | Not_found -> "unknown"

let header ~smoke ~seed ~seconds =
  Json.Obj
    [
      ("benchmark", Json.Str "opc-benchmark");
      ("git_revision", Json.Str (git_revision ()));
      ("clock", Json.Str "monotonic wall clock, scaled by each workload's speed");
      ("smoke", Json.Bool smoke);
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
    ]

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let correct (r : Measure.result) = r.failures = []

let metric_json (m : Catalog.metric) fields =
  ( m.name,
    Json.Obj (fields @ [ ("unit", Json.Str m.unit_); ("exact", Json.Bool m.exact) ]) )

let result_json (r : Measure.result) =
  Json.Obj
    [
      ("name", Json.Str r.workload.name);
      ("correct", Json.Bool (correct r));
      ("failures", Json.List (List.map (fun s -> Json.Str s) r.failures));
      ("reps", Json.Int r.reps);
      ("speed", Json.Float r.speed);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "end_to_end",
        Json.Obj
          (List.map
             (fun (m, (s : Measure.stat)) ->
               metric_json m
                 [
                   ("value", Json.Float s.value);
                   ("q1", Json.Float s.q1);
                   ("q3", Json.Float s.q3);
                 ])
             r.end_to_end) );
      ( "per_layer",
        Json.Obj
          (List.map
             (fun (m, v) -> metric_json m [ ("value", Json.Float v) ])
             r.per_layer) );
    ]

let results_json ~header results =
  Json.Obj
    [ ("header", header); ("workloads", Json.List (List.map result_json results)) ]

(* The last line of standard output: one workload's metrics, end to end
   or per layer. Several workloads prefix each name with their own. *)
let summary_line ~trace results =
  let metrics =
    List.concat_map
      (fun (r : Measure.result) ->
        let prefix =
          match results with [ _ ] -> "" | _ -> r.workload.name ^ "."
        in
        let entry (m : Catalog.metric) v =
          ( prefix ^ m.name,
            Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.unit_) ] )
        in
        if trace then List.map (fun (m, v) -> entry m v) r.per_layer
        else List.map (fun (m, (s : Measure.stat)) -> entry m s.value) r.end_to_end)
      results
  in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 results in
  to_string
    (Json.Obj
       [
         ("correct", Json.Bool (List.for_all correct results));
         ("attempted", Json.Int (total (fun r -> r.Measure.attempted)));
         ("failed", Json.Int (total (fun r -> r.Measure.failed)));
         ("metrics", Json.Obj metrics);
       ])

let print (r : Measure.result) =
  Printf.printf "\n== %s: %s\n" r.workload.name r.workload.why;
  Printf.printf
    "%d timed repetitions, %d operations, %d failed; host times scaled by %.4f\n"
    r.reps r.attempted r.failed r.speed;
  Printf.printf "%-34s %14s %-8s %14s %14s\n" "end-to-end metric" "value" "unit"
    "q1" "q3";
  List.iter
    (fun ((m : Catalog.metric), (s : Measure.stat)) ->
      Printf.printf "%-34s %14.6g %-8s %14.6g %14.6g\n" m.name s.value m.unit_
        s.q1 s.q3)
    r.end_to_end;
  if r.per_layer <> [] then begin
    Printf.printf "%-34s %14s %-8s\n" "per-layer metric" "value" "unit";
    List.iter
      (fun ((m : Catalog.metric), v) ->
        Printf.printf "%-34s %14.6g %-8s\n" m.name v m.unit_)
      r.per_layer
  end;
  List.iter (Printf.printf "CHECK FAILED: %s\n") r.failures

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let member k j =
  match Json_in.member k j with
  | Some v -> v
  | None -> failwith ("missing field " ^ k)

let num k j =
  match Json_in.to_float (Json_in.member k j) with
  | Some f -> f
  | None -> failwith ("missing number " ^ k)

let items = function Json.List l -> l | _ -> failwith "expected a list"

let str k j =
  match Json_in.to_str (Json_in.member k j) with
  | Some s -> s
  | None -> failwith ("missing string " ^ k)

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* [change] is the relative move towards worse. A side whose own
   quartile spread exceeds the bound cannot resolve a move that small. *)
let judge ~bound ~lower ~old_ ~new_ =
  let spread j =
    let v = num "value" j in
    if v = 0. then 0. else (num "q3" j -. num "q1" j) /. Float.abs v
  in
  let o = num "value" old_ and n = num "value" new_ in
  let change = if o = n then 0. else (if lower then n -. o else o -. n) /. Float.abs o in
  if spread old_ > bound || spread new_ > bound then (Unresolved, change)
  else if change > bound then (Worse, change)
  else if change < -.bound then (Better, change)
  else (Unchanged, change)

(* Compare every (workload, end-to-end metric) pair of two results files
   under the bounds of [spec], plus each workload's failed operations,
   which may not rise at all. Returns the number of pairs judged worse. *)
let compare ~spec ~old_path ~new_path =
  let bounds =
    List.map
      (fun m -> (str "name" m, (num "bound" m, str "better" m = "lower")))
      (items (member "end_to_end" (Json_in.of_file spec)))
  in
  let workloads path =
    List.map
      (fun w -> (str "name" w, w))
      (items (member "workloads" (Json_in.of_file path)))
  in
  let old_w = workloads old_path and new_w = workloads new_path in
  let worse = ref 0 in
  Printf.printf "%-12s %-26s %14s %14s %9s  %s\n" "workload" "metric" "old" "new"
    "change" "verdict";
  List.iter
    (fun (name, nw) ->
      match List.assoc_opt name old_w with
      | None -> Printf.printf "%-12s only in %s\n" name new_path
      | Some ow ->
          let row metric o n change v =
            if v = Worse then incr worse;
            Printf.printf "%-12s %-26s %14.6g %14.6g %+8.2f%%  %s\n" name metric o
              n (100. *. change) (verdict_name v)
          in
          let of_ = num "failed" ow and nf = num "failed" nw in
          row "failed" of_ nf
            (if of_ = nf then 0. else (nf -. of_) /. Float.max 1. of_)
            (if nf > of_ then Worse else if nf < of_ then Better else Unchanged);
          let oe = member "end_to_end" ow and ne = member "end_to_end" nw in
          List.iter
            (fun (metric, (bound, lower)) ->
              match (Json_in.member metric oe, Json_in.member metric ne) with
              | Some o, Some n ->
                  let v, change = judge ~bound ~lower ~old_:o ~new_:n in
                  row metric (num "value" o) (num "value" n) change v
              | _ -> Printf.printf "%-12s %-26s missing\n" name metric)
            bounds)
    new_w;
  !worse
