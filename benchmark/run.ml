(* The repo benchmark. See README.md.

     dune exec benchmark/run.exe -- [--workload W]... [--seed N]
       [--seconds S] [--trace 0|1] [--smoke] [--json PATH] [--out DIR]
     dune exec benchmark/run.exe -- compare OLD.json NEW.json
       [--spec BENCHMARK.json]

   Exit status: 0 when every check passed, 1 when one failed (or, for
   compare, when a metric got worse), 2 on bad arguments. *)

let usage =
  "run.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--smoke] \
   [--json PATH] [--out DIR]\n\
   run.exe compare OLD.json NEW.json [--spec BENCHMARK.json]\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)

let bad msg =
  prerr_endline (msg ^ "\n" ^ usage);
  exit 2

let compare args =
  let spec = ref "BENCHMARK.json" and files = ref [] in
  Arg.parse_argv ~current:(ref 0)
    (Array.of_list ("compare" :: args))
    [ ("--spec", Arg.Set_string spec, "PATH  bounds file (BENCHMARK.json)") ]
    (fun f -> files := f :: !files)
    usage;
  match List.rev !files with
  | [ old_path; new_path ] ->
      let worse = Report.compare ~spec:!spec ~old_path ~new_path in
      Printf.printf "%d pairs worse\n" worse;
      exit (if worse > 0 then 1 else 0)
  | _ -> bad "compare takes two results files"

let main () =
  let workloads = ref [] and seed = ref 1 and seconds = ref 15. in
  let trace = ref 1 and smoke = ref false in
  let json = ref "" and out = ref "benchmark/out" in
  Arg.parse
    [
      ( "--workload",
        Arg.String (fun w -> workloads := w :: !workloads),
        "W  run this workload (repeatable; default all)" );
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  timed seconds per workload (default 15)");
      ( "--trace",
        Arg.Set_int trace,
        "0|1  1 (default): traced run, kernels, per-layer metrics on the last \
         line; 0: end-to-end metrics only" );
      ("--smoke", Arg.Set smoke, " tiny sizes, no timing loop (for tests)");
      ("--json", Arg.Set_string json, "PATH  results file (default OUT/results.json)");
      ("--out", Arg.Set_string out, "DIR  output directory (default benchmark/out)");
    ]
    (fun a -> bad ("unexpected argument " ^ a))
    usage;
  if !seed < 1 then bad "--seed must be at least 1";
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  let selected =
    match List.rev !workloads with
    | [] -> Workloads.all
    | names ->
        List.map
          (fun n ->
            match Workloads.find n with
            | Some w -> w
            | None -> bad ("unknown workload " ^ n))
          names
  in
  let trace = !trace = 1 and smoke = !smoke in
  let seconds = if smoke then 0. else !seconds in
  let results =
    List.map
      (fun w ->
        let r = Measure.measure w ~smoke ~seed:!seed ~seconds ~trace in
        Report.print r;
        flush stdout;
        r)
      selected
  in
  let json = if !json = "" then Filename.concat !out "results.json" else !json in
  Report.to_file json
    (Report.results_json
       ~header:(Report.header ~smoke ~seed:!seed ~seconds)
       results);
  Report.to_file (Filename.concat !out "trace.json") (Host.trace_json ());
  print_endline (Report.summary_line ~trace results);
  if not (List.for_all Report.correct results) then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: args -> compare args
  | _ -> main ()
