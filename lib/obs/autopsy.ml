type coverage_summary = {
  cov_protocol : string;
  declared : int;
  edges_hit : int;
  never_hit : string list;
}

type source = {
  verdict : string;
  protocol : string;
  seed : int;
  repro : string;
  schedule : string;
  diagnostics : string;
  sink : Sink.t;
  profile : Prof.report option;
  coverage : coverage_summary list;
}

let failure_instant s =
  let latest = ref Simkit.Time.zero in
  let bump t = if Simkit.Time.( > ) t !latest then latest := t in
  Journal.iter (fun (e : Journal.entry) -> bump e.time) s.sink.journal;
  Recorder.iter_tail (fun (r : Recorder.record) -> bump r.time) s.sink.recorder;
  !latest

let slice_radius = Simkit.Time.span_ms 100

(* The slice keeps every span that overlaps [failure - radius,
   failure + radius]: enough context to see what the cluster was doing
   when the oracle tripped, small enough to open instantly. Open spans
   (cut short by a crash) are kept too — Export skips them, but the
   count is honest. *)
let slice_tracer s =
  let anchor = failure_instant s in
  let anchor_ns = Simkit.Time.to_ns anchor in
  let radius_ns = Simkit.Time.span_to_ns slice_radius in
  let lo = max 0 (anchor_ns - radius_ns) and hi = anchor_ns + radius_ns in
  let sliced = Tracer.create () in
  Tracer.iter
    (fun (sp : Span.t) ->
      if
        sp.closed
        && Simkit.Time.to_ns sp.stop >= lo
        && Simkit.Time.to_ns sp.start <= hi
      then
        Tracer.span sliced ~start:sp.start ~stop:sp.stop ~txn:sp.txn
          ~baseline:sp.baseline ~category:sp.category ~track:sp.track
          ~name:sp.name)
    s.sink.spans;
  sliced

let write_mttr path windows =
  let ns = Simkit.Time.span_to_ns in
  Json.to_file path
    (Json.Obj
       [
         ( "windows",
           Json.List
             (List.map
                (fun (w : Mttr.window) ->
                  Json.Obj
                    [
                      ("node", Json.Int w.node);
                      ("start_ns", Json.Int (Simkit.Time.to_ns w.start));
                      ("detect_ns", Json.Int (ns w.detect));
                      ("fence_ns", Json.Int (ns w.fence));
                      ("scan_ns", Json.Int (ns w.scan));
                      ("resolve_ns", Json.Int (ns w.resolve));
                      ("total_ns", Json.Int (ns (Mttr.total w)));
                    ])
                windows) );
       ])

let write_manifest path s ~windows ~files =
  let strs l = Json.List (List.map (fun f -> Json.Str f) l) in
  Json.to_file path
    (Json.Obj
       [
         ("verdict", Json.Str s.verdict);
         ("protocol", Json.Str s.protocol);
         ("seed", Json.Int s.seed);
         ("repro", Json.Str s.repro);
         ("schedule", Json.Str s.schedule);
         ("diagnostics", Json.Str s.diagnostics);
         ("failure_t_ns", Json.Int (Simkit.Time.to_ns (failure_instant s)));
         ("mttr_windows", Json.Int (List.length windows));
         ( "coverage",
           Json.List
             (List.map
                (fun c ->
                  Json.Obj
                    [
                      ("protocol", Json.Str c.cov_protocol);
                      ("declared", Json.Int c.declared);
                      ("hit", Json.Int c.edges_hit);
                      ("never_hit", strs c.never_hit);
                    ])
                s.coverage) );
         ("files", strs files);
       ])

let write ~dir s =
  Json.mkdirs dir;
  let in_dir f = Filename.concat dir f in
  let files = ref [] in
  let add f = files := f :: !files in
  let sink = s.sink in
  Recorder.to_file
    ~gauge_columns:(Timeseries.columns sink.sampler)
    (in_dir "ring.jsonl") sink.recorder;
  add "ring.jsonl";
  Journal.to_file (in_dir "journal.jsonl") sink.journal;
  add "journal.jsonl";
  Export.to_file (in_dir "trace.json") (slice_tracer s);
  add "trace.json";
  let windows = Mttr.windows (Journal.entries sink.journal) in
  write_mttr (in_dir "mttr.json") windows;
  add "mttr.json";
  (match s.profile with
  | Some report ->
      Prof.speedscope_to_file
        ~path:(in_dir "prof.speedscope.json")
        ~name:(Printf.sprintf "%s seed %d" s.protocol s.seed)
        report;
      add "prof.speedscope.json"
  | None -> ());
  let files = List.rev !files in
  write_manifest (in_dir "incident.json") s ~windows ~files;
  "incident.json" :: files

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let ( let* ) = Result.bind

let parse_file path =
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "%s: missing" path)
  else
    let body = read_file path in
    if Filename.check_suffix path ".jsonl" then begin
      let lines = String.split_on_char '\n' body in
      let rec go lineno = function
        | [] -> Ok None
        | line :: rest ->
            if String.trim line = "" then go (lineno + 1) rest
            else (
              match Json.parse line with
              | Json.Obj _ -> go (lineno + 1) rest
              | _ ->
                  Error
                    (Printf.sprintf "%s:%d: line is not a JSON object" path
                       lineno)
              | exception Json.Parse_error msg ->
                  Error (Printf.sprintf "%s:%d: %s" path lineno msg))
      in
      go 1 lines
    end
    else
      match Json.parse body with
      | v -> Ok (Some v)
      | exception Json.Parse_error msg -> Error (Printf.sprintf "%s: %s" path msg)

let field name obj ~path =
  match obj with
  | Json.Obj members -> (
      match List.assoc_opt name members with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "%s: missing field %S" path name))
  | _ -> Error (Printf.sprintf "%s: manifest is not a JSON object" path)

let string_field name obj ~path =
  let* v = field name obj ~path in
  match v with
  | Json.Str s -> Ok s
  | _ -> Error (Printf.sprintf "%s: field %S is not a string" path name)

let number_field name obj ~path =
  let* v = field name obj ~path in
  match v with
  | Json.Int _ | Json.Float _ -> Ok ()
  | _ -> Error (Printf.sprintf "%s: field %S is not a number" path name)

let validate dir =
  let manifest_path = Filename.concat dir "incident.json" in
  let* manifest =
    match parse_file manifest_path with
    | Ok (Some v) -> Ok v
    | Ok None -> Error (Printf.sprintf "%s: empty" manifest_path)
    | Error e -> Error e
  in
  let* _ = string_field "verdict" manifest ~path:manifest_path in
  let* _ = string_field "protocol" manifest ~path:manifest_path in
  let* _ = string_field "repro" manifest ~path:manifest_path in
  let* _ = number_field "seed" manifest ~path:manifest_path in
  let* _ = number_field "failure_t_ns" manifest ~path:manifest_path in
  let* files = field "files" manifest ~path:manifest_path in
  let* names =
    match files with
    | Json.List vs ->
        List.fold_left
          (fun acc v ->
            let* acc = acc in
            match v with
            | Json.Str s -> Ok (s :: acc)
            | _ ->
                Error
                  (Printf.sprintf "%s: \"files\" contains a non-string"
                     manifest_path))
          (Ok []) vs
    | _ -> Error (Printf.sprintf "%s: field \"files\" is not an array" manifest_path)
  in
  List.fold_left
    (fun acc name ->
      let* () = acc in
      (* The manifest validated above; siblings only need to parse. *)
      if name = "incident.json" then Ok ()
      else
        let* _ = parse_file (Filename.concat dir name) in
        Ok ())
    (Ok ()) (List.rev names)
