let us_of_time t = float_of_int (Simkit.Time.to_ns t) /. 1e3
let us_of_span s = float_of_int (Simkit.Time.span_to_ns s) /. 1e3

let to_json tracer =
  (* Stable track -> tid mapping in order of first appearance, each
     announced with a thread_name metadata event. *)
  let tids = Hashtbl.create 16 in
  let events = ref [] in
  let emit ev = events := Json.Obj ev :: !events in
  let tid_of track =
    match Hashtbl.find_opt tids track with
    | Some tid -> tid
    | None ->
        let tid = Hashtbl.length tids in
        Hashtbl.add tids track tid;
        emit
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int 0);
            ("tid", Json.Int tid);
            ("args", Json.Obj [ ("name", Json.Str track) ]);
          ];
        tid
  in
  Tracer.iter
    (fun (s : Span.t) ->
      if s.closed then begin
        let tid = tid_of s.track in
        emit
          [
            ("name", Json.Str s.name);
            ("cat", Json.Str (Span.category_name s.category));
            ("ph", Json.Str "X");
            ("ts", Json.Float (us_of_time s.start));
            ("dur", Json.Float (us_of_span (Span.duration s)));
            ("pid", Json.Int 0);
            ("tid", Json.Int tid);
            ( "args",
              Json.Obj
                (("txn", Json.Int s.txn)
                :: (if s.baseline then [ ("baseline", Json.Bool true) ] else []))
            );
          ]
      end)
    tracer;
  Json.Obj [ ("traceEvents", Json.List (List.rev !events)) ]

let to_string tracer = Json.to_string (to_json tracer)
let to_file path tracer = Json.to_file path (to_json tracer)
