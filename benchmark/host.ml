(* Host time: the monotonic clock; the chunks a timed pass is cut into;
   and the benchmark's own spans, kept in memory around each call it
   makes into a layer (cluster builds, load-and-settle loops, set-up
   samples, kernels) and written at exit as a Chrome trace
   (chrome://tracing, Perfetto). *)

module Json = Bench_json.Json

type event = {
  name : string;
  cat : string;
  start_ns : int;
  dur_ns : int;
  args : (string * Json.t) list;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let origin = now_ns ()
let events = ref []

let add ?(args = []) ~cat ~start_ns name =
  events :=
    { name; cat; start_ns; dur_ns = now_ns () - start_ns; args } :: !events

let span ~cat name f =
  let start_ns = now_ns () in
  let r = f () in
  add ~cat ~start_ns name;
  r

(* Chunks. A workload cuts its timed load at fixed points of its own
   work (every 1,000 operations of a closed loop, every 5 bursts, every
   10 chaos runs), so chunk k of one repetition does exactly the work of
   chunk k of every other. The clock runs only inside [timed]; a chunk
   is the timed time between two cuts. *)
let running_since = ref None
let open_ns = ref None  (* timed time of the chunk not yet cut *)
let closed = ref []

let add_open ns = open_ns := Some (Option.value ~default:0 !open_ns + ns)

let timed f =
  running_since := Some (now_ns ());
  Fun.protect f ~finally:(fun () ->
      Option.iter (fun t0 -> add_open (now_ns () - t0)) !running_since;
      running_since := None)

let cut () =
  let now = now_ns () in
  Option.iter
    (fun t0 ->
      add_open (now - t0);
      running_since := Some now)
    !running_since;
  Option.iter (fun ns -> closed := ns :: !closed) !open_ns;
  open_ns := None

(* The chunks timed since the last call, oldest first. *)
let chunks () =
  cut ();
  let c = Array.of_list (List.rev !closed) in
  closed := [];
  c

let trace_json () =
  let us ns = Json.Int (ns / 1000) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.rev_map
             (fun e ->
               Json.Obj
                 [
                   ("name", Json.Str e.name);
                   ("cat", Json.Str e.cat);
                   ("ph", Json.Str "X");
                   ("ts", us (e.start_ns - origin));
                   ("dur", us e.dur_ns);
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ("args", Json.Obj e.args);
                 ])
             !events) );
    ]
