type kind = Dispatch | Delivery | Journal | Gauge

type record = {
  time : Simkit.Time.t;
  kind : kind;
  a : int;
  b : int;
  c : int;
}

(* Flat parallel arrays, preallocated at [create]: pushing a record is
   five int stores and a wrapping increment — no per-event boxing, no
   growth on the hot path. [kind] is stored as a small int tag. *)
type t = {
  enabled : bool;
  cap : int;
  times : int array;  (* ns *)
  kinds : int array;  (* 0=dispatch 1=delivery 2=journal 3=gauge *)
  a : int array;
  b : int array;
  c : int array;
  mutable next : int;  (* slot the next record overwrites *)
  mutable total : int;  (* records ever pushed *)
}

let create ?(capacity = 1024) () =
  if capacity <= 0 then
    invalid_arg "Obs.Recorder.create: capacity must be positive";
  {
    enabled = true;
    cap = capacity;
    times = Array.make capacity 0;
    kinds = Array.make capacity 0;
    a = Array.make capacity 0;
    b = Array.make capacity 0;
    c = Array.make capacity 0;
    next = 0;
    total = 0;
  }

let disabled () =
  {
    enabled = false;
    cap = 0;
    times = [||];
    kinds = [||];
    a = [||];
    b = [||];
    c = [||];
    next = 0;
    total = 0;
  }

let is_recording t = t.enabled
let capacity t = t.cap
let recorded t = t.total
let length t = min t.total t.cap

let push t ~time_ns ~tag ~a ~b ~c =
  let i = t.next in
  t.times.(i) <- time_ns;
  t.kinds.(i) <- tag;
  t.a.(i) <- a;
  t.b.(i) <- b;
  t.c.(i) <- c;
  t.next <- (if i + 1 = t.cap then 0 else i + 1);
  t.total <- t.total + 1

let record_dispatch t ~time label =
  if t.enabled then
    push t ~time_ns:(Simkit.Time.to_ns time) ~tag:0
      ~a:(Simkit.Label.id label) ~b:0 ~c:0

let record_delivery t ~time ~src ~dst =
  if t.enabled then
    push t ~time_ns:(Simkit.Time.to_ns time) ~tag:1 ~a:src ~b:dst ~c:0

(* Journal kinds flatten to (tag, payload): the tag is stable (tests pin
   it through [journal_tag_name]) and the payload is the kind's one
   distinguishing integer. [Scan_end] keeps the record count,
   [Orphan_resolved] the origin — enough to read an incident tail. *)
let journal_tag : Journal.kind -> int = function
  | Journal.Crash -> 0
  | Journal.Reboot -> 1
  | Journal.Serving -> 2
  | Journal.Suspect _ -> 3
  | Journal.Fence_begin _ -> 4
  | Journal.Fence_end _ -> 5
  | Journal.Mount _ -> 6
  | Journal.Scan_begin _ -> 7
  | Journal.Scan_end _ -> 8
  | Journal.Orphan_resolved _ -> 9
  | Journal.Heal -> 10
  | Journal.Fault_injected _ -> 11

let journal_payload : Journal.kind -> int = function
  | Journal.Crash | Journal.Reboot | Journal.Serving | Journal.Heal -> 0
  | Journal.Suspect { peer } -> peer
  | Journal.Fence_begin { victim } | Journal.Fence_end { victim } -> victim
  | Journal.Mount { target } | Journal.Scan_begin { target } -> target
  | Journal.Scan_end { target = _; records } -> records
  | Journal.Orphan_resolved { origin; seq = _ } -> origin
  | Journal.Fault_injected { index; desc = _ } -> index

let journal_tag_name = function
  | 0 -> "crash"
  | 1 -> "reboot"
  | 2 -> "serving"
  | 3 -> "suspect"
  | 4 -> "fence.begin"
  | 5 -> "fence.end"
  | 6 -> "mount"
  | 7 -> "scan.begin"
  | 8 -> "scan.end"
  | 9 -> "orphan.resolved"
  | 10 -> "heal"
  | 11 -> "fault.injected"
  | _ -> "?"

let record_journal t ~time ~node kind =
  if t.enabled then
    push t ~time_ns:(Simkit.Time.to_ns time) ~tag:2 ~a:(journal_tag kind)
      ~b:node ~c:(journal_payload kind)

let record_gauges t ~time values =
  if t.enabled then begin
    let time_ns = Simkit.Time.to_ns time in
    for col = 0 to Array.length values - 1 do
      push t ~time_ns ~tag:3 ~a:col ~b:values.(col) ~c:0
    done
  end

let kind_of_tag = function
  | 0 -> Dispatch
  | 1 -> Delivery
  | 2 -> Journal
  | _ -> Gauge

let iter_tail f t =
  let n = length t in
  (* Oldest retained record: [next] once the ring has wrapped, slot 0
     before. *)
  let start = if t.total > t.cap then t.next else 0 in
  for k = 0 to n - 1 do
    let i = (start + k) mod t.cap in
    f
      {
        time = Simkit.Time.of_ns t.times.(i);
        kind = kind_of_tag t.kinds.(i);
        a = t.a.(i);
        b = t.b.(i);
        c = t.c.(i);
      }
  done

let to_json ?gauge_columns r =
  let head typ =
    [ ("t_ns", Json.Int (Simkit.Time.to_ns r.time)); ("type", Json.Str typ) ]
  in
  Json.Obj
    (match r.kind with
    | Dispatch ->
        let label =
          match Simkit.Label.of_id r.a with
          | Some l -> Fmt.str "%a" Simkit.Label.pp l
          | None -> Fmt.str "label#%d" r.a
        in
        head "dispatch" @ [ ("label", Json.Str label) ]
    | Delivery ->
        head "deliver" @ [ ("src", Json.Int r.a); ("dst", Json.Int r.b) ]
    | Journal ->
        head "journal"
        @ [
            ("event", Json.Str (journal_tag_name r.a));
            ("node", Json.Int r.b);
            ("arg", Json.Int r.c);
          ]
    | Gauge ->
        let gauge =
          match gauge_columns with
          | Some cols when r.a >= 0 && r.a < Array.length cols -> cols.(r.a)
          | _ -> Fmt.str "gauge#%d" r.a
        in
        head "gauge" @ [ ("gauge", Json.Str gauge); ("value", Json.Int r.b) ])

let to_file ?gauge_columns path t =
  let lines = ref [] in
  iter_tail (fun r -> lines := to_json ?gauge_columns r :: !lines) t;
  Json.lines_to_file path (List.rev !lines)
