type kind =
  | Crash
  | Reboot
  | Serving
  | Suspect of { peer : int }
  | Fence_begin of { victim : int }
  | Fence_end of { victim : int }
  | Mount of { target : int }
  | Scan_begin of { target : int }
  | Scan_end of { target : int; records : int }
  | Orphan_resolved of { origin : int; seq : int }
  | Heal
  | Fault_injected of { index : int; desc : string }

type entry = { time : Simkit.Time.t; node : int; kind : kind }

let dummy = { time = Simkit.Time.zero; node = -1; kind = Heal }

type t = { enabled : bool; mutable entries : entry array; mutable len : int }

let create () = { enabled = true; entries = Array.make 256 dummy; len = 0 }
let disabled () = { enabled = false; entries = [||]; len = 0 }
let is_recording t = t.enabled

let emit t ~time ~node kind =
  if t.enabled then begin
    if t.len = Array.length t.entries then begin
      let grown = Array.make (max 256 (2 * t.len)) dummy in
      Array.blit t.entries 0 grown 0 t.len;
      t.entries <- grown
    end;
    t.entries.(t.len) <- { time; node; kind };
    t.len <- t.len + 1
  end

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Obs.Journal.get: index out of bounds";
  t.entries.(i)

let iter f t =
  for i = 0 to t.len - 1 do
    f t.entries.(i)
  done

let entries t =
  let out = ref [] in
  for i = t.len - 1 downto 0 do
    out := t.entries.(i) :: !out
  done;
  !out

let event_name = function
  | Crash -> "crash"
  | Reboot -> "reboot"
  | Serving -> "serving"
  | Suspect _ -> "suspect"
  | Fence_begin _ -> "fence.begin"
  | Fence_end _ -> "fence.end"
  | Mount _ -> "mount"
  | Scan_begin _ -> "scan.begin"
  | Scan_end _ -> "scan.end"
  | Orphan_resolved _ -> "orphan.resolved"
  | Heal -> "heal"
  | Fault_injected _ -> "fault.injected"

let to_json e =
  let fields =
    match e.kind with
    | Crash | Reboot | Serving | Heal -> []
    | Suspect { peer } -> [ ("peer", Json.Int peer) ]
    | Fence_begin { victim } | Fence_end { victim } ->
        [ ("victim", Json.Int victim) ]
    | Mount { target } | Scan_begin { target } -> [ ("target", Json.Int target) ]
    | Scan_end { target; records } ->
        [ ("target", Json.Int target); ("records", Json.Int records) ]
    | Orphan_resolved { origin; seq } ->
        [ ("origin", Json.Int origin); ("seq", Json.Int seq) ]
    | Fault_injected { index; desc } ->
        [ ("index", Json.Int index); ("desc", Json.Str desc) ]
  in
  Json.Obj
    (("t_ns", Json.Int (Simkit.Time.to_ns e.time))
    :: ("node", Json.Int e.node)
    :: ("event", Json.Str (event_name e.kind))
    :: fields)

let to_file path t = Json.lines_to_file path (List.map to_json (entries t))
