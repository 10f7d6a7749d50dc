module Time = Simkit.Time

type window = {
  node : int;
  start : Time.t;
  suspect_at : Time.t;
  fence_at : Time.t;
  scan_at : Time.t;
  serving : Time.t;
  detect : Time.span;
  fence : Time.span;
  scan : Time.span;
  resolve : Time.span;
}

let total w = Time.diff w.serving w.start

type open_window = {
  crashed_at : Time.t;
  mutable suspect : Time.t option;
  mutable fence_end : Time.t option;
  mutable scan_end : Time.t option;
}

let windows entries =
  let open_ : (int, open_window) Hashtbl.t = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun (e : Journal.entry) ->
      match e.kind with
      | Journal.Crash ->
          (* A second crash before the node served again (e.g. STONITH
             rebooting a fenced victim) extends the same window: keep the
             earliest crash instant. *)
          if not (Hashtbl.mem open_ e.node) then
            Hashtbl.replace open_ e.node
              {
                crashed_at = e.time;
                suspect = None;
                fence_end = None;
                scan_end = None;
              }
      | Journal.Suspect { peer } -> (
          match Hashtbl.find_opt open_ peer with
          | Some w when w.suspect = None -> w.suspect <- Some e.time
          | _ -> ())
      | Journal.Fence_end { victim } -> (
          match Hashtbl.find_opt open_ victim with
          | Some w -> w.fence_end <- Some e.time
          | None -> ())
      | Journal.Scan_end { target; _ } -> (
          match Hashtbl.find_opt open_ target with
          | Some w -> w.scan_end <- Some e.time
          | None -> ())
      | Journal.Serving -> (
          match Hashtbl.find_opt open_ e.node with
          | Some w ->
              Hashtbl.remove open_ e.node;
              let t0 = w.crashed_at in
              let t4 = e.time in
              (* Clamp each marker into [previous, t4] so the chain is
                 monotone and the four segments telescope to exactly
                 [t4 - t0] even when a phase never happened (its segment
                 is then zero). *)
              let clamp lo = function
                | Some v when Time.( > ) v lo ->
                    if Time.( > ) v t4 then t4 else v
                | _ -> lo
              in
              let t1 = clamp t0 w.suspect in
              let t2 = clamp t1 w.fence_end in
              let t3 = clamp t2 w.scan_end in
              out :=
                {
                  node = e.node;
                  start = t0;
                  suspect_at = t1;
                  fence_at = t2;
                  scan_at = t3;
                  serving = t4;
                  detect = Time.diff t1 t0;
                  fence = Time.diff t2 t1;
                  scan = Time.diff t3 t2;
                  resolve = Time.diff t4 t3;
                }
                :: !out
          | None -> ())
      | _ -> ())
    entries;
  List.rev !out

let check_crash_times ~expected ws =
  let rec go = function
    | [] -> Ok ()
    | (node, at) :: rest ->
        if
          List.exists
            (fun w -> w.node = node && Time.equal w.start at)
            ws
        then go rest
        else
          (* In nanoseconds: [Time.pp] rounds, so a drift below its
             display precision would print expected and found alike. *)
          Error
            (Fmt.str
               "no unavailability window for mds%d starting at %dns \
                (windows: %a)"
               node (Time.to_ns at)
               Fmt.(list ~sep:(any "; ") (fun ppf w ->
                   Fmt.pf ppf "mds%d@%dns" w.node (Time.to_ns w.start)))
               ws)
  in
  go expected

let pp ppf w =
  Fmt.pf ppf
    "mds%d down %a..%a (total %a): detect %a, fence %a, scan %a, resolve %a"
    w.node Time.pp w.start Time.pp w.serving Time.pp_span (total w)
    Time.pp_span w.detect Time.pp_span w.fence Time.pp_span w.scan
    Time.pp_span w.resolve
