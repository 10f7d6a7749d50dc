let label_crash = Simkit.Label.v Chaos "fault.crash"
let label_restart = Simkit.Label.v Chaos "fault.restart"
let label_partition = Simkit.Label.v Chaos "fault.partition"
let label_heal = Simkit.Label.v Chaos "fault.heal"
let label_heal_pair = Simkit.Label.v Chaos "fault.heal_pair"
let label_loss_burst = Simkit.Label.v Chaos "fault.loss_burst"
let label_loss_burst_end = Simkit.Label.v Chaos "fault.loss_burst.end"
let label_dup_burst = Simkit.Label.v Chaos "fault.dup_burst"
let label_dup_burst_end = Simkit.Label.v Chaos "fault.dup_burst.end"
let label_disk_degrade = Simkit.Label.v Chaos "fault.disk_degrade"
let label_disk_degrade_end = Simkit.Label.v Chaos "fault.disk_degrade.end"
let label_san_outage = Simkit.Label.v Chaos "fault.san_outage"
let label_san_outage_end = Simkit.Label.v Chaos "fault.san_outage.end"

type event =
  | Crash of { server : int; at : Simkit.Time.t }
  | Restart of { server : int; at : Simkit.Time.t }
  | Partition of { left : int list; right : int list; at : Simkit.Time.t }
  | Heal of { at : Simkit.Time.t }
  | Heal_pair of { a : int; b : int; at : Simkit.Time.t }
  | Loss_burst of {
      probability : float;
      at : Simkit.Time.t;
      until : Simkit.Time.t;
    }
  | Duplicate_burst of {
      probability : float;
      at : Simkit.Time.t;
      until : Simkit.Time.t;
    }
  | Disk_degrade of {
      factor : float;
      at : Simkit.Time.t;
      until : Simkit.Time.t;
    }
  | San_outage of { at : Simkit.Time.t; until : Simkit.Time.t }

let pp_event ppf = function
  | Crash { server; at } ->
      Fmt.pf ppf "crash mds%d @ %a" server Simkit.Time.pp at
  | Restart { server; at } ->
      Fmt.pf ppf "restart mds%d @ %a" server Simkit.Time.pp at
  | Partition { left; right; at } ->
      Fmt.pf ppf "partition %a | %a @ %a"
        Fmt.(list ~sep:comma int)
        left
        Fmt.(list ~sep:comma int)
        right Simkit.Time.pp at
  | Heal { at } -> Fmt.pf ppf "heal @ %a" Simkit.Time.pp at
  | Heal_pair { a; b; at } ->
      Fmt.pf ppf "heal mds%d~mds%d @ %a" a b Simkit.Time.pp at
  | Loss_burst { probability; at; until } ->
      Fmt.pf ppf "loss burst p=%g @ %a .. %a" probability Simkit.Time.pp at
        Simkit.Time.pp until
  | Duplicate_burst { probability; at; until } ->
      Fmt.pf ppf "duplicate burst p=%g @ %a .. %a" probability Simkit.Time.pp
        at Simkit.Time.pp until
  | Disk_degrade { factor; at; until } ->
      Fmt.pf ppf "disk degrade x%g @ %a .. %a" factor Simkit.Time.pp at
        Simkit.Time.pp until
  | San_outage { at; until } ->
      Fmt.pf ppf "san outage @ %a .. %a" Simkit.Time.pp at Simkit.Time.pp
        until

(* [on_fire] runs inside the already-scheduled callback, just before the
   fault itself, so threading it through (the journal hook) adds no
   engine events and cannot change the event order of a run. *)

let crash_at ?(on_fire = ignore) cluster ~server ~at =
  ignore
    (Simkit.Engine.schedule_at (Cluster.engine cluster) ~label:label_crash
       ~at (fun () ->
         on_fire ();
         Cluster.crash cluster server))

let restart_at ?(on_fire = ignore) cluster ~server ~at =
  ignore
    (Simkit.Engine.schedule_at (Cluster.engine cluster)
       ~label:label_restart ~at (fun () ->
         on_fire ();
         Cluster.restart cluster server))

let partition_at ?(on_fire = ignore) cluster ~left ~right ~at =
  ignore
    (Simkit.Engine.schedule_at (Cluster.engine cluster)
       ~label:label_partition ~at (fun () ->
         on_fire ();
         Cluster.partition cluster left right))

let heal_at ?(on_fire = ignore) cluster ~at =
  ignore
    (Simkit.Engine.schedule_at (Cluster.engine cluster) ~label:label_heal
       ~at (fun () ->
         on_fire ();
         Cluster.heal cluster))

let heal_pair_at ?(on_fire = ignore) cluster ~a ~b ~at =
  ignore
    (Simkit.Engine.schedule_at (Cluster.engine cluster)
       ~label:label_heal_pair ~at (fun () ->
         on_fire ();
         Cluster.heal_pair cluster a b))

(* Bursts arm a degraded value at [at] and restore the configuration's
   baseline at [until]; overlapping bursts of one kind do not stack (the
   last disarm wins), which is exactly what a chaos schedule wants.
   [on_fire] fires on the arm event only. *)
let check_burst ~what ~at ~until =
  if Simkit.Time.( < ) until at then
    invalid_arg (Printf.sprintf "Fault.%s: until precedes at" what)

let loss_burst_at ?(on_fire = ignore) cluster ~probability ~at ~until =
  check_burst ~what:"loss_burst_at" ~at ~until;
  let engine = Cluster.engine cluster in
  ignore
    (Simkit.Engine.schedule_at engine ~label:label_loss_burst ~at (fun () ->
         on_fire ();
         Cluster.set_drop_probability cluster probability));
  ignore
    (Simkit.Engine.schedule_at engine ~label:label_loss_burst_end ~at:until
       (fun () ->
         Cluster.set_drop_probability cluster
           (Cluster.config cluster).Config.network
             .Netsim.Network.drop_probability))

let duplicate_burst_at ?(on_fire = ignore) cluster ~probability ~at ~until =
  check_burst ~what:"duplicate_burst_at" ~at ~until;
  let engine = Cluster.engine cluster in
  ignore
    (Simkit.Engine.schedule_at engine ~label:label_dup_burst ~at (fun () ->
         on_fire ();
         Cluster.set_duplicate_probability cluster probability));
  ignore
    (Simkit.Engine.schedule_at engine ~label:label_dup_burst_end ~at:until
       (fun () ->
         Cluster.set_duplicate_probability cluster
           (Cluster.config cluster).Config.network
             .Netsim.Network.duplicate_probability))

let disk_degrade_at ?(on_fire = ignore) cluster ~factor ~at ~until =
  check_burst ~what:"disk_degrade_at" ~at ~until;
  let engine = Cluster.engine cluster in
  ignore
    (Simkit.Engine.schedule_at engine ~label:label_disk_degrade ~at
       (fun () ->
         on_fire ();
         Cluster.set_disk_slowdown cluster factor));
  ignore
    (Simkit.Engine.schedule_at engine ~label:label_disk_degrade_end
       ~at:until (fun () -> Cluster.set_disk_slowdown cluster 1.0))

let san_outage_at ?(on_fire = ignore) cluster ~at ~until =
  check_burst ~what:"san_outage_at" ~at ~until;
  let engine = Cluster.engine cluster in
  ignore
    (Simkit.Engine.schedule_at engine ~label:label_san_outage ~at (fun () ->
         on_fire ();
         Cluster.set_fencing_available cluster false));
  ignore
    (Simkit.Engine.schedule_at engine ~label:label_san_outage_end ~at:until
       (fun () -> Cluster.set_fencing_available cluster true))

let inject ?(observe = fun ~index:_ _ -> ()) cluster events =
  let sink = Cluster.sink cluster in
  List.iteri
    (fun index e ->
      (* Injected faults announce themselves in the journal with their
         schedule index, making counterexamples self-describing. The
         closure only materializes an entry when the journal records. *)
      let on_fire () =
        observe ~index e;
        if Obs.Journal.is_recording sink.journal then
          Obs.Sink.journal sink
            ~time:(Cluster.now cluster)
            ~node:(-1)
            (Obs.Journal.Fault_injected
               { index; desc = Fmt.str "@[<h>%a@]" pp_event e })
      in
      match e with
      | Crash { server; at } -> crash_at ~on_fire cluster ~server ~at
      | Restart { server; at } -> restart_at ~on_fire cluster ~server ~at
      | Partition { left; right; at } ->
          partition_at ~on_fire cluster ~left ~right ~at
      | Heal { at } -> heal_at ~on_fire cluster ~at
      | Heal_pair { a; b; at } -> heal_pair_at ~on_fire cluster ~a ~b ~at
      | Loss_burst { probability; at; until } ->
          loss_burst_at ~on_fire cluster ~probability ~at ~until
      | Duplicate_burst { probability; at; until } ->
          duplicate_burst_at ~on_fire cluster ~probability ~at ~until
      | Disk_degrade { factor; at; until } ->
          disk_degrade_at ~on_fire cluster ~factor ~at ~until
      | San_outage { at; until } -> san_outage_at ~on_fire cluster ~at ~until)
    events
