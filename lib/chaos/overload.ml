type spec = {
  servers : int;
  dir_count : int;
  reference_rate : float;
  storm_multiplier : float;
  duration_ms : int;
  max_inflight : int;
  queue_capacity : int;
  goodput_floor : float;
  settle_deadline_ms : int;
  window_ms : int;
  with_faults : bool;
}

let default_spec =
  {
    servers = 4;
    dir_count = 4;
    reference_rate = 100.0;
    storm_multiplier = 6.0;
    duration_ms = 600;
    max_inflight = 24;
    queue_capacity = 64;
    goodput_floor = 0.25;
    settle_deadline_ms = 120_000;
    window_ms = 600;
    with_faults = true;
  }

let policy =
  {
    Workload.Open_loop.attempt_timeout = Simkit.Time.span_ms 500;
    backoff = Simkit.Time.span_ms 60;
    backoff_multiplier = 2.0;
    jitter = 0.2;
    max_attempts = 4;
  }

type run = {
  stats : Workload.Open_loop.stats;
  ingress : Opc_cluster.Ingress.stats;
  p50 : Simkit.Time.span;
  p95 : Simkit.Time.span;
  p99 : Simkit.Time.span;
  violations : Oracle.violation list;
}

type outcome = {
  seed : int;
  protocol : Acp.Protocol.kind;
  schedule : Schedule.t option;  (* injected into the storm run *)
  reference : run;
  storm : run;
  violations : Oracle.violation list;  (* both runs + goodput floor *)
}

let passed o = o.violations = []

let run spec ~protocol ~seed ~rate ~schedule =
  let cluster =
    Opc_cluster.Cluster.create
      { Runner.regime with servers = spec.servers; protocol; seed }
  in
  let dirs =
    Runner.layout cluster ~servers:spec.servers ~dirs:spec.dir_count
  in
  let ingress =
    Opc_cluster.Ingress.create ~max_inflight:spec.max_inflight
      ~queue_capacity:spec.queue_capacity cluster
  in
  let ol_spec =
    {
      Workload.Open_loop.arrival = Workload.Open_loop.Poisson;
      rate_per_s = rate;
      duration = Simkit.Time.span_ms spec.duration_ms;
      dirs;
      zipf_s = 1.1;  (* hot-directory skew *)
      policy;
    }
  in
  let ol =
    Workload.Open_loop.run cluster ingress ol_spec
      ~rng:(Runner.open_loop_rng seed)
  in
  let violations =
    try
      Option.iter
        (Runner.arm cluster ~servers:spec.servers ~window_ms:spec.window_ms)
        schedule;
      let settled =
        Workload.Open_loop.settle
          ~deadline:(Simkit.Time.span_ms spec.settle_deadline_ms)
          ol
      in
      Oracle.check_open_loop cluster ~ingress ~open_loop:ol ~dirs ~settled
    with exn -> [ Oracle.Run_exception (Printexc.to_string exn) ]
  in
  let lat = Workload.Open_loop.latency ol in
  let quantiles = Metrics.Histogram.quantiles lat [ 0.50; 0.95; 0.99 ] in
  let p50, p95, p99 =
    match quantiles with
    | [ a; b; c ] -> (a, b, c)
    | _ -> (Simkit.Time.zero_span, Simkit.Time.zero_span, Simkit.Time.zero_span)
  in
  {
    stats = Workload.Open_loop.stats ol;
    ingress = Opc_cluster.Ingress.stats ingress;
    p50;
    p95;
    p99;
    violations;
  }

let execute ?schedule spec ~protocol ~seed =
  let schedule =
    match schedule with
    | Some s -> Some s
    | None when spec.with_faults ->
        Some
          (Schedule.generate
             ~rng:(Simkit.Rng.create ~seed)
             ~servers:spec.servers ~window_ms:spec.window_ms)
    | None -> None
  in
  Option.iter (Runner.check_schedule ~servers:spec.servers) schedule;
  (* Reference: fault-free, below the knee — the goodput yardstick. *)
  let reference =
    run spec ~protocol ~seed ~rate:spec.reference_rate ~schedule:None
  in
  (* Storm: offered load far past the knee, faults riding along. *)
  let storm =
    run spec ~protocol ~seed
      ~rate:(spec.reference_rate *. spec.storm_multiplier)
      ~schedule
  in
  let floor_violations =
    Oracle.check_goodput_floor ~reference:reference.stats ~storm:storm.stats
      ~floor:spec.goodput_floor
  in
  {
    seed;
    protocol;
    schedule;
    reference;
    storm;
    violations = reference.violations @ storm.violations @ floor_violations;
  }

let pp_outcome ppf o =
  if passed o then
    Fmt.pf ppf
      "%a seed %d: pass (ref %.0f/s good, storm %.0f/s good, %d shed, %.2fx \
       retries)"
      Acp.Protocol.pp o.protocol o.seed
      o.reference.stats.Workload.Open_loop.goodput_per_s
      o.storm.stats.Workload.Open_loop.goodput_per_s
      o.storm.ingress.Opc_cluster.Ingress.shed
      o.storm.stats.Workload.Open_loop.retry_amplification
  else
    Fmt.pf ppf "@[<v>%a seed %d: FAIL@,%a%a@]" Acp.Protocol.pp o.protocol
      o.seed
      Fmt.(list ~sep:cut Oracle.pp_violation)
      o.violations
      Fmt.(
        option (fun ppf s -> pf ppf "@,schedule: %a" Schedule.pp s))
      o.schedule

(* ------------------------------------------------------------------ *)
(* Campaigns and shrinking                                             *)
(* ------------------------------------------------------------------ *)

type campaign = { spec : spec; outcomes : outcome list }

let failures c = List.filter (fun o -> not (passed o)) c.outcomes

let campaign ?protocols ?first_seed ~seeds spec =
  {
    spec;
    outcomes = Runner.each_seed ?protocols ?first_seed ~seeds (execute spec);
  }

let table c =
  let t =
    Metrics.Table.create
      ~columns:
        [
          "protocol"; "runs"; "pass"; "fail"; "ref good/s"; "storm good/s";
          "shed"; "gave up";
        ]
  in
  let protocols =
    List.filter
      (fun p -> List.exists (fun o -> o.protocol = p) c.outcomes)
      Acp.Protocol.all
  in
  List.iter
    (fun p ->
      let runs = List.filter (fun o -> o.protocol = p) c.outcomes in
      let n = List.length runs in
      let pass = List.length (List.filter passed runs) in
      let favg f =
        if n = 0 then 0.0
        else List.fold_left (fun acc o -> acc +. f o) 0.0 runs /. float_of_int n
      in
      let sum f = List.fold_left (fun acc o -> acc + f o) 0 runs in
      Metrics.Table.add_rowf t "%s|%d|%d|%d|%.1f|%.1f|%d|%d"
        (Acp.Protocol.name p) n pass (n - pass)
        (favg (fun o -> o.reference.stats.Workload.Open_loop.goodput_per_s))
        (favg (fun o -> o.storm.stats.Workload.Open_loop.goodput_per_s))
        (sum (fun o -> o.storm.ingress.Opc_cluster.Ingress.shed))
        (sum (fun o -> o.storm.stats.Workload.Open_loop.gave_up)))
    protocols;
  t

let still_fails spec ~protocol ~seed schedule =
  not (passed (execute ~schedule spec ~protocol ~seed))

let shrink ?max_attempts spec outcome =
  match outcome.schedule with
  | None -> None
  | Some schedule ->
      Some
        (Shrink.minimize ?max_attempts
           ~still_fails:
             (still_fails spec ~protocol:outcome.protocol ~seed:outcome.seed)
           schedule)

let repro_command spec ~protocol ~seed =
  Printf.sprintf
    "dune exec bin/chaos.exe -- --overload -p %s --seeds 1 --first-seed %d \
     --servers %d --duration %d"
    (Acp.Protocol.name protocol)
    seed spec.servers spec.window_ms
