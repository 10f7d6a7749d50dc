let method_latency = Simkit.Time.span_us 1

type t = {
  servers : int;
  protocol : Acp.Protocol.kind;
  placement : Mds.Placement.strategy;
  network : Netsim.Network.config;
  san : Storage.San.config;
  encoded_sizes : bool;
  txn_timeout : Simkit.Time.span;
  resend_interval : Simkit.Time.span option;
  max_soft_retries : int;
  tombstone_ttl : Simkit.Time.span option;
  tombstone_cap : int;
  heartbeat_interval : Simkit.Time.span;
  detector_timeout : Simkit.Time.span;
  restart_delay : Simkit.Time.span;
  auto_restart : bool;
  seed : int;
  record_trace : bool;
  record_spans : bool;
  record_journal : bool;
  sample_period : Simkit.Time.span option;
  record_prof : bool;
  recorder_size : int option;
  record_coverage : bool;
}

let default =
  {
    servers = 4;
    protocol = Acp.Protocol.Opc;
    placement = Mds.Placement.Hash;
    network = Netsim.Network.default_config;
    san = Storage.San.default_config;
    encoded_sizes = false;
    txn_timeout = Simkit.Time.span_s 30;
    resend_interval = None;
    max_soft_retries = 2;
    tombstone_ttl = None;
    tombstone_cap = 4096;
    heartbeat_interval = Simkit.Time.span_ms 50;
    detector_timeout = Simkit.Time.span_ms 250;
    restart_delay = Simkit.Time.span_ms 100;
    auto_restart = true;
    seed = 42;
    record_trace = false;
    record_spans = false;
    record_journal = false;
    sample_period = None;
    record_prof = false;
    recorder_size = None;
    record_coverage = false;
  }

let validate t =
  if t.servers <= 0 then Error "servers must be positive"
  else if
    Simkit.Time.compare_span t.heartbeat_interval t.detector_timeout >= 0
  then Error "heartbeat interval must be shorter than the detector timeout"
  else if Simkit.Time.span_to_ns t.txn_timeout = 0 then
    Error "zero transaction timeout"
  else if
    match t.resend_interval with
    | Some s -> Simkit.Time.span_to_ns s = 0
    | None -> false
  then Error "zero resend interval"
  else if t.max_soft_retries < 0 then
    Error "negative soft-retry budget"
  else if
    match t.tombstone_ttl with
    | Some s -> Simkit.Time.span_to_ns s = 0
    | None -> false
  then Error "zero tombstone TTL"
  else if t.tombstone_cap < 1 then Error "tombstone cap must be positive"
  else
    match t.sample_period with
    | Some p when Simkit.Time.span_to_ns p <= 0 ->
        Error "sample period must be positive"
    | _ -> (
        match t.recorder_size with
        | Some n when n <= 0 -> Error "recorder size must be positive"
        | _ -> Ok ())
