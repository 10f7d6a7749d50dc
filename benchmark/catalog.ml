(* Every metric the benchmark reports, in report order. BENCHMARK.json
   declares the same names and units, with each metric's direction and
   regression bound; the benchmark's test checks that the two agree. *)

type metric = {
  name : string;
  unit_ : string;
  exact : bool;
      (* a deterministic count or simulated quantity: identical in every
         repetition and between traced and untraced runs of one seed *)
}

let protocols = Opc.Acp.Protocol.[ Prn; Opc; Lp1 ]
let pname = Opc.Acp.Protocol.name
let m ?(exact = true) name unit_ = { name; unit_; exact }
let per_protocol base unit_ = List.map (fun p -> m (base ^ "." ^ pname p) unit_) protocols

(* Host times and ratios of them vary from run to run. *)
let host = m ~exact:false

let end_to_end =
  [
    host "setup_s" "s";
    host "host_ms_per_kop" "ms";
    m "events_per_op" "count";
    m "alloc_kw_per_op" "kword";
    m "live_mb" "MB";
    m "commit_share" "fraction";
    m "msgs_per_op" "count";
  ]
  @ per_protocol "ops_per_sim_s" "1/s"
  @ per_protocol "latency_mean_ms" "ms"
  @ per_protocol "latency_tail_ms" "ms"

let per_layer =
  [
    m "simkit.pending_hwm" "count";
    host "simkit.kernel_ns_per_event" "ns";
    host "prof.residual_share" "fraction";
    m "netsim.heartbeat_share" "fraction";
    m "netsim.dropped_per_kop" "count";
    host "netsim.kernel_ns_per_msg" "ns";
    host "prof.net_deliver_share" "fraction";
    host "prof.detector_sweep_share" "fraction";
    m "storage.requests_per_op" "count";
    m "storage.kb_per_op" "KB";
    m "storage.device_util" "fraction";
    host "storage.kernel_ns_per_force" "ns";
    host "prof.disk_complete_share" "fraction";
    m "locks.acquires_per_op" "count";
    m "locks.wait_share" "fraction";
    m "locks.mean_wait_ms" "ms";
    m "locks.max_queue" "count";
    m "locks.timeouts" "count";
    host "locks.kernel_ns_per_acquire" "ns";
    host "prof.lock_grant_share" "fraction";
    m "mds.inodes" "count";
    m "mds.readdir_entries_per_op" "count";
    m "read_p99_ms" "ms";
    host "mds.kernel_ns_per_apply" "ns";
    host "mds.kernel_ns_per_readdir_entry" "ns";
  ]
  @ per_protocol "acp.msgs_per_txn" "count"
  @ per_protocol "acp.forces_per_txn" "count"
  @ per_protocol "acp.msg_efficiency" "fraction"
  @ [
      m "acp.fences" "count";
      m "acp.stale_nacks" "count";
      m "acp.fallbacks" "count";
    ]
  @ List.concat_map
      (fun part -> per_protocol ("path." ^ part ^ "_ms") "ms")
      [ "network"; "log_force"; "disk_queue"; "lock_wait"; "compute" ]
  @ per_protocol "path.forces" "count"
  @ per_protocol "path.messages" "count"
  @ [
      host "prof.heartbeat_share" "fraction";
      host "prof.compute_share" "fraction";
      m "cluster.rejected" "count";
      m "chaos.faults_per_run" "count";
    ]
  @ per_protocol "chaos.edge_coverage" "fraction"
  @ [
      m "chaos.violations" "count";
      host "obs.trace_overhead" "ratio";
      host "gen.host_share" "fraction";
    ]
