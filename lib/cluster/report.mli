(** Whole-run statistics report.

    Gathers everything measurable about a cluster run — outcome counts,
    latency distribution, network/disk/WAL/lock statistics per layer and
    per node, and the raw ledger — into one value with a human-readable
    rendering. The CLI's `run` subcommand prints this; tests pick fields
    out of it. *)

type node = {
  server : int;
  up : bool;
  wal : Storage.Wal.stats;
  locks : Locks.Lock_manager.stats;
  outstanding : int;
}

type t = {
  at : Simkit.Time.t;  (** simulated time of collection *)
  committed : int;
  aborted : int;
  reads : int;
  latency_mean : Simkit.Time.span;  (** committed transactions *)
  latency_p50 : Simkit.Time.span;
  latency_p95 : Simkit.Time.span;
  latency_max : Simkit.Time.span;
  mean_lock_hold : Simkit.Time.span;  (** coordinator-side, all txns *)
  network : Netsim.Network.stats;
  disk : Storage.Disk.stats;
  nodes : node list;
  ledger : (string * int) list;
  mttr : Obs.Mttr.window list;
      (** closed unavailability windows from the journal; [] unless the
          cluster recorded one ([record_journal]) *)
}

val collect : Cluster.t -> t
val print : t -> unit
