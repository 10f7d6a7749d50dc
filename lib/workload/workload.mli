(** Workload generators.

    Drives a {!Opc_cluster.Cluster} with the access patterns the paper
    cares about. Generators submit through the normal client API and
    count outcomes; run the cluster to quiescence (or for a fixed span)
    and read the stats afterwards.

    The headline generator is {!storm} — the paper's Figure 6 workload:
    N distributed CREATEs of distinct files in one directory, submitted
    simultaneously to that directory's server ("HPC applications that
    create many files in the same directory"). *)

type stats = {
  submitted : int;  (** mutating operations submitted *)
  committed : int;
  aborted : int;
  reads : int;  (** lookups served (closed-loop mixes with reads) *)
  first_submit : Simkit.Time.t;
  last_reply : Simkit.Time.t;  (** epoch if nothing completed *)
}

val throughput_per_s : stats -> float
(** Committed operations per simulated second, measured from first
    submission to last reply. 0 if nothing committed. *)

val pp_stats : Format.formatter -> stats -> unit

val submit_with_retries :
  Opc_cluster.Cluster.t ->
  retries:int ->
  Mds.Op.t ->
  on_done:(Acp.Txn.outcome -> unit) ->
  unit
(** ACID Sim's "leave" behaviour: an aborted transaction is resubmitted
    by its source. Retries up to [retries] extra times on any abort
    (timeouts, distributed deadlocks resolved by lock timeouts, crashes);
    [on_done] gets the final outcome. *)

type t
(** A running workload's counters. *)

val stats : t -> stats
val done_ : t -> bool
(** Every submitted operation has completed. *)

type record = {
  index : int;  (** submission order, 0-based *)
  op : Mds.Op.t;
  mutable outcome : Acp.Txn.outcome option;  (** [None] until replied *)
  mutable completion_rank : int option;
      (** position in reply order — replaying committed records by this
          rank reconstructs the namespace the cluster should hold *)
  mutable replies : int;  (** [on_done] invocations; must end up 1 *)
}

val records : t -> record list
(** Per-operation ledger in submission order, one record per mutating
    operation any generator submitted. The raw material for end-of-run
    oracles: exactly-once delivery ([replies = 1], [outcome <> None])
    and expected-namespace reconstruction. *)

val storm :
  Opc_cluster.Cluster.t ->
  dir:Mds.Update.ino ->
  count:int ->
  ?prefix:string ->
  unit ->
  t
(** Submit [count] CREATEs of ["<prefix><i>"] in [dir], all at the
    current instant. *)

val churn :
  Opc_cluster.Cluster.t ->
  dir:Mds.Update.ino ->
  files:int ->
  rounds:int ->
  t
(** [files] clients each repeatedly CREATE then DELETE their own file in
    [dir], [rounds] times — a create/delete mix that exercises both
    distributed operation types and the unref/reap path. *)

type mix = {
  create_weight : int;
  delete_weight : int;
  rename_weight : int;
  lookup_weight : int;  (** shared-lock reads (no transaction) *)
}

val default_mix : mix
(** 70 % create, 20 % delete, 10 % rename, no reads — the paper's
    write-dominated HPC profile. Metadata-read-heavy studies raise
    [lookup_weight]. *)

module Pool : sig
  (** The names {!closed_loop} committed in one directory and has not
      deleted or renamed away since: what its deletes and renames draw
      from, and what its lookups read. *)

  type t

  val create : unit -> t
  val length : t -> int

  val add : t -> string -> unit
  (** [add t name] makes [name] the newest. *)

  val newest : t -> string option

  val take : t -> int -> string
  (** [take t i] removes and returns the [i]-th newest name ([0] is the
      newest) in O(log n), keeping the others' order.
      @raise Invalid_argument unless [0 <= i < length t]. *)
end

val closed_loop :
  Opc_cluster.Cluster.t ->
  dirs:Mds.Update.ino array ->
  clients:int ->
  ops_per_client:int ->
  ?mix:mix ->
  ?zipf_s:float ->
  rng:Simkit.Rng.t ->
  unit ->
  t
(** [clients] independent clients, each submitting its next operation
    when the previous one completes. Directories are drawn Zipf([zipf_s],
    default 0.9) over [dirs]; deletes and renames target files this
    generator created earlier (aborted or not-yet-possible picks fall
    back to a create). *)

(** {1 Trace replay}

    Replays an application trace given as one operation per line:

    {v
    # comments and blank lines are skipped
    mkdir  /checkpoints
    create /checkpoints/rank0.out
    create /checkpoints/rank1.out
    delete /checkpoints/rank0.out
    rename /checkpoints/rank1.out /checkpoints/final.out
    v}

    Paths are absolute, [/]-separated, resolved against the live
    namespace at submission time (parents must already exist — traces
    are replayed in order, one operation per [concurrency] slot). *)

type script_op =
  | S_create of string
  | S_mkdir of string
  | S_delete of string
  | S_rename of string * string

val parse_script : string -> (script_op list, string) result
(** Parse trace text. The error names the offending line. *)

val pp_script_op : Format.formatter -> script_op -> unit

val replay :
  Opc_cluster.Cluster.t -> ?concurrency:int -> script_op list -> t
(** Submit the script's operations in order, keeping up to
    [concurrency] (default 1) in flight. Operations whose parent path
    does not resolve abort immediately (counted as aborted). *)

(** {1 Open-loop arrivals}

    The overload harness: requests arrive on their own clock (Poisson or
    bursty), regardless of whether earlier ones completed — so offered
    load can be pushed past the cluster's capacity knee, which a
    closed loop by construction cannot do. Each logical request is a
    lightweight fire-and-track client with a retry policy: a per-attempt
    timeout, exponential backoff with deterministic seeded jitter, a
    bounded attempt budget, and one idempotency key held stable across
    every retry, submitted through an {!Opc_cluster.Ingress} front
    door. *)

module Open_loop : sig
  type arrival =
    | Poisson  (** independent exponential inter-arrivals *)
    | Bursty of { burst : int }
        (** [burst] simultaneous arrivals per (Poisson) arrival event,
            with the gap scaled so the mean offered rate is unchanged *)

  type policy = {
    attempt_timeout : Simkit.Time.span;
        (** client-side patience per attempt *)
    backoff : Simkit.Time.span;  (** delay before the first retry *)
    backoff_multiplier : float;  (** growth per retry ([>= 1.0]) *)
    jitter : float;
        (** symmetric fractional jitter on each backoff, in [\[0, 1)];
            drawn from the workload's seeded generator *)
    max_attempts : int;  (** total attempts, first submission included *)
  }

  val default_policy : policy
  (** 500 ms patience, 100 ms backoff doubling per retry with 20 %
      jitter, 4 attempts. *)

  type spec = {
    arrival : arrival;
    rate_per_s : float;  (** mean offered load, requests per second *)
    duration : Simkit.Time.span;  (** arrival window *)
    dirs : Mds.Update.ino array;  (** targets, drawn Zipf([zipf_s]) *)
    zipf_s : float;
    policy : policy;
  }

  type resolution =
    | R_committed
    | R_aborted of string  (** definitive cluster abort; not retried *)
    | R_gave_up  (** attempt budget exhausted (timeouts and/or BUSY) *)

  type request = {
    req_index : int;
    req_key : Opc_cluster.Ingress.key;  (** stable across retries *)
    req_op : Mds.Op.t;
    arrived_at : Simkit.Time.t;
    mutable attempts : int;
    mutable busy_replies : int;
    mutable attempt_timeouts : int;
    mutable resolution : resolution option;
    mutable resolved_at : Simkit.Time.t;
    mutable gen : int;  (** internal: live-attempt generation *)
    mutable timer : Simkit.Engine.handle;
        (** internal: the attempt timeout, {!Simkit.Engine.none} if unarmed *)
  }

  type t

  val run :
    Opc_cluster.Cluster.t ->
    Opc_cluster.Ingress.t ->
    spec ->
    rng:Simkit.Rng.t ->
    t
  (** Schedule the arrival process (requests fire as the engine runs;
      nothing has executed yet on return). Run the engine — normally via
      {!settle} — to completion.
      @raise Invalid_argument on an empty [dirs], a non-positive rate or
      a nonsensical policy. *)

  val settle :
    ?deadline:Simkit.Time.span -> t -> Opc_cluster.Cluster.settle_outcome
  (** Step until every request is resolved {e and} the cluster itself is
      quiescent. The client side drains first: retry and arrival timers
      are invisible to {!Opc_cluster.Cluster.settle}, which could
      otherwise report quiescence with retries still pending. *)

  val requests : t -> request list
  (** Every launched request in arrival order — raw material for the
      exactly-once and namespace oracles. *)

  val latency : t -> Metrics.Histogram.t
  (** Arrival-to-commit latency of committed requests (the client view:
      backoff and retries included). *)

  type stats = {
    offered : int;  (** requests launched *)
    resolved : int;
    committed : int;
    aborted : int;
    gave_up : int;
    busy_replies : int;  (** BUSY replies received across all attempts *)
    attempt_timeouts : int;
    attempts : int;  (** submissions incl. retries *)
    goodput_per_s : float;  (** committed / arrival window *)
    retry_amplification : float;  (** attempts / offered *)
  }

  val stats : t -> stats
end
