(** Structured journal of cluster lifecycle events.

    A journal is an append-only, allocation-lean record of the discrete
    events that shape an unavailability window: crashes and reboots,
    failure-detector suspicions, SAN fencing, partition mounts and log
    scans, orphan-transaction resolution, network heals, and the chaos
    harness's own fault injections. Like {!Tracer}, recording is passive:
    the journal never schedules events, never reads a clock (callers pass
    [~time]) and never consumes randomness, so an enabled journal cannot
    perturb a deterministic run. The disabled path is one load and one
    branch.

    Entries with a parametrized payload allocate their [kind] at the emit
    site; guard those sites with {!is_recording} so a disabled journal
    costs nothing. *)

type kind =
  | Crash  (** node went down (injected fault or STONITH) *)
  | Reboot  (** node process restarted; recovery not yet complete *)
  | Serving  (** node finished recovery and accepts transactions *)
  | Suspect of { peer : int }  (** failure detector suspects [peer] *)
  | Fence_begin of { victim : int }  (** SAN expels [victim] *)
  | Fence_end of { victim : int }  (** fencing delay elapsed *)
  | Mount of { target : int }  (** reader mounted [target]'s partition *)
  | Scan_begin of { target : int }  (** log scan of [target] started *)
  | Scan_end of { target : int; records : int }
      (** log scan finished having read [records] durable records *)
  | Orphan_resolved of { origin : int; seq : int }
      (** orphan txn [(origin, seq)] decided during takeover *)
  | Heal  (** network partitions healed *)
  | Fault_injected of { index : int; desc : string }
      (** chaos schedule event [index] fired *)

type entry = { time : Simkit.Time.t; node : int; kind : kind }
(** [node] is the index of the node the event concerns, or [-1] for
    cluster-wide events (heal, fault injection). *)

type t

val create : unit -> t
val disabled : unit -> t

val is_recording : t -> bool
(** [true] iff this journal stores entries. Use to guard emit sites whose
    [kind] payload would otherwise allocate. *)

val emit : t -> time:Simkit.Time.t -> node:int -> kind -> unit
(** Append one entry; a no-op on a disabled journal. Layers emit through
    {!Sink.journal}, which mirrors the entry into the flight recorder. *)

val length : t -> int
val get : t -> int -> entry
val iter : (entry -> unit) -> t -> unit

val entries : t -> entry list
(** All entries in emission order. *)

val event_name : kind -> string
(** Stable dotted identifier, e.g. ["fence.begin"]. *)

val to_json : entry -> Json.t
(** One JSONL line: [t_ns], [node], [event], then the kind's fields. *)

val to_file : string -> t -> unit
(** Write the journal as JSONL, creating parent directories as needed. *)
