(** MTTR decomposition of unavailability windows.

    Folds a {!Journal} into per-node unavailability windows — from a
    [Crash] entry to the node's next [Serving] entry — and splits each
    window into the paper's recovery phases:

    - {b detect}: crash → first failure-detector [Suspect] of the node;
    - {b fence}: → last SAN [Fence_end] for the node;
    - {b scan}: → last [Scan_end] of the node's log partition;
    - {b resolve}: → [Serving] (orphan resolution, restart delay,
      local recovery replay).

    Markers are clamped into a monotone chain, so the four segments
    always sum to exactly the window's total; a phase that never
    happened (e.g. nobody suspected a node that rebooted quickly)
    contributes a zero segment. Windows still open at the end of the
    journal (node never served again) are dropped. *)

type window = {
  node : int;
  start : Simkit.Time.t;  (** crash instant *)
  suspect_at : Simkit.Time.t;
  fence_at : Simkit.Time.t;
  scan_at : Simkit.Time.t;
  serving : Simkit.Time.t;
  detect : Simkit.Time.span;
  fence : Simkit.Time.span;
  scan : Simkit.Time.span;
  resolve : Simkit.Time.span;
}

val total : window -> Simkit.Time.span
(** [serving - start]; always equals [detect + fence + scan + resolve]. *)

val windows : Journal.entry list -> window list
(** Closed unavailability windows, in order of the [Serving] entry that
    closed them. *)

val check_crash_times :
  expected:(int * Simkit.Time.t) list ->
  window list ->
  (unit, string) result
(** [check_crash_times ~expected ws] verifies that every [(node, time)]
    pair — e.g. a chaos schedule's injected crashes — matches the start
    of some measured window exactly. The error names the first unmatched
    pair and every window start, in nanoseconds. *)

val pp : Format.formatter -> window -> unit
