(** Incident bundle writer and validator.

    When a chaos oracle or a perf gate fails, the failing run is
    replayed with every collector enabled and the result is condensed
    into one self-describing directory — the incident bundle:

    - [incident.json] — the manifest: verdict, protocol, seed, the
      verbatim repro command line, the shrunk schedule, the failure
      instant, settle diagnostics and the list of sibling files;
    - [ring.jsonl] — the flight recorder's tail ({!Recorder}): the last
      things the system did before the verdict;
    - [journal.jsonl] — the full lifecycle journal ({!Journal});
    - [trace.json] — a Chrome-trace slice of the spans overlapping a
      window around the failure instant (open in Perfetto);
    - [mttr.json] — the recovery decomposition ({!Mttr.windows});
    - [prof.speedscope.json] — the host profile, when one was taken.

    [write] returns the file list it put in the manifest; [validate]
    re-reads a bundle through the strict {!Json} reader so CI can prove
    each artifact is well-formed before a human ever opens it. *)

(** One protocol's edge-coverage digest for the manifest: how many
    edges its declared transition map holds, how many this run
    traversed, and the names of the ones it never took. The bundle
    builder supplies the summaries (this layer knows nothing of
    protocol edge maps). *)
type coverage_summary = {
  cov_protocol : string;  (** protocol short name, e.g. ["1PC"] *)
  declared : int;
  edges_hit : int;
  never_hit : string list;
}

type source = {
  verdict : string;  (** the oracle's failure text (or gate message) *)
  protocol : string;  (** protocol short name, e.g. ["1pc"] *)
  seed : int;
  repro : string;  (** verbatim shell command that reproduces the run *)
  schedule : string;  (** OCaml literal of the shrunk schedule, or [""] *)
  diagnostics : string;  (** settle diagnostics, or [""] *)
  sink : Sink.t;
      (** what the run's collectors saw: the ring, the journal (and the
          MTTR windows derived from it), the spans and the gauge
          names *)
  profile : Prof.report option;
  coverage : coverage_summary list;
      (** per hosted protocol (primary, plus the PrN fallback when the
          primary is 1PC or L1PC); [[]] when the run recorded no
          coverage *)
}

val failure_instant : source -> Simkit.Time.t
(** The bundle's anchor: the latest instant any collector saw — the
    last journal entry or recorder record, whichever is later. *)

val slice_radius : Simkit.Time.span
(** Half-width of the trace slice around {!failure_instant} (100 ms of
    simulated time). *)

val write : dir:string -> source -> string list
(** Write the bundle into [dir] (created if missing, files
    overwritten). Returns the manifest's file list — [incident.json]
    first, then every sibling artifact actually written. *)

val validate : string -> (unit, string) result
(** Re-parse a bundle directory: [incident.json] must be a JSON object
    carrying the manifest fields, and every file it lists must exist
    and parse ([.jsonl] line by line). This is the reader CI runs over
    freshly written bundles. *)
