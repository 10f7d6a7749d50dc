type costs = {
  total_sync : int;
  total_async : int;
  critical_sync : int;
  critical_async : int;
  total_messages : int;
  critical_messages : int;
}

(* Each protocol's counts, derived write by write and message by message
   from the state machines in Two_phase and One_phase. The client reply
   point defines the critical path. *)
let failure_free (kind : Protocol.kind) =
  match kind with
  | Protocol.Prn ->
      (* Coordinator: STARTED (sync), own Updates+Prepared (sync, runs in
         parallel with the worker's prepare so off the critical path),
         COMMITTED (sync), ENDED (async).
         Worker: Updates+Prepared (sync), COMMITTED (sync).
         Client reply only after the worker's ACK, so the worker's two
         forces and the coordinator's STARTED and COMMITTED all sit on
         the path, plus the ENDED append issued before replying.
         Messages: PREPARE, PREPARED, COMMIT, ACK — all awaited. *)
      {
        total_sync = 5;
        total_async = 1;
        critical_sync = 4;
        critical_async = 1;
        total_messages = 4;
        critical_messages = 4;
      }
  | Protocol.Prc ->
      (* As PrN without the ACK/ENDED epilogue: the coordinator replies
         right after its COMMITTED force and the worker's COMMITTED
         becomes a single asynchronous append.
         Critical path: STARTED, worker prepare, COMMITTED (the
         coordinator's own prepare overlaps the worker's).
         Messages: PREPARE, PREPARED, COMMIT; only the voting round trip
         is awaited. *)
      {
        total_sync = 4;
        total_async = 1;
        critical_sync = 3;
        critical_async = 0;
        total_messages = 3;
        critical_messages = 2;
      }
  | Protocol.Ep ->
      (* PrC with the voting round trip folded into the update round
         trip: PREPARE rides on UPDATE REQ and UPDATED is the vote, so
         the only additional message is the (unawaited) COMMIT. Log
         writes are exactly PrC's. *)
      {
        total_sync = 4;
        total_async = 1;
        critical_sync = 3;
        critical_async = 0;
        total_messages = 1;
        critical_messages = 0;
      }
  | Protocol.Opc ->
      (* Coordinator: STARTED+REDO (one sync force), own
         Updates+COMMITTED (one sync force, after the client reply —
         off the path). Worker: Updates+COMMITTED (one sync force, on
         the path: the coordinator waits for UPDATED), ENDED (async).
         The only additional message is the unawaited ACK. *)
      {
        total_sync = 3;
        total_async = 1;
        critical_sync = 2;
        critical_async = 0;
        total_messages = 1;
        critical_messages = 0;
      }
  | Protocol.Lp1 ->
      (* Logless: no WAL at all. Coordinator applies volatilely, sends
         VOTE_REQ (baseline); worker applies, parks its vote state at
         both replica-group members (REP_STORE x2), waits for the first
         REP_ACK, then votes (baseline). The coordinator replies to the
         client on the YES vote and sends DECIDE; the worker answers
         DECIDE_ACK and releases its replicas (REP_DROP x2). Critical
         path: one REP_STORE + one REP_ACK — the replication round trip
         the vote waits on; everything after the reply is off-path.
         8 additional messages total, 0 forces anywhere. *)
      {
        total_sync = 0;
        total_async = 0;
        critical_sync = 0;
        critical_async = 0;
        total_messages = 8;
        critical_messages = 2;
      }

(* Abort provoked by a worker NO vote at update time. All protocols
   force STARTED (for 1PC together with the REDO record) and then force
   ABORTED before answering the client; the 2PC family additionally
   tells the worker (ABORT, acknowledged) and finalizes with an
   asynchronous ENDED. *)
let worker_rejected (kind : Protocol.kind) =
  match kind with
  | Protocol.Prn | Protocol.Prc ->
      (* STARTED + ABORTED forced; ABORT/ACK exchanged; ENDED async.
         Identical rows: the presumed-commit optimization buys nothing
         on aborts (§II-D). *)
      {
        total_sync = 2;
        total_async = 1;
        critical_sync = 2;
        critical_async = 0;
        total_messages = 2;
        critical_messages = 0;
      }
  | Protocol.Ep ->
      (* As PrC, plus the eagerly forced (and wasted) coordinator
         prepare that was already on disk when the NO vote arrived. *)
      {
        total_sync = 3;
        total_async = 1;
        critical_sync = 2;
        critical_async = 0;
        total_messages = 2;
        critical_messages = 0;
      }
  | Protocol.Opc ->
      (* STARTED+REDO and ABORTED, both forced; the rejecting worker
         kept no state, so no abort round at all. *)
      {
        total_sync = 2;
        total_async = 0;
        critical_sync = 2;
        critical_async = 0;
        total_messages = 0;
        critical_messages = 0;
      }
  | Protocol.Lp1 ->
      (* The rejecting worker never replicated anything and the
         coordinator keeps nothing durable: the NO vote itself (baseline)
         ends the transaction. Nothing forced, nothing extra sent. *)
      {
        total_sync = 0;
        total_async = 0;
        critical_sync = 0;
        critical_async = 0;
        total_messages = 0;
        critical_messages = 0;
      }

(* The published Table I, verbatim — extended with the derived L1PC row
   (the logless protocol postdates the paper, so its row is ours, kept
   as a literal for the same cannot-silently-drift reason). *)
let paper_table1 (kind : Protocol.kind) =
  match kind with
  | Protocol.Prn ->
      {
        total_sync = 5;
        total_async = 1;
        critical_sync = 4;
        critical_async = 1;
        total_messages = 4;
        critical_messages = 4;
      }
  | Protocol.Prc ->
      {
        total_sync = 4;
        total_async = 1;
        critical_sync = 3;
        critical_async = 0;
        total_messages = 3;
        critical_messages = 2;
      }
  | Protocol.Ep ->
      {
        total_sync = 4;
        total_async = 1;
        critical_sync = 3;
        critical_async = 0;
        total_messages = 1;
        critical_messages = 0;
      }
  | Protocol.Opc ->
      {
        total_sync = 3;
        total_async = 1;
        critical_sync = 2;
        critical_async = 0;
        total_messages = 1;
        critical_messages = 0;
      }
  | Protocol.Lp1 ->
      {
        total_sync = 0;
        total_async = 0;
        critical_sync = 0;
        critical_async = 0;
        total_messages = 8;
        critical_messages = 2;
      }

let predicted_storm_throughput ~bandwidth_bytes_per_s ~block_bytes kind =
  let c = failure_free kind in
  let writes = c.total_sync + c.total_async in
  if writes = 0 then Float.infinity
  else float_of_int bandwidth_bytes_per_s /. float_of_int (block_bytes * writes)

let table () =
  let t =
    Metrics.Table.create
      ~columns:
        [
          "";
          "Total Log Write (sync, async)";
          "Log Write in Critical Path (sync, async)";
          "Total Messages";
          "Messages in Critical Path";
        ]
  in
  List.iter
    (fun kind ->
      let c = failure_free kind in
      Metrics.Table.add_row t
        [
          Protocol.name kind;
          Fmt.str "(%d, %d)" c.total_sync c.total_async;
          Fmt.str "(%d, %d)" c.critical_sync c.critical_async;
          string_of_int c.total_messages;
          string_of_int c.critical_messages;
        ])
    Protocol.all;
  t
