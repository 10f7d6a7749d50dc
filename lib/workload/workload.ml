type stats = {
  submitted : int;
  committed : int;
  aborted : int;
  reads : int;
  first_submit : Simkit.Time.t;
  last_reply : Simkit.Time.t;
}

let throughput_per_s stats =
  if stats.committed = 0 then 0.0
  else
    let span =
      Simkit.Time.span_to_float_s
        (Simkit.Time.diff stats.last_reply stats.first_submit)
    in
    if span <= 0.0 then 0.0 else float_of_int stats.committed /. span

let pp_stats ppf s =
  Fmt.pf ppf "%d submitted, %d committed, %d aborted, %d reads, %.4gs wall"
    s.submitted s.committed s.aborted s.reads
    (Simkit.Time.span_to_float_s (Simkit.Time.diff s.last_reply s.first_submit))

let rec submit_with_retries cluster ~retries op ~on_done =
  Opc_cluster.Cluster.submit cluster op ~on_done:(fun outcome ->
      match outcome with
      | Acp.Txn.Aborted _ when retries > 0 ->
          submit_with_retries cluster ~retries:(retries - 1) op ~on_done
      | outcome -> on_done outcome)

type record = {
  index : int;
  op : Mds.Op.t;
  mutable outcome : Acp.Txn.outcome option;
  mutable completion_rank : int option;
  mutable replies : int;
}

type t = {
  cluster : Opc_cluster.Cluster.t;
  mutable submitted : int;
  mutable committed : int;
  mutable aborted : int;
  mutable reads : int;
  mutable first_submit : Simkit.Time.t;
  mutable last_reply : Simkit.Time.t;
  mutable records_rev : record list;
  mutable completions : int;
}

let stats t =
  {
    submitted = t.submitted;
    committed = t.committed;
    aborted = t.aborted;
    reads = t.reads;
    first_submit = t.first_submit;
    last_reply = t.last_reply;
  }

let done_ t = t.committed + t.aborted >= t.submitted

let fresh cluster =
  {
    cluster;
    submitted = 0;
    committed = 0;
    aborted = 0;
    reads = 0;
    first_submit = Opc_cluster.Cluster.now cluster;
    last_reply = Simkit.Time.zero;
    records_rev = [];
    completions = 0;
  }

let records t = List.rev t.records_rev

let submit t op ~k =
  t.submitted <- t.submitted + 1;
  let r =
    { index = t.submitted - 1; op; outcome = None; completion_rank = None;
      replies = 0 }
  in
  t.records_rev <- r :: t.records_rev;
  Opc_cluster.Cluster.submit t.cluster op ~on_done:(fun outcome ->
      r.replies <- r.replies + 1;
      if r.outcome = None then begin
        r.outcome <- Some outcome;
        r.completion_rank <- Some t.completions;
        t.completions <- t.completions + 1
      end;
      t.last_reply <- Opc_cluster.Cluster.now t.cluster;
      (match outcome with
      | Acp.Txn.Committed -> t.committed <- t.committed + 1
      | Acp.Txn.Aborted _ -> t.aborted <- t.aborted + 1);
      k outcome)

let storm cluster ~dir ~count ?(prefix = "f") () =
  let t = fresh cluster in
  for i = 0 to count - 1 do
    submit t
      (Mds.Op.create_file ~parent:dir ~name:(Printf.sprintf "%s%d" prefix i))
      ~k:(fun _ -> ())
  done;
  t

let churn cluster ~dir ~files ~rounds =
  let t = fresh cluster in
  let rec create_then_delete client round =
    if round < rounds then
      let name = Printf.sprintf "churn%d" client in
      submit t (Mds.Op.create_file ~parent:dir ~name) ~k:(fun outcome ->
          match outcome with
          | Acp.Txn.Committed ->
              submit t (Mds.Op.delete ~parent:dir ~name) ~k:(fun _ ->
                  create_then_delete client (round + 1))
          | Acp.Txn.Aborted _ -> create_then_delete client (round + 1))
  in
  for client = 0 to files - 1 do
    create_then_delete client 0
  done;
  t

type mix = {
  create_weight : int;
  delete_weight : int;
  rename_weight : int;
  lookup_weight : int;
}

let default_mix =
  { create_weight = 70; delete_weight = 20; rename_weight = 10;
    lookup_weight = 0 }

module Pool = struct
  (* Names in insertion order, one slot each; a taken name's slot goes
     dead. A Fenwick tree over the slots counts the live ones, so the
     [i]-th newest is found by rank in O(log n). When the slots run out
     the live names are packed to the front, in order, and the slots
     doubled unless at most half were live. Slot counts are powers of
     two. *)
  type t = {
    mutable names : string array;
    mutable live : Bytes.t;  (* '\001' at a live slot *)
    mutable tree : int array;  (* 1-based Fenwick tree over [live] *)
    mutable used : int;  (* slots filled so far *)
    mutable count : int;  (* live names *)
  }

  let create () =
    { names = [||]; live = Bytes.empty; tree = [| 0 |]; used = 0; count = 0 }

  let length t = t.count

  let bump t slot d =
    let i = ref (slot + 1) in
    while !i < Array.length t.tree do
      t.tree.(!i) <- t.tree.(!i) + d;
      i := !i + (!i land - !i)
    done

  let repack t cap =
    let names = Array.make cap "" and live = Bytes.make cap '\000' in
    let tree = Array.make (cap + 1) 0 in
    let k = ref 0 in
    for s = 0 to t.used - 1 do
      if Bytes.get t.live s <> '\000' then begin
        names.(!k) <- t.names.(s);
        Bytes.set live !k '\001';
        tree.(!k + 1) <- 1;
        incr k
      end
    done;
    for i = 1 to cap do
      let j = i + (i land -i) in
      if j <= cap then tree.(j) <- tree.(j) + tree.(i)
    done;
    t.names <- names;
    t.live <- live;
    t.tree <- tree;
    t.used <- !k

  let add t name =
    let cap = Array.length t.names in
    if t.used = cap then
      repack t (if cap > 0 && 2 * t.count <= cap then cap else max 8 (2 * cap));
    let s = t.used in
    t.names.(s) <- name;
    Bytes.set t.live s '\001';
    bump t s 1;
    t.used <- s + 1;
    t.count <- t.count + 1

  (* The slot of the [rank]-th live name from the oldest, 1-based:
     descend the tree by halving steps from the slot count. *)
  let slot_of_rank t rank =
    let cap = Array.length t.names in
    let pos = ref 0 and rem = ref rank and step = ref cap in
    while !step > 0 do
      let next = !pos + !step in
      if next <= cap && t.tree.(next) < !rem then begin
        pos := next;
        rem := !rem - t.tree.(next)
      end;
      step := !step lsr 1
    done;
    !pos

  let newest t =
    if t.count = 0 then None else Some t.names.(slot_of_rank t t.count)

  let take t i =
    if i < 0 || i >= t.count then invalid_arg "Workload.Pool.take";
    let s = slot_of_rank t (t.count - i) in
    let name = t.names.(s) in
    t.names.(s) <- "";
    Bytes.set t.live s '\000';
    bump t s (-1);
    t.count <- t.count - 1;
    name
end

(* Files the generator has committed and not yet deleted/renamed-away,
   per directory: the pool deletes and renames draw from. *)
type live_files = (Mds.Update.ino, Pool.t) Hashtbl.t

let pool_add (pool : live_files) dir name =
  match Hashtbl.find_opt pool dir with
  | Some p -> Pool.add p name
  | None ->
      let p = Pool.create () in
      Pool.add p name;
      Hashtbl.replace pool dir p

let pool_take (pool : live_files) rng dir =
  match Hashtbl.find_opt pool dir with
  | Some p when Pool.length p > 0 ->
      Some (Pool.take p (Simkit.Rng.int rng (Pool.length p)))
  | _ -> None

let closed_loop cluster ~dirs ~clients ~ops_per_client
    ?(mix = default_mix) ?(zipf_s = 0.9) ~rng () =
  if Array.length dirs = 0 then invalid_arg "Workload.closed_loop: no dirs";
  let t = fresh cluster in
  let pool : live_files = Hashtbl.create 16 in
  let total_weight =
    mix.create_weight + mix.delete_weight + mix.rename_weight
    + mix.lookup_weight
  in
  if total_weight <= 0 then invalid_arg "Workload.closed_loop: empty mix";
  let counter = ref 0 in
  let pick_dir () =
    dirs.(Simkit.Rng.zipf rng ~n:(Array.length dirs) ~s:zipf_s)
  in
  let fresh_name client =
    incr counter;
    "c" ^ string_of_int client ^ "_" ^ string_of_int !counter
  in
  let rec step client remaining =
    if remaining > 0 then begin
      let dir = pick_dir () in
      let roll = Simkit.Rng.int rng total_weight in
      let continue_ _ = step client (remaining - 1) in
      if roll < mix.create_weight then begin
        let name = fresh_name client in
        submit t (Mds.Op.create_file ~parent:dir ~name) ~k:(fun outcome ->
            (match outcome with
            | Acp.Txn.Committed -> pool_add pool dir name
            | Acp.Txn.Aborted _ -> ());
            continue_ outcome)
      end
      else if roll < mix.create_weight + mix.delete_weight then
        match pool_take pool rng dir with
        | Some name ->
            submit t (Mds.Op.delete ~parent:dir ~name) ~k:continue_
        | None ->
            (* Nothing to delete here yet: create instead. *)
            let name = fresh_name client in
            submit t (Mds.Op.create_file ~parent:dir ~name)
              ~k:(fun outcome ->
                (match outcome with
                | Acp.Txn.Committed -> pool_add pool dir name
                | Acp.Txn.Aborted _ -> ());
                continue_ outcome)
      else if
        roll < mix.create_weight + mix.delete_weight + mix.lookup_weight
      then begin
        (* Shared-lock read of a (possibly absent) name. *)
        let name =
          match Option.bind (Hashtbl.find_opt pool dir) Pool.newest with
          | Some n -> n
          | None -> "missing"
        in
        Opc_cluster.Cluster.lookup t.cluster ~dir ~name ~on_done:(fun _ ->
            t.reads <- t.reads + 1;
            t.last_reply <- Opc_cluster.Cluster.now t.cluster;
            step client (remaining - 1))
      end
      else
        let dst = pick_dir () in
        match pool_take pool rng dir with
        | Some name ->
            let dst_name = fresh_name client in
            submit t
              (Mds.Op.rename ~src_dir:dir ~src_name:name ~dst_dir:dst
                 ~dst_name)
              ~k:(fun outcome ->
                (match outcome with
                | Acp.Txn.Committed -> pool_add pool dst dst_name
                | Acp.Txn.Aborted _ -> pool_add pool dir name);
                continue_ outcome)
        | None ->
            let name = fresh_name client in
            submit t (Mds.Op.create_file ~parent:dir ~name)
              ~k:(fun outcome ->
                (match outcome with
                | Acp.Txn.Committed -> pool_add pool dir name
                | Acp.Txn.Aborted _ -> ());
                continue_ outcome)
    end
  in
  for client = 0 to clients - 1 do
    step client ops_per_client
  done;
  t

(* ------------------------------------------------------------------ *)
(* Trace replay                                                        *)
(* ------------------------------------------------------------------ *)

type script_op =
  | S_create of string
  | S_mkdir of string
  | S_delete of string
  | S_rename of string * string

let pp_script_op ppf = function
  | S_create p -> Fmt.pf ppf "create %s" p
  | S_mkdir p -> Fmt.pf ppf "mkdir %s" p
  | S_delete p -> Fmt.pf ppf "delete %s" p
  | S_rename (a, b) -> Fmt.pf ppf "rename %s %s" a b

let valid_path p = String.length p > 1 && p.[0] = '/'

let parse_script text =
  let parse_line lineno line =
    let words =
      String.split_on_char ' ' (String.trim line)
      |> List.filter (fun w -> w <> "")
    in
    match words with
    | [] -> Ok None
    | w :: _ when String.length w > 0 && w.[0] = '#' -> Ok None
    | [ "create"; p ] when valid_path p -> Ok (Some (S_create p))
    | [ "mkdir"; p ] when valid_path p -> Ok (Some (S_mkdir p))
    | [ "delete"; p ] when valid_path p -> Ok (Some (S_delete p))
    | [ "rename"; a; b ] when valid_path a && valid_path b ->
        Ok (Some (S_rename (a, b)))
    | _ -> Error (Printf.sprintf "line %d: cannot parse %S" lineno line)
  in
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line lineno line with
        | Ok None -> go (lineno + 1) acc rest
        | Ok (Some op) -> go (lineno + 1) (op :: acc) rest
        | Error _ as e -> e)
  in
  go 1 [] lines

(* Resolve /a/b/c to (inode of /a/b, "c") by walking the live namespace
   through the owning servers' volatile state. *)
let split_path path =
  match List.rev (List.filter (fun c -> c <> "") (String.split_on_char '/' path)) with
  | [] -> Error "empty path"
  | leaf :: rev_parents -> Ok (List.rev rev_parents, leaf)

let resolve_parent cluster path =
  match split_path path with
  | Error _ as e -> e
  | Ok (parents, leaf) ->
      let placement = Opc_cluster.Cluster.placement cluster in
      let rec walk dir = function
        | [] -> Ok (dir, leaf)
        | component :: rest -> (
            match Mds.Placement.node_of placement dir with
            | exception Not_found -> Error "unplaced directory"
            | server -> (
                let node = Opc_cluster.Cluster.node cluster server in
                match
                  Mds.State.lookup
                    (Mds.Store.volatile (Opc_cluster.Node.store node))
                    ~dir ~name:component
                with
                | Some ino -> walk ino rest
                | None ->
                    Error (Printf.sprintf "no such directory: %s" component)))
      in
      walk (Opc_cluster.Cluster.root cluster) parents

let replay cluster ?(concurrency = 1) script =
  if concurrency < 1 then invalid_arg "Workload.replay: concurrency < 1";
  let t = fresh cluster in
  let queue = Queue.create () in
  List.iter (fun op -> Queue.add op queue) script;
  let to_op = function
    | S_create p ->
        Result.map
          (fun (parent, name) -> Mds.Op.create_file ~parent ~name)
          (resolve_parent cluster p)
    | S_mkdir p ->
        Result.map
          (fun (parent, name) -> Mds.Op.mkdir ~parent ~name)
          (resolve_parent cluster p)
    | S_delete p ->
        Result.map
          (fun (parent, name) -> Mds.Op.delete ~parent ~name)
          (resolve_parent cluster p)
    | S_rename (a, b) -> (
        match (resolve_parent cluster a, resolve_parent cluster b) with
        | Ok (src_dir, src_name), Ok (dst_dir, dst_name) ->
            Ok (Mds.Op.rename ~src_dir ~src_name ~dst_dir ~dst_name)
        | (Error _ as e), _ | _, (Error _ as e) -> e)
  in
  let rec pump () =
    match Queue.take_opt queue with
    | None -> ()
    | Some sop -> (
        match to_op sop with
        | Ok op -> submit t op ~k:(fun _ -> pump ())
        | Error reason ->
            (* Count unresolvable operations as aborted submissions. *)
            t.submitted <- t.submitted + 1;
            t.aborted <- t.aborted + 1;
            t.last_reply <- Opc_cluster.Cluster.now cluster;
            ignore reason;
            pump ())
  in
  for _ = 1 to concurrency do
    pump ()
  done;
  t

(* ------------------------------------------------------------------ *)
(* Open-loop arrivals                                                  *)
(* ------------------------------------------------------------------ *)

module Open_loop = struct
  let label_arrival = Simkit.Label.v Other "wl.openloop.arrival"
  let label_attempt_timeout = Simkit.Label.v Other "wl.openloop.timeout"
  let label_retry = Simkit.Label.v Other "wl.openloop.retry"

  type arrival = Poisson | Bursty of { burst : int }

  type policy = {
    attempt_timeout : Simkit.Time.span;
    backoff : Simkit.Time.span;
    backoff_multiplier : float;
    jitter : float;
    max_attempts : int;
  }

  let default_policy =
    {
      attempt_timeout = Simkit.Time.span_ms 500;
      backoff = Simkit.Time.span_ms 100;
      backoff_multiplier = 2.0;
      jitter = 0.2;
      max_attempts = 4;
    }

  type spec = {
    arrival : arrival;
    rate_per_s : float;
    duration : Simkit.Time.span;
    dirs : Mds.Update.ino array;
    zipf_s : float;
    policy : policy;
  }

  type resolution = R_committed | R_aborted of string | R_gave_up

  type request = {
    req_index : int;
    req_key : Opc_cluster.Ingress.key;
    req_op : Mds.Op.t;
    arrived_at : Simkit.Time.t;
    mutable attempts : int;
    mutable busy_replies : int;
    mutable attempt_timeouts : int;
    mutable resolution : resolution option;
    mutable resolved_at : Simkit.Time.t;
    mutable gen : int;  (* generation of the live attempt *)
    mutable timer : Simkit.Engine.handle;
  }

  type t = {
    cluster : Opc_cluster.Cluster.t;
    ingress : Opc_cluster.Ingress.t;
    spec : spec;
    rng : Simkit.Rng.t;
    mutable launched : int;
    mutable resolved : int;
    mutable committed : int;
    mutable aborted : int;
    mutable gave_up : int;
    mutable busy : int;
    mutable timeouts : int;
    mutable total_attempts : int;
    mutable arrivals_open : bool;
    latency : Metrics.Histogram.t;  (* committed: arrival -> resolution *)
    mutable requests_rev : request list;
  }

  let now t = Opc_cluster.Cluster.now t.cluster
  let engine t = Opc_cluster.Cluster.engine t.cluster

  let cancel_timer t r =
    Simkit.Engine.cancel (engine t) r.timer;
    r.timer <- Simkit.Engine.none

  let resolve t r res =
    match r.resolution with
    | Some _ -> ()
    | None -> (
        r.resolution <- Some res;
        r.resolved_at <- now t;
        t.resolved <- t.resolved + 1;
        match res with
        | R_committed ->
            t.committed <- t.committed + 1;
            Metrics.Histogram.record t.latency
              (Simkit.Time.diff r.resolved_at r.arrived_at)
        | R_aborted _ -> t.aborted <- t.aborted + 1
        | R_gave_up -> t.gave_up <- t.gave_up + 1)

  (* Exponential backoff with deterministic, seeded, symmetric jitter:
     base * multiplier^(attempt-1), scaled by 1 +/- jitter. *)
  let backoff_delay t r =
    let p = t.spec.policy in
    let base =
      float_of_int (Simkit.Time.span_to_ns p.backoff)
      *. (p.backoff_multiplier ** float_of_int (r.attempts - 1))
    in
    let factor =
      if p.jitter > 0.0 then
        1.0 +. (p.jitter *. ((2.0 *. Simkit.Rng.float t.rng 1.0) -. 1.0))
      else 1.0
    in
    Simkit.Time.span_ns (max 1 (int_of_float (base *. factor)))

  let rec attempt t r =
    r.attempts <- r.attempts + 1;
    t.total_attempts <- t.total_attempts + 1;
    let gen = r.gen in
    cancel_timer t r;
    r.timer <-
      Simkit.Engine.schedule (engine t) ~label:label_attempt_timeout
        ~after:t.spec.policy.attempt_timeout (fun () ->
          r.timer <- Simkit.Engine.none;
          if r.resolution = None && r.gen = gen then begin
            (* The attempt is dead to the client; a late reply for it
               is ignored and the retry reuses the idempotency key. *)
            r.gen <- r.gen + 1;
            r.attempt_timeouts <- r.attempt_timeouts + 1;
            t.timeouts <- t.timeouts + 1;
            retry_or_give_up t r
          end);
    Opc_cluster.Ingress.submit t.ingress ~key:r.req_key r.req_op
      ~on_reply:(fun reply ->
        if r.gen = gen && r.resolution = None then begin
          r.gen <- r.gen + 1;
          cancel_timer t r;
          match reply with
          | Opc_cluster.Ingress.Busy ->
              r.busy_replies <- r.busy_replies + 1;
              t.busy <- t.busy + 1;
              retry_or_give_up t r
          | Opc_cluster.Ingress.Done Acp.Txn.Committed ->
              resolve t r R_committed
          | Opc_cluster.Ingress.Done (Acp.Txn.Aborted reason) ->
              resolve t r (R_aborted reason)
        end)

  and retry_or_give_up t r =
    if r.attempts >= t.spec.policy.max_attempts then resolve t r R_gave_up
    else
      ignore
        (Simkit.Engine.schedule (engine t) ~label:label_retry
           ~after:(backoff_delay t r) (fun () ->
             if r.resolution = None then attempt t r))

  let launch t =
    let dir =
      t.spec.dirs.(Simkit.Rng.zipf t.rng
                     ~n:(Array.length t.spec.dirs)
                     ~s:t.spec.zipf_s)
    in
    let idx = t.launched in
    t.launched <- t.launched + 1;
    let r =
      {
        req_index = idx;
        req_key = { Opc_cluster.Ingress.client = idx; request = 0 };
        req_op =
          Mds.Op.create_file ~parent:dir ~name:(Printf.sprintf "ol%d" idx);
        arrived_at = now t;
        attempts = 0;
        busy_replies = 0;
        attempt_timeouts = 0;
        resolution = None;
        resolved_at = Simkit.Time.zero;
        gen = 0;
        timer = Simkit.Engine.none;
      }
    in
    t.requests_rev <- r :: t.requests_rev;
    attempt t r

  let rec schedule_next_arrival t ~stop =
    let mean =
      let per_arrival =
        match t.spec.arrival with
        | Poisson -> 1.0
        | Bursty { burst } -> float_of_int burst
      in
      Simkit.Time.span_ns
        (max 1 (int_of_float (per_arrival *. 1e9 /. t.spec.rate_per_s)))
    in
    let gap = Simkit.Rng.exponential_span t.rng ~mean in
    if Simkit.Time.( > ) (Simkit.Time.add (now t) gap) stop then
      t.arrivals_open <- false
    else
      ignore
        (Simkit.Engine.schedule (engine t) ~label:label_arrival ~after:gap
           (fun () ->
             (match t.spec.arrival with
             | Poisson -> launch t
             | Bursty { burst } ->
                 for _ = 1 to burst do
                   launch t
                 done);
             schedule_next_arrival t ~stop))

  let run cluster ingress spec ~rng =
    if Array.length spec.dirs = 0 then
      invalid_arg "Open_loop.run: no directories";
    if spec.rate_per_s <= 0.0 then
      invalid_arg "Open_loop.run: offered rate must be positive";
    if spec.policy.max_attempts < 1 then
      invalid_arg "Open_loop.run: max_attempts must be at least 1";
    if spec.policy.backoff_multiplier < 1.0 then
      invalid_arg "Open_loop.run: backoff_multiplier below 1.0";
    if spec.policy.jitter < 0.0 || spec.policy.jitter >= 1.0 then
      invalid_arg "Open_loop.run: jitter must be in [0, 1)";
    (match spec.arrival with
    | Bursty { burst } when burst < 1 ->
        invalid_arg "Open_loop.run: empty burst"
    | Bursty _ | Poisson -> ());
    let t =
      {
        cluster;
        ingress;
        spec;
        rng;
        launched = 0;
        resolved = 0;
        committed = 0;
        aborted = 0;
        gave_up = 0;
        busy = 0;
        timeouts = 0;
        total_attempts = 0;
        arrivals_open = true;
        latency = Metrics.Histogram.create ();
        requests_rev = [];
      }
    in
    let stop = Simkit.Time.add (now t) spec.duration in
    schedule_next_arrival t ~stop;
    t

  (* The cluster's own settle is not enough: a retry backoff or arrival
     timer is client state the cluster cannot see, so it could report
     quiescence while requests are still due to fire. Drain the client
     side first, then hand the remaining deadline to the cluster. *)
  let settle ?(deadline = Simkit.Time.span_s 600) t =
    let eng = engine t in
    let stop = Simkit.Time.add (Simkit.Engine.now eng) deadline in
    let rec loop () =
      if (not t.arrivals_open) && t.resolved >= t.launched then
        Opc_cluster.Cluster.settle
          ~deadline:(Simkit.Time.diff stop (Simkit.Engine.now eng))
          t.cluster
      else if Simkit.Time.( > ) (Simkit.Engine.now eng) stop then
        Opc_cluster.Cluster.Deadline_exceeded
      else if Simkit.Engine.step eng then loop ()
      else Opc_cluster.Cluster.Stuck
    in
    loop ()

  let requests t = List.rev t.requests_rev
  let latency t = t.latency

  type stats = {
    offered : int;
    resolved : int;
    committed : int;
    aborted : int;
    gave_up : int;
    busy_replies : int;
    attempt_timeouts : int;
    attempts : int;
    goodput_per_s : float;
    retry_amplification : float;
  }

  let stats (t : t) =
    {
      offered = t.launched;
      resolved = t.resolved;
      committed = t.committed;
      aborted = t.aborted;
      gave_up = t.gave_up;
      busy_replies = t.busy;
      attempt_timeouts = t.timeouts;
      attempts = t.total_attempts;
      goodput_per_s =
        (let s = Simkit.Time.span_to_float_s t.spec.duration in
         if s <= 0.0 then 0.0 else float_of_int t.committed /. s);
      retry_amplification =
        (if t.launched = 0 then 1.0
         else float_of_int t.total_attempts /. float_of_int t.launched);
    }
end
