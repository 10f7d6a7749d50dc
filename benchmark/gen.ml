(* The benchmark's own load generator.

   It calls Cluster.submit, Cluster.lookup and Cluster.readdir directly,
   so the program receives only generated operations. Workload.closed_loop
   is not used: its pool_take copies the directory's whole live-file list
   on every delete, which makes the generator, not the simulator, the
   largest host cost of a long closed loop. Here each directory keeps its
   live files in an array and a delete swap-removes a random slot.

   Every reply is checked as it arrives: each operation must be answered
   exactly once, a lookup of a live file must find it, and a readdir must
   list at least the live files and at most those plus the names still in
   flight. *)

type mix = { create : int; delete : int; lookup : int; readdir : int }

(* Live files of one directory: committed creates not yet picked for a
   delete. [pending] counts creates and deletes in flight there. *)
type pool = {
  mutable names : string array;
  mutable len : int;
  mutable pending : int;
}

let pool_add p name =
  if p.len = Array.length p.names then begin
    let bigger = Array.make (max 64 (2 * p.len)) "" in
    Array.blit p.names 0 bigger 0 p.len;
    p.names <- bigger
  end;
  p.names.(p.len) <- name;
  p.len <- p.len + 1

let pool_take p rng =
  let i = Simkit.Rng.int rng p.len in
  let name = p.names.(i) in
  p.len <- p.len - 1;
  p.names.(i) <- p.names.(p.len);
  p.names.(p.len) <- "";
  name

type t = {
  cluster : Opc.Cluster.t;
  timed : bool;  (* book the generator's own host time in [gen_ns] *)
  mutable gen_ns : int;
  mutable entered : int;
  mutable issued : int;
  mutable replies : Bytes.t;  (* per operation: answered yet? *)
  mutable mutations : int;
  mutable committed : int;
  mutable aborted : int;
  mutable reads : int;
  mutable readdirs : int;
  mutable readdir_entries : int;
  mutable failed_ops : int;  (* operations whose reply failed a check *)
  mutable errors : string list;  (* the first few failed checks *)
  mutable first_submit : Simkit.Time.t option;
  mutable last_reply : Simkit.Time.t;
  mutable mark : Simkit.Time.t option;
  read_latency : Opc.Metrics.Histogram.t;
}

let create ?(timed = false) cluster =
  {
    cluster;
    timed;
    gen_ns = 0;
    entered = 0;
    issued = 0;
    replies = Bytes.make 1024 '\000';
    mutations = 0;
    committed = 0;
    aborted = 0;
    reads = 0;
    readdirs = 0;
    readdir_entries = 0;
    failed_ops = 0;
    errors = [];
    first_submit = None;
    last_reply = Simkit.Time.zero;
    mark = None;
    read_latency = Opc.Metrics.Histogram.create ();
  }

(* The generator's clock runs while its own code does and stops around
   every call into the cluster; a reply callback restarts it. *)
let enter t = if t.timed then t.entered <- Host.now_ns ()
let leave t = if t.timed then t.gen_ns <- t.gen_ns + (Host.now_ns () - t.entered)

let call t f =
  leave t;
  f ();
  enter t

let fail t msg =
  t.failed_ops <- t.failed_ops + 1;
  if List.length t.errors < 5 then t.errors <- msg :: t.errors

let now t = Opc.Cluster.now t.cluster

(* Claim the next operation index. *)
let issue t =
  let i = t.issued in
  t.issued <- i + 1;
  if i >= Bytes.length t.replies then begin
    let bigger = Bytes.make (2 * Bytes.length t.replies) '\000' in
    Bytes.blit t.replies 0 bigger 0 (Bytes.length t.replies);
    t.replies <- bigger
  end;
  if t.first_submit = None then t.first_submit <- Some (now t);
  i

let replied t i =
  if Bytes.get t.replies i <> '\000' then
    fail t (Printf.sprintf "operation %d answered twice" i)
  else Bytes.set t.replies i '\001';
  t.last_reply <- now t

let read_done t i submitted =
  replied t i;
  t.reads <- t.reads + 1;
  Opc.Metrics.Histogram.record t.read_latency
    (Simkit.Time.diff (now t) submitted)

(* Submit one mutation; [k] runs on its reply. *)
let submit t op ~k =
  let i = issue t in
  t.mutations <- t.mutations + 1;
  call t (fun () ->
      Opc.Cluster.submit t.cluster op ~on_done:(fun outcome ->
          enter t;
          replied t i;
          (match outcome with
          | Acp.Txn.Committed -> t.committed <- t.committed + 1
          | Acp.Txn.Aborted _ -> t.aborted <- t.aborted + 1);
          k outcome;
          leave t))

let readdir t ~dir ~k =
  let i = issue t in
  let submitted = now t in
  call t (fun () ->
      Opc.Cluster.readdir t.cluster ~dir ~on_done:(fun result ->
          enter t;
          read_done t i submitted;
          (match result with
          | Ok entries ->
              t.readdirs <- t.readdirs + 1;
              t.readdir_entries <- t.readdir_entries + List.length entries;
              k entries
          | Error e -> fail t ("readdir: " ^ e));
          leave t))

(* Figure 6: [count] simultaneous CREATEs of f0..f<count-1> in [dir]. *)
let burst t ~dir ~count =
  enter t;
  for n = 0 to count - 1 do
    submit t
      (Mds.Op.create_file ~parent:dir ~name:("f" ^ string_of_int n))
      ~k:ignore
  done;
  leave t

(* Once a burst has settled its directory must list exactly the burst. *)
let check_burst t ~dir ~count =
  enter t;
  readdir t ~dir ~k:(fun entries ->
      let expected = List.init count (fun n -> "f" ^ string_of_int n) in
      if List.sort compare (List.map fst entries) <> List.sort compare expected
      then fail t "a burst directory does not list exactly its burst");
  leave t

(* [clients] closed-loop clients share [ops] operations over [dirs],
   chosen uniformly. A delete in an empty directory becomes a create.
   The simulated time at which operation [mark_at] is issued is kept in
   [mark]. *)
let closed_loop t ~dirs ~clients ~ops ~mix ~rng ?(mark_at = -1) () =
  let pools =
    Array.map (fun _ -> { names = [||]; len = 0; pending = 0 }) dirs
  in
  let counter = ref 0 in
  let total = mix.create + mix.delete + mix.lookup + mix.readdir in
  let rec next () =
    if t.issued < ops then begin
      if t.issued = mark_at then t.mark <- Some (now t);
      if t.issued mod 1000 = 0 then Host.cut ();
      let d = Simkit.Rng.int rng (Array.length dirs) in
      let dir = dirs.(d) and pool = pools.(d) in
      let roll = Simkit.Rng.int rng total in
      if roll < mix.create + mix.delete then begin
        let created, op =
          if roll >= mix.create && pool.len > 0 then
            (None, Mds.Op.delete ~parent:dir ~name:(pool_take pool rng))
          else begin
            incr counter;
            let name = "c" ^ string_of_int !counter in
            (Some name, Mds.Op.create_file ~parent:dir ~name)
          end
        in
        pool.pending <- pool.pending + 1;
        submit t op ~k:(fun outcome ->
            pool.pending <- pool.pending - 1;
            (match (created, outcome) with
            | Some name, Acp.Txn.Committed -> pool_add pool name
            | _ -> ());
            next ())
      end
      else if roll < mix.create + mix.delete + mix.lookup then begin
        let name =
          if pool.len = 0 then "missing"
          else pool.names.(Simkit.Rng.int rng pool.len)
        in
        let i = issue t in
        let submitted = now t in
        call t (fun () ->
            Opc.Cluster.lookup t.cluster ~dir ~name ~on_done:(fun result ->
                enter t;
                read_done t i submitted;
                (match result with
                | Ok found when Option.is_some found = (name <> "missing") -> ()
                | Ok _ -> fail t ("lookup of " ^ name ^ " gave a wrong answer")
                | Error e -> fail t ("lookup: " ^ e));
                next ();
                leave t))
      end
      else
        readdir t ~dir ~k:(fun entries ->
            let n = List.length entries in
            if n < pool.len || n > pool.len + pool.pending then
              fail t
                (Printf.sprintf "readdir listed %d entries, expected %d to %d"
                   n pool.len (pool.len + pool.pending));
            next ())
    end
  in
  enter t;
  for _ = 1 to clients do
    next ()
  done;
  leave t

(* Failed checks, once the load has settled; [] when every operation got
   exactly one correct reply. *)
let check t =
  for i = 0 to t.issued - 1 do
    if Bytes.get t.replies i = '\000' then
      fail t (Printf.sprintf "operation %d was never answered" i)
  done;
  List.rev t.errors
