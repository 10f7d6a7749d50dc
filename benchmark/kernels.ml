(* Isolated layer kernels: each times one public layer function in a
   loop, outside any cluster, sized from the workload's own counts. The
   result is the best of five repetitions, in host ns per call. *)

open Opc

(* [prepare ()] builds fresh state outside the clock and returns the
   loop to time. *)
let best_ns_per ~n prepare =
  let best = ref max_int in
  for _ = 1 to 5 do
    let loop = prepare () in
    let t0 = Host.now_ns () in
    loop ();
    best := min !best (Host.now_ns () - t0)
  done;
  float_of_int !best /. float_of_int n

let far = Simkit.Time.span_s 86_400

(* Schedule and dispatch [n] no-op events while [depth] others wait in
   the heap. *)
let event ~depth ~n =
  best_ns_per ~n (fun () ->
      let e = Simkit.Engine.create () in
      for _ = 1 to depth do
        ignore (Simkit.Engine.schedule e ~after:far ignore)
      done;
      let left = ref n in
      let rec tick delay () =
        if !left > 0 then begin
          decr left;
          ignore (Simkit.Engine.schedule e ~after:delay (tick delay))
        end
      in
      fun () ->
        for k = 1 to 16 do
          tick (Simkit.Time.span_ns (1 + (7 * k))) ()
        done;
        ignore (Simkit.Engine.run ~until:(Simkit.Time.of_ns 1_000_000_000) e))

(* Send and deliver [n] messages among [servers] endpoints; each
   delivery sends the next message. *)
let message ~servers ~n =
  best_ns_per ~n (fun () ->
      let engine = Simkit.Engine.create () in
      let net =
        Netsim.Network.create ~engine ~rng:(Simkit.Rng.create ~seed:1)
          Netsim.Network.default_config
      in
      let left = ref n in
      let addrs = Array.make servers None in
      let addr i = Option.get addrs.(i mod servers) in
      let send src dst =
        if !left > 0 then begin
          decr left;
          Netsim.Network.send net ~src:(addr src) ~dst:(addr dst) dst
        end
      in
      for i = 0 to servers - 1 do
        addrs.(i) <-
          Some
            (Netsim.Network.register net ~name:(string_of_int i) (fun env ->
                 send env.Netsim.Network.payload (env.payload + 1)))
      done;
      fun () ->
        for i = 0 to min servers 16 - 1 do
          send i (i + 1)
        done;
        ignore (Simkit.Engine.run engine))

(* Force [n] one-record WAL writes back to back through one disk. *)
let force ~n =
  best_ns_per ~n (fun () ->
      let engine = Simkit.Engine.create () in
      let disk = Storage.Disk.create ~engine Storage.Disk.default_config in
      let wal =
        Storage.Wal.create ~engine ~disk ~owner:"k" ~initiator:0
          ~size:(fun _ -> 200)
          ()
      in
      let left = ref n in
      let rec next () =
        if !left > 0 then begin
          decr left;
          Storage.Wal.force wal [ !left ] ~on_durable:next
        end
      in
      fun () ->
        next ();
        ignore (Simkit.Engine.run engine))

(* [n] exclusive acquire/release pairs from 8 owners over 4 objects. *)
let acquire ~n =
  best_ns_per ~n (fun () ->
      let engine = Simkit.Engine.create () in
      let locks = Locks.Lock_manager.create ~engine ~name:"k" () in
      let left = ref n in
      let rec next owner =
        if !left > 0 then begin
          decr left;
          let oid = !left land 3 in
          Locks.Lock_manager.acquire locks ~owner ~oid
            ~mode:Locks.Lock_manager.Exclusive
            ~on_grant:(fun () ->
              Locks.Lock_manager.release locks ~owner ~oid;
              next owner)
            ()
        end
      in
      fun () ->
        for owner = 1 to 8 do
          next owner
        done;
        ignore (Simkit.Engine.run engine))

(* Apply [n] updates: CREATEs of inode plus dentry into one directory. *)
let apply ~n =
  let files = max 1 (n / 2) in
  let names = Array.init files (fun i -> "k" ^ string_of_int i) in
  best_ns_per ~n:(2 * files) (fun () ->
      let state = Mds.State.create () in
      Mds.State.add_root state 0;
      fun () ->
        for i = 1 to files do
          ignore
            (Mds.State.apply state
               (Mds.Update.Create_inode
                  { ino = i; kind = Mds.Update.File; nlink = 1 }));
          ignore
            (Mds.State.apply state
               (Mds.Update.Link { dir = 0; name = names.(i - 1); target = i }))
        done)

(* List a directory of [entries] files until [n] entries were read. *)
let readdir ~entries ~n =
  let entries = max 1 entries in
  let reads = max 1 (n / entries) in
  let state = Mds.State.create () in
  Mds.State.add_root state 0;
  for i = 1 to entries do
    ignore
      (Mds.State.apply_exn state
         (Mds.Update.Create_inode { ino = i; kind = Mds.Update.File; nlink = 1 }));
    ignore
      (Mds.State.apply_exn state
         (Mds.Update.Link { dir = 0; name = "k" ^ string_of_int i; target = i }))
  done;
  best_ns_per ~n:(reads * entries) (fun () () ->
      for _ = 1 to reads do
        ignore (Sys.opaque_identity (Mds.State.list_dir state 0))
      done)
