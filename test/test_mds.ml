(* Tests for the metadata substrate: state, store, placement, planner,
   invariants. *)

open Opc.Mds

let violation = Alcotest.of_pp Invariant.pp_violation

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

let file ino = Update.Create_inode { ino; kind = Update.File; nlink = 1 }
let dir ino = Update.Create_inode { ino; kind = Update.Directory; nlink = 1 }

let test_state_create_link () =
  let st = State.create () in
  State.add_root st 0;
  (match State.apply st (file 1) with
  | Ok inv -> Alcotest.(check bool) "inverse is unref" true
                (inv = Update.Unref { ino = 1 })
  | Error _ -> Alcotest.fail "create failed");
  (match State.apply st (Update.Link { dir = 0; name = "a"; target = 1 }) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "link failed");
  Alcotest.(check (option int)) "lookup" (Some 1)
    (State.lookup st ~dir:0 ~name:"a");
  (match State.inode st 1 with
  | Some { State.kind = Update.File; nlink = 1 } -> ()
  | _ -> Alcotest.fail "inode wrong");
  Alcotest.(check (option (list (pair string int))))
    "list_dir" (Some [ ("a", 1) ]) (State.list_dir st 0)

let test_state_validation_errors () =
  let st = State.create () in
  State.add_root st 0;
  ignore (State.apply_exn st (file 1));
  ignore (State.apply_exn st (Update.Link { dir = 0; name = "a"; target = 1 }));
  let expect_error u =
    match State.apply st u with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected error for %a" Update.pp u
  in
  expect_error (file 1);
  expect_error (Update.Link { dir = 0; name = "a"; target = 1 });
  expect_error (Update.Link { dir = 1; name = "x"; target = 1 });
  expect_error (Update.Link { dir = 99; name = "x"; target = 1 });
  expect_error (Update.Unlink { dir = 0; name = "nope" });
  expect_error (Update.Unlink { dir = 99; name = "x" });
  expect_error (Update.Ref { ino = 99 });
  expect_error (Update.Unref { ino = 99 });
  expect_error (Update.Touch { ino = 99 })

let test_state_unref_reaps () =
  let st = State.create () in
  ignore (State.apply_exn st (file 1));
  ignore (State.apply_exn st (Update.Ref { ino = 1 }));
  (* nlink 2 -> 1: decrement only. *)
  ignore (State.apply_exn st (Update.Unref { ino = 1 }));
  (match State.inode st 1 with
  | Some { State.nlink = 1; _ } -> ()
  | _ -> Alcotest.fail "expected nlink 1");
  (* nlink 1 -> 0: reap; inverse recreates. *)
  (match State.apply st (Update.Unref { ino = 1 }) with
  | Ok (Update.Create_inode { ino = 1; kind = Update.File; nlink = 1 }) -> ()
  | Ok u -> Alcotest.failf "wrong inverse %a" Update.pp u
  | Error _ -> Alcotest.fail "unref failed");
  Alcotest.(check bool) "gone" true (State.inode st 1 = None)

let test_state_nonempty_dir_protected () =
  let st = State.create () in
  State.add_root st 0;
  ignore (State.apply_exn st (dir 1));
  ignore (State.apply_exn st (Update.Link { dir = 0; name = "d"; target = 1 }));
  ignore (State.apply_exn st (file 2));
  ignore (State.apply_exn st (Update.Link { dir = 1; name = "f"; target = 2 }));
  (match State.apply st (Update.Unref { ino = 1 }) with
  | Error (State.Directory_not_empty 1) -> ()
  | Error e -> Alcotest.failf "wrong error %a" State.pp_error e
  | Ok _ -> Alcotest.fail "non-empty dir reaped");
  (* After emptying it, removal works. *)
  ignore (State.apply_exn st (Update.Unlink { dir = 1; name = "f" }));
  ignore (State.apply_exn st (Update.Unref { ino = 2 }));
  ignore (State.apply_exn st (Update.Unref { ino = 1 }));
  Alcotest.(check bool) "dir gone" true (State.inode st 1 = None)

(* Inodes are stored packed; [inode] and [inodes] rebuild the records.
   Links climb 1 -> 3 and back on a file and on a directory, a
   directory with entries is only protected at its last link, and a
   created nlink of 0 reaps on its first unref. *)
let test_state_nlink_roundtrip () =
  let st = State.create () in
  State.add_root st 0;
  ignore (State.apply_exn st (dir 1));
  ignore (State.apply_exn st (file 2));
  ignore (State.apply_exn st (Update.Link { dir = 1; name = "f"; target = 2 }));
  ignore
    (State.apply_exn st
       (Update.Create_inode { ino = 3; kind = Update.File; nlink = 0 }));
  let info kind nlink = { State.kind; nlink } in
  let check_inodes msg expected =
    Alcotest.(check bool) msg true (State.inodes st = expected);
    List.iter
      (fun (ino, i) ->
        Alcotest.(check bool) msg true (State.inode st ino = Some i))
      expected
  in
  let step u expected_inverse =
    match State.apply st u with
    | Ok inv when inv = expected_inverse -> ()
    | Ok inv -> Alcotest.failf "%a: inverse %a" Update.pp u Update.pp inv
    | Error e -> Alcotest.failf "%a: %a" Update.pp u State.pp_error e
  in
  check_inodes "created"
    [
      (0, info Update.Directory 1);
      (1, info Update.Directory 1);
      (2, info Update.File 1);
      (3, info Update.File 0);
    ];
  List.iter
    (fun ino ->
      step (Update.Ref { ino }) (Update.Unref { ino });
      step (Update.Ref { ino }) (Update.Unref { ino }))
    [ 1; 2 ];
  check_inodes "three links"
    [
      (0, info Update.Directory 1);
      (1, info Update.Directory 3);
      (2, info Update.File 3);
      (3, info Update.File 0);
    ];
  List.iter
    (fun ino ->
      step (Update.Unref { ino }) (Update.Ref { ino });
      step (Update.Unref { ino }) (Update.Ref { ino }))
    [ 1; 2 ];
  check_inodes "back to one"
    [
      (0, info Update.Directory 1);
      (1, info Update.Directory 1);
      (2, info Update.File 1);
      (3, info Update.File 0);
    ];
  (match State.apply st (Update.Unref { ino = 1 }) with
  | Error (State.Directory_not_empty 1) -> ()
  | _ -> Alcotest.fail "last link of a non-empty directory dropped");
  step (Update.Unref { ino = 3 })
    (Update.Create_inode { ino = 3; kind = Update.File; nlink = 0 });
  step (Update.Unlink { dir = 1; name = "f" })
    (Update.Link { dir = 1; name = "f"; target = 2 });
  step (Update.Unref { ino = 2 })
    (Update.Create_inode { ino = 2; kind = Update.File; nlink = 1 });
  step (Update.Unref { ino = 1 })
    (Update.Create_inode { ino = 1; kind = Update.Directory; nlink = 1 });
  check_inodes "reaped" [ (0, info Update.Directory 1) ];
  Alcotest.(check bool) "reaped inode" true (State.inode st 2 = None);
  Alcotest.(check bool) "reaped directory lists nothing" true
    (State.list_dir st 1 = None)

let test_state_copy_and_equal () =
  let st = State.create () in
  State.add_root st 0;
  ignore (State.apply_exn st (file 1));
  ignore (State.apply_exn st (Update.Link { dir = 0; name = "a"; target = 1 }));
  let copy = State.copy st in
  Alcotest.(check bool) "copies equal" true (State.equal st copy);
  ignore (State.apply_exn copy (file 2));
  Alcotest.(check bool) "divergence detected" false (State.equal st copy);
  Alcotest.(check bool) "original untouched" true (State.inode st 2 = None)

(* Property: apply then apply-inverse restores the state. *)
let arbitrary_update st rng =
  let inos =
    List.filter_map
      (fun (ino, info) -> if info.State.kind = Update.File then Some ino else None)
      (State.inodes st)
  in
  let dirs =
    List.filter_map
      (fun (ino, info) ->
        if info.State.kind = Update.Directory then Some ino else None)
      (State.inodes st)
  in
  let module R = Opc.Simkit.Rng in
  match R.int rng 6 with
  | 0 -> Update.Create_inode { ino = R.int rng 40; kind = Update.File; nlink = 1 }
  | 1 when dirs <> [] ->
      let d = List.nth dirs (R.int rng (List.length dirs)) in
      Update.Link
        {
          dir = d;
          name = Printf.sprintf "n%d" (R.int rng 10);
          target = R.int rng 40;
        }
  | 2 when dirs <> [] ->
      let d = List.nth dirs (R.int rng (List.length dirs)) in
      Update.Unlink { dir = d; name = Printf.sprintf "n%d" (R.int rng 10) }
  | 3 when inos <> [] ->
      Update.Ref { ino = List.nth inos (R.int rng (List.length inos)) }
  | 4 when inos <> [] ->
      Update.Unref { ino = List.nth inos (R.int rng (List.length inos)) }
  | _ -> Update.Touch { ino = R.int rng 40 }

let prop_apply_inverse_roundtrip =
  QCheck2.Test.make ~name:"apply; apply inverse = identity" ~count:300
    QCheck2.Gen.(pair int (int_bound 40))
    (fun (seed, steps) ->
      let rng = Opc.Simkit.Rng.create ~seed in
      let st = State.create () in
      State.add_root st 0;
      let ok = ref true in
      for _ = 1 to steps do
        let u = arbitrary_update st rng in
        let before = State.copy st in
        match State.apply st u with
        | Error _ ->
            (* must not have mutated *)
            if not (State.equal before st) then ok := false
        | Ok inverse ->
            ignore (State.apply_exn st inverse);
            if not (State.equal before st) then ok := false;
            (* re-apply to let the state evolve *)
            ignore (State.apply st u)
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let test_store_volatile_vs_durable () =
  let s = Store.create ~name:"s" ~root:(Some 0) in
  (match Store.apply_volatile s (file 1) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "apply failed");
  Alcotest.(check bool) "volatile sees it" true
    (State.inode (Store.volatile s) 1 <> None);
  Alcotest.(check bool) "durable does not" true
    (State.inode (Store.durable s) 1 = None);
  Alcotest.(check bool) "out of sync" false (Store.in_sync s);
  Store.commit_durable s [ file 1 ];
  Alcotest.(check bool) "in sync after commit" true (Store.in_sync s)

let test_store_crash_resets_cache () =
  let s = Store.create ~name:"s" ~root:(Some 0) in
  ignore (Store.apply_volatile s (file 1));
  Store.crash s;
  Alcotest.(check bool) "uncommitted lost" true
    (State.inode (Store.volatile s) 1 = None);
  Alcotest.(check bool) "root survived" true
    (State.inode (Store.volatile s) 0 <> None)

let test_store_undo () =
  let s = Store.create ~name:"s" ~root:(Some 0) in
  let inv1 =
    match Store.apply_volatile s (file 1) with
    | Ok i -> i
    | Error _ -> Alcotest.fail "apply"
  in
  let inv2 =
    match
      Store.apply_volatile s (Update.Link { dir = 0; name = "a"; target = 1 })
    with
    | Ok i -> i
    | Error _ -> Alcotest.fail "apply"
  in
  Store.undo_volatile s [ inv2; inv1 ];
  Alcotest.(check bool) "rolled back" true (Store.in_sync s)

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)
(* ------------------------------------------------------------------ *)

let test_placement_hash_deterministic () =
  let p1 = Placement.create ~strategy:Placement.Hash ~servers:4 () in
  let p2 = Placement.create ~strategy:Placement.Hash ~servers:4 () in
  for ino = 1 to 50 do
    let a = Placement.place p1 ~parent_server:0 ino in
    let b = Placement.place p2 ~parent_server:3 ino in
    Alcotest.(check int) "parent-independent and deterministic" a b;
    Alcotest.(check int) "memoized" a (Placement.node_of p1 ino)
  done

let test_placement_round_robin () =
  let p = Placement.create ~strategy:Placement.Round_robin ~servers:3 () in
  let slots = List.init 6 (fun i -> Placement.place p ~parent_server:0 (i + 1)) in
  Alcotest.(check (list int)) "cycles" [ 0; 1; 2; 0; 1; 2 ] slots

let test_placement_spread_avoids_parent () =
  let p = Placement.create ~strategy:Placement.Spread ~servers:4 () in
  for ino = 1 to 100 do
    let parent = ino mod 4 in
    let slot = Placement.place p ~parent_server:parent ino in
    if slot = parent then Alcotest.fail "spread placed on parent";
    if slot < 0 || slot >= 4 then Alcotest.fail "slot out of range"
  done

let test_placement_colocate_extremes () =
  let rng = Opc.Simkit.Rng.create ~seed:1 in
  let p =
    Placement.create ~rng ~strategy:(Placement.Colocate 1.0) ~servers:4 ()
  in
  for ino = 1 to 50 do
    Alcotest.(check int) "always colocated" 2
      (Placement.place p ~parent_server:2 ino)
  done;
  Alcotest.check_raises "colocate needs rng"
    (Invalid_argument "Placement.create: Colocate needs an rng") (fun () ->
      ignore
        (Placement.create ~strategy:(Placement.Colocate 0.5) ~servers:2 ()))

let test_placement_misc () =
  let p = Placement.create ~strategy:Placement.Hash ~servers:2 () in
  Placement.assign_root p 0 ~server:0;
  Alcotest.(check bool) "placed" true (Placement.placed p 0);
  Alcotest.(check bool) "not placed" false (Placement.placed p 1);
  (match Placement.node_of p 42 with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found");
  ignore (Placement.place p ~parent_server:0 1);
  Alcotest.check_raises "double placement"
    (Invalid_argument "Placement.place: inode already placed") (fun () ->
      ignore (Placement.place p ~parent_server:0 1))

(* Owners live in an array indexed by inode number, 256 slots to
   start. Placing across its end grows it and keeps every earlier
   answer; reads past the end and of negative inodes answer "never
   placed", and a negative inode is rejected. *)
let test_placement_dense () =
  let p = Placement.create ~strategy:Placement.Round_robin ~servers:3 () in
  Placement.assign_root p 0 ~server:2;
  let unplaced ino =
    Alcotest.(check bool) (Printf.sprintf "%d unplaced" ino) false
      (Placement.placed p ino);
    match Placement.node_of p ino with
    | exception Not_found -> ()
    | s -> Alcotest.failf "inode %d reads server %d" ino s
  in
  List.iter unplaced [ -1; 1; 255; 256; 10_000; max_int ];
  let placed =
    List.map
      (fun ino -> (ino, Placement.place p ~parent_server:0 ino))
      [ 255; 256; 10_000 ]
  in
  Alcotest.(check (list (pair int int)))
    "round robin across the end"
    [ (255, 0); (256, 1); (10_000, 2) ]
    placed;
  List.iter
    (fun (ino, s) ->
      Alcotest.(check bool) "placed" true (Placement.placed p ino);
      Alcotest.(check int) "kept" s (Placement.node_of p ino))
    ((0, 2) :: placed);
  List.iter unplaced [ -1; 1; 257; 9_999; 10_001; 20_001; max_int ];
  Alcotest.check_raises "negative place"
    (Invalid_argument "Placement.place: negative inode") (fun () ->
      ignore (Placement.place p ~parent_server:0 (-1)));
  Alcotest.check_raises "negative root"
    (Invalid_argument "Placement.assign_root: negative inode") (fun () ->
      Placement.assign_root p (-2) ~server:0);
  Alcotest.check_raises "placed past the first end"
    (Invalid_argument "Placement.place: inode already placed") (fun () ->
      ignore (Placement.place p ~parent_server:0 10_000));
  Placement.assign_root p 10_000 ~server:0;
  Alcotest.(check int) "assign_root pins" 0 (Placement.node_of p 10_000)

(* ------------------------------------------------------------------ *)
(* Planner                                                             *)
(* ------------------------------------------------------------------ *)

(* A miniature two-store world for planning. *)
let make_world ~servers ~strategy =
  let placement = Placement.create ~strategy ~servers () in
  Placement.assign_root placement 0 ~server:0;
  let states = Array.init servers (fun _ -> State.create ()) in
  State.add_root states.(0) 0;
  let next = ref 100 in
  let planner =
    Planner.create ~placement
      ~next_ino:(fun () ->
        incr next;
        !next)
      ~lookup:(fun ~server ~dir ~name -> State.lookup states.(server) ~dir ~name)
  in
  (placement, states, planner)

let run_plan states (plan : Plan.t) =
  let run_side (s : Plan.side) =
    List.iter (fun u -> ignore (State.apply_exn states.(s.Plan.server) u))
      s.Plan.updates
  in
  run_side plan.Plan.coordinator;
  List.iter run_side plan.Plan.workers

let test_planner_create_distributed () =
  let _, states, planner = make_world ~servers:2 ~strategy:Placement.Spread in
  match Planner.plan planner (Op.create_file ~parent:0 ~name:"f") with
  | Error e -> Alcotest.failf "plan failed: %a" Planner.pp_error e
  | Ok plan ->
      Alcotest.(check bool) "distributed" true (Plan.is_distributed plan);
      Alcotest.(check int) "two participants" 2 (Plan.participants plan);
      Alcotest.(check int) "coordinator is parent owner" 0
        plan.Plan.coordinator.Plan.server;
      Alcotest.(check (list int)) "coordinator locks the directory" [ 0 ]
        plan.Plan.coordinator.Plan.lock_oids;
      (match plan.Plan.new_ino with
      | Some ino ->
          run_plan states plan;
          Alcotest.(check (option int)) "dentry" (Some ino)
            (State.lookup states.(0) ~dir:0 ~name:"f");
          Alcotest.(check bool) "inode on worker" true
            (State.inode states.(1) ino <> None)
      | None -> Alcotest.fail "no inode allocated")

let test_planner_create_local () =
  let rng = Opc.Simkit.Rng.create ~seed:2 in
  ignore rng;
  let _, _, planner = make_world ~servers:1 ~strategy:Placement.Hash in
  match Planner.plan planner (Op.create_file ~parent:0 ~name:"f") with
  | Error e -> Alcotest.failf "plan failed: %a" Planner.pp_error e
  | Ok plan ->
      Alcotest.(check bool) "local" false (Plan.is_distributed plan);
      Alcotest.(check int) "one participant" 1 (Plan.participants plan);
      Alcotest.(check int) "both updates on one side" 2
        (List.length plan.Plan.coordinator.Plan.updates)

let test_planner_create_duplicate () =
  let _, states, planner = make_world ~servers:2 ~strategy:Placement.Spread in
  (match Planner.plan planner (Op.create_file ~parent:0 ~name:"f") with
  | Ok plan -> run_plan states plan
  | Error _ -> Alcotest.fail "first create");
  match Planner.plan planner (Op.create_file ~parent:0 ~name:"f") with
  | Error (Planner.Entry_exists (0, "f")) -> ()
  | Error e -> Alcotest.failf "wrong error %a" Planner.pp_error e
  | Ok _ -> Alcotest.fail "duplicate accepted"

let test_planner_delete () =
  let _, states, planner = make_world ~servers:2 ~strategy:Placement.Spread in
  let ino =
    match Planner.plan planner (Op.create_file ~parent:0 ~name:"f") with
    | Ok plan ->
        run_plan states plan;
        Option.get plan.Plan.new_ino
    | Error _ -> Alcotest.fail "create"
  in
  match Planner.plan planner (Op.delete ~parent:0 ~name:"f") with
  | Error e -> Alcotest.failf "plan failed: %a" Planner.pp_error e
  | Ok plan ->
      Alcotest.(check bool) "distributed" true (Plan.is_distributed plan);
      run_plan states plan;
      Alcotest.(check (option int)) "dentry gone" None
        (State.lookup states.(0) ~dir:0 ~name:"f");
      Alcotest.(check bool) "inode reaped" true
        (State.inode states.(1) ino = None)

let test_planner_delete_missing () =
  let _, _, planner = make_world ~servers:2 ~strategy:Placement.Spread in
  match Planner.plan planner (Op.delete ~parent:0 ~name:"ghost") with
  | Error (Planner.Entry_not_found (0, "ghost")) -> ()
  | Error e -> Alcotest.failf "wrong error %a" Planner.pp_error e
  | Ok _ -> Alcotest.fail "missing delete accepted"

let test_planner_unknown_parent () =
  let _, _, planner = make_world ~servers:2 ~strategy:Placement.Spread in
  match Planner.plan planner (Op.create_file ~parent:77 ~name:"f") with
  | Error (Planner.Unknown_directory 77) -> ()
  | Error e -> Alcotest.failf "wrong error %a" Planner.pp_error e
  | Ok _ -> Alcotest.fail "unknown parent accepted"

let test_planner_rename_spans_servers () =
  let placement, states, planner =
    make_world ~servers:4 ~strategy:Placement.Round_robin
  in
  ignore placement;
  (* Build /d1 (server decided by RR) containing f, and /d2 elsewhere. *)
  let mkdir name =
    match Planner.plan planner (Op.mkdir ~parent:0 ~name) with
    | Ok plan ->
        run_plan states plan;
        Option.get plan.Plan.new_ino
    | Error e -> Alcotest.failf "mkdir: %a" Planner.pp_error e
  in
  let d1 = mkdir "d1" and d2 = mkdir "d2" in
  (match Planner.plan planner (Op.create_file ~parent:d1 ~name:"f") with
  | Ok plan -> run_plan states plan
  | Error e -> Alcotest.failf "create: %a" Planner.pp_error e);
  match
    Planner.plan planner
      (Op.rename ~src_dir:d1 ~src_name:"f" ~dst_dir:d2 ~dst_name:"g")
  with
  | Error e -> Alcotest.failf "rename: %a" Planner.pp_error e
  | Ok plan ->
      if Plan.participants plan < 2 then
        Alcotest.fail "rename should span servers here";
      run_plan states plan;
      let d1_server = Placement.node_of placement d1 in
      let d2_server = Placement.node_of placement d2 in
      Alcotest.(check (option int)) "source gone" None
        (State.lookup states.(d1_server) ~dir:d1 ~name:"f");
      Alcotest.(check bool) "target present" true
        (State.lookup states.(d2_server) ~dir:d2 ~name:"g" <> None)

let test_planner_rename_overwrite () =
  let placement, states, planner =
    make_world ~servers:3 ~strategy:Placement.Round_robin
  in
  let create name =
    match Planner.plan planner (Op.create_file ~parent:0 ~name) with
    | Ok plan ->
        run_plan states plan;
        Option.get plan.Plan.new_ino
    | Error e -> Alcotest.failf "create: %a" Planner.pp_error e
  in
  let _f = create "f" in
  let g = create "g" in
  match
    Planner.plan planner
      (Op.rename ~src_dir:0 ~src_name:"f" ~dst_dir:0 ~dst_name:"g")
  with
  | Error e -> Alcotest.failf "rename: %a" Planner.pp_error e
  | Ok plan ->
      run_plan states plan;
      Alcotest.(check bool) "old target reaped" true
        (State.inode states.(Placement.node_of placement g) g = None);
      Alcotest.(check (option int)) "f gone" None
        (State.lookup states.(0) ~dir:0 ~name:"f")

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

let test_invariants_clean () =
  let placement, states, planner =
    make_world ~servers:2 ~strategy:Placement.Spread
  in
  (match Planner.plan planner (Op.create_file ~parent:0 ~name:"f") with
  | Ok plan -> run_plan states plan
  | Error _ -> Alcotest.fail "create");
  Alcotest.(check (list violation))
    "consistent" []
    (Invariant.check ~placement ~root:0 ~states)

let test_invariants_detect_orphan () =
  let placement, states, _ = make_world ~servers:2 ~strategy:Placement.Spread in
  (* An inode with no dentry anywhere: the paper's orphaned-inode case. *)
  ignore (Placement.place placement ~parent_server:0 200);
  let server = Placement.node_of placement 200 in
  ignore (State.apply_exn states.(server) (file 200));
  let vs = Invariant.check ~placement ~root:0 ~states in
  Alcotest.(check bool) "orphan reported" true
    (List.exists (fun v -> v.Invariant.rule = "orphan") vs)

let test_invariants_detect_dangling_ref () =
  let placement, states, _ = make_world ~servers:2 ~strategy:Placement.Spread in
  (* A dentry whose target inode does not exist: the paper's deleted-
     but-still-referenced case. *)
  ignore
    (State.apply_exn states.(0)
       (Update.Link { dir = 0; name = "ghost"; target = 300 }));
  let vs = Invariant.check ~placement ~root:0 ~states in
  Alcotest.(check bool) "dangling reported" true
    (List.exists (fun v -> v.Invariant.rule = "dangling-ref") vs)

let test_invariants_detect_bad_nlink () =
  let placement, states, planner =
    make_world ~servers:2 ~strategy:Placement.Spread
  in
  let ino =
    match Planner.plan planner (Op.create_file ~parent:0 ~name:"f") with
    | Ok plan ->
        run_plan states plan;
        Option.get plan.Plan.new_ino
    | Error _ -> Alcotest.fail "create"
  in
  let server = Placement.node_of placement ino in
  ignore (State.apply_exn states.(server) (Update.Ref { ino }));
  let vs = Invariant.check ~placement ~root:0 ~states in
  Alcotest.(check bool) "nlink mismatch reported" true
    (List.exists (fun v -> v.Invariant.rule = "nlink") vs)

(* [Update.lock_oids] answers the empty, one- and two-update cases
   without sorting. On lists of 0-6 updates of every kind over four
   objects, so that targets repeat, it must equal the sort it replaced. *)
let prop_lock_oids =
  let update (kind, oid) =
    match kind with
    | 0 -> file oid
    | 1 -> Update.Link { dir = oid; name = "n"; target = 9 }
    | 2 -> Update.Unlink { dir = oid; name = "n" }
    | 3 -> Update.Ref { ino = oid }
    | 4 -> Update.Unref { ino = oid }
    | _ -> Update.Touch { ino = oid }
  in
  QCheck2.Test.make ~name:"lock_oids = sorted distinct target oids"
    ~count:500
    QCheck2.Gen.(list_size (int_bound 6) (pair (int_bound 5) (int_bound 3)))
    (fun specs ->
      let us = List.map update specs in
      Update.lock_oids us
      = List.sort_uniq Int.compare (List.map Update.target_oid us))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mds"
    [
      ( "state",
        [
          Alcotest.test_case "create/link" `Quick test_state_create_link;
          Alcotest.test_case "validation" `Quick test_state_validation_errors;
          Alcotest.test_case "unref reaps" `Quick test_state_unref_reaps;
          Alcotest.test_case "non-empty dir" `Quick
            test_state_nonempty_dir_protected;
          Alcotest.test_case "nlink round trip" `Quick
            test_state_nlink_roundtrip;
          Alcotest.test_case "copy/equal" `Quick test_state_copy_and_equal;
        ]
        @ qsuite [ prop_apply_inverse_roundtrip ] );
      ( "store",
        [
          Alcotest.test_case "volatile vs durable" `Quick
            test_store_volatile_vs_durable;
          Alcotest.test_case "crash reset" `Quick test_store_crash_resets_cache;
          Alcotest.test_case "undo" `Quick test_store_undo;
        ] );
      ( "placement",
        [
          Alcotest.test_case "hash deterministic" `Quick
            test_placement_hash_deterministic;
          Alcotest.test_case "round robin" `Quick test_placement_round_robin;
          Alcotest.test_case "spread avoids parent" `Quick
            test_placement_spread_avoids_parent;
          Alcotest.test_case "colocate extremes" `Quick
            test_placement_colocate_extremes;
          Alcotest.test_case "misc" `Quick test_placement_misc;
          Alcotest.test_case "dense array" `Quick test_placement_dense;
        ] );
      ( "planner",
        [
          Alcotest.test_case "create distributed" `Quick
            test_planner_create_distributed;
          Alcotest.test_case "create local" `Quick test_planner_create_local;
          Alcotest.test_case "create duplicate" `Quick
            test_planner_create_duplicate;
          Alcotest.test_case "delete" `Quick test_planner_delete;
          Alcotest.test_case "delete missing" `Quick test_planner_delete_missing;
          Alcotest.test_case "unknown parent" `Quick test_planner_unknown_parent;
          Alcotest.test_case "rename spans servers" `Quick
            test_planner_rename_spans_servers;
          Alcotest.test_case "rename overwrite" `Quick
            test_planner_rename_overwrite;
        ]
        @ qsuite [ prop_lock_oids ] );
      ( "invariants",
        [
          Alcotest.test_case "clean" `Quick test_invariants_clean;
          Alcotest.test_case "orphan" `Quick test_invariants_detect_orphan;
          Alcotest.test_case "dangling ref" `Quick
            test_invariants_detect_dangling_ref;
          Alcotest.test_case "bad nlink" `Quick test_invariants_detect_bad_nlink;
        ] );
    ]
