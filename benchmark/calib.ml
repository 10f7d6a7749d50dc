(* The machine's speed, from two fixed reference loads that share no
   code with the simulator and allocate nothing: a pointer chase through
   an 8 MB ring outside the OCaml heap (memory latency) and a chain of
   shifts and xors (arithmetic). A shared machine slows down for tens of
   seconds at a time, and both loads slow down with it, if less than the
   simulator does. Host times are scaled by [reference_ns] over the
   median sample of the run; that narrowed their spread between runs
   (README, measurement rules). *)

open Bigarray

(* About what one sample takes on the 2-core build machine (Intel Xeon,
   OCaml 5.1.1; 14.2 to 18.8 ms over 50 runs, median 15.3 ms), so scaled
   host times read about as milliseconds there. *)
let reference_ns = 15_000_000

(* A random cyclic permutation (Sattolo's algorithm): following i ->
   ring.{i} from 0 visits every slot before it comes back. *)
let ring =
  lazy
    (let n = 1 lsl 21 in
     let a = Array1.create int32 c_layout n in
     for i = 0 to n - 1 do
       a.{i} <- Int32.of_int i
     done;
     let rng = Random.State.make [| 17 |] in
     for i = n - 1 downto 1 do
       let j = Random.State.int rng i in
       let t = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- t
     done;
     a)

let chase () =
  let ring = Lazy.force ring in
  let i = ref 0 in
  for _ = 1 to 100_000 do
    i := Int32.to_int (Array1.unsafe_get ring !i)
  done;
  !i

let arith () =
  let x = ref 88172645463325252 in
  for _ = 1 to 3_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  !x

let best_of_5 f =
  let best = ref max_int in
  for _ = 1 to 5 do
    let t0 = Host.now_ns () in
    ignore (Sys.opaque_identity (f ()));
    best := min !best (Host.now_ns () - t0)
  done;
  !best

(* One sample: the best of five runs of each load, in ns. *)
let sample () =
  Host.span ~cat:"calibration" "calibration sample" (fun () ->
      best_of_5 chase + best_of_5 arith)
