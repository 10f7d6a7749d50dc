(* SplitMix64 (Steele, Lea, Flood: "Fast splittable pseudorandom number
   generators", OOPSLA 2014). Chosen for splittability and trivially
   portable determinism; statistical quality is ample for workload
   generation. *)

type zipf_table = { n : int; s : float; cdf : float array }

(* [sg] holds the 64-bit [state] at byte 0 and [gamma] at byte 8,
   unboxed: a draw reads and writes them in place, so it allocates
   nothing where a [mutable int64] field would box every new state. *)
type t = { sg : Bytes.t; mutable zipf_cache : zipf_table option }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* mix_gamma guarantees the gamma is odd and has enough bit transitions. *)
let mix_gamma z =
  let z = Int64.logor (mix64 z) 1L in
  let transitions =
    let x = Int64.logxor z (Int64.shift_right_logical z 1) in
    let rec popcount acc x =
      if Int64.equal x 0L then acc
      else popcount (acc + 1) (Int64.logand x (Int64.sub x 1L))
    in
    popcount 0 x
  in
  if transitions < 24 then Int64.logxor z 0xAAAAAAAAAAAAAAAAL else z

let make ~state ~gamma =
  let sg = Bytes.create 16 in
  Bytes.set_int64_ne sg 0 state;
  Bytes.set_int64_ne sg 8 gamma;
  { sg; zipf_cache = None }

let create ~seed = make ~state:(mix64 (Int64.of_int seed)) ~gamma:golden_gamma

let[@inline] next_seed t =
  let s = Int64.add (Bytes.get_int64_ne t.sg 0) (Bytes.get_int64_ne t.sg 8) in
  Bytes.set_int64_ne t.sg 0 s;
  s

let[@inline] bits64 t = mix64 (next_seed t)

let split t =
  let state = bits64 t in
  let gamma = mix_gamma (next_seed t) in
  make ~state ~gamma

(* Uniform int in [0, bound) by rejection over the top 62 bits, avoiding
   modulo bias. A top-level loop, so a draw builds no closure. *)
let rec draw_int t bound =
  let r = Int64.to_int (Int64.logand (bits64 t) 0x3FFF_FFFF_FFFF_FFFFL) in
  let v = r mod bound in
  if r - v + (bound - 1) < 0 then draw_int t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  draw_int t bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let float t bound =
  if not (bound > 0.0) then invalid_arg "Rng.float: bound <= 0";
  (* 53 uniform bits -> [0,1) *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int r /. 9007199254740992.0 *. bound

let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 0L <> 0

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let exponential t ~mean =
  if not (mean > 0.0) then invalid_arg "Rng.exponential: mean <= 0";
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let exponential_span t ~mean =
  let m = float_of_int (Time.span_to_ns mean) in
  if m = 0.0 then Time.zero_span
  else Time.span_ns (Float.to_int (Float.round (exponential t ~mean:m)))

let zipf_table n s =
  let weights = Array.init n (fun i -> 1.0 /. ((float_of_int (i + 1)) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (weights.(i) /. total);
    cdf.(i) <- !acc
  done;
  cdf.(n - 1) <- 1.0;
  { n; s; cdf }

let zipf t ~n ~s =
  if n <= 0 then invalid_arg "Rng.zipf: n <= 0";
  if s < 0.0 then invalid_arg "Rng.zipf: s < 0";
  let table =
    match t.zipf_cache with
    | Some tab when tab.n = n && tab.s = s -> tab
    | _ ->
        let tab = zipf_table n s in
        t.zipf_cache <- Some tab;
        tab
  in
  let u = float t 1.0 in
  (* binary search for the first cdf entry >= u *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if table.cdf.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  search 0 (n - 1)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
