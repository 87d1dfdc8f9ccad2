type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* SplitMix64 step: used only for seeding, per the xoshiro authors'
   recommendation, so that nearby integer seeds yield unrelated states. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* Xoshiro256++ *)
let uint64 t =
  let open Int64 in
  let result = add (rotl (add t.s0 t.s3) 23) t.s0 in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let state = ref (uint64 t) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3 }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

(* Deterministic per-task seed derivation: hash (seed, index) through
   SplitMix64 so that nearby experiment seeds and consecutive task
   indices yield unrelated child seeds. Order-free — unlike [split], the
   result depends only on the two integers, which is what lets a fleet
   give task [i] the same seed no matter which worker or in which order
   it runs. *)
let derive ~seed index =
  let state = ref (Int64.of_int seed) in
  let a = splitmix64 state in
  state := Int64.logxor a (Int64.mul (Int64.of_int index) 0x9E3779B97F4A7C15L);
  let b = splitmix64 state in
  (* Top 52 bits: non-negative, within OCaml's native int range, and
     exactly representable as an IEEE double — derived seeds are
     recorded in JSON (ledger records, fleet rows) whose only
     number type is a double, and a seed that rounds on the way to disk
     cannot reproduce the run it labels. *)
  Int64.to_int (Int64.shift_right_logical b 12)

let float t =
  (* Top 53 bits scaled by 2^-53: uniform on [0,1) with full double
     resolution. *)
  let bits = Int64.shift_right_logical (uint64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let rec float_pos t =
  let x = float t in
  if x > 0. then x else float_pos t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let rec go () =
    let raw = Int64.to_int (Int64.shift_right_logical (uint64 t) 2) in
    let v = raw mod bound in
    if raw - v > (max_int - bound + 1) then go () else v
  in
  go ()

let bool t = Int64.compare (Int64.logand (uint64 t) 1L) 0L <> 0
