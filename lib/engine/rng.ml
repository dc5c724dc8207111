type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = Int64.of_int seed }

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let float_01 t =
  (* Use the top 53 bits for a uniform double in [0, 1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0

let int_below t n =
  assert (n > 0);
  let bits = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem bits (Int64.of_int n))

let[@inline] hash2 a b =
  let z = Int64.add (Int64.of_int a) (Int64.mul golden_gamma (Int64.of_int (b + 1))) in
  mix64 (Int64.add z golden_gamma)

(* Inlined, with [hash2] and [mix64], into the cost model's per-TB loop:
   the Int64 intermediates then stay unboxed. *)
let[@inline] jitter a b =
  let bits = Int64.shift_right_logical (hash2 a b) 11 in
  Int64.to_float bits /. 9007199254740992.0
