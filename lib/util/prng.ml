(* The splitmix64 state lives unboxed in 8 bytes, read and written with
   the 64-bit [Bytes] accessors, so a draw allocates nothing: the state
   never becomes a boxed [int64], and the inlined [next]/[top] keep every
   intermediate in a register. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create ~seed = of_state (mix64 (Int64.of_int seed))
let copy = Bytes.copy

let derive ~seed ~index =
  (* the [index]-th split of a fresh generator seeded with [seed],
     collapsed back to a non-negative int seed *)
  let z =
    mix64
      (Int64.add (mix64 (Int64.of_int seed))
         (Int64.mul golden_gamma (Int64.of_int (index + 1))))
  in
  Int64.to_int (Int64.shift_right_logical z 2)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

(* the top [k] bits (k <= 62) of the next value, as a non-negative int *)
let[@inline] top t k = Int64.to_int (Int64.shift_right_logical (next t) (64 - k))

let int64 t = next t
let split t = of_state (mix64 (next t))

let int t bound =
  assert (bound > 0);
  if bound land (bound - 1) = 0 then
    (* power of two: mask the top bits *)
    top t 24 land (bound - 1)
  else begin
    (* rejection sampling over 62 usable bits to avoid modulo bias *)
    let raw = ref (top t 62) in
    while !raw - (!raw mod bound) + (bound - 1) < 0 do
      raw := top t 62
    done;
    !raw mod bound
  end

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

(* 53 random bits into the mantissa *)
let[@inline] unit_float t = float_of_int (top t 53) *. 0x1p-53
let float t bound = unit_float t *. bound
let bool t = Int64.to_int (next t) land 1 = 1

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else unit_float t < p

(* polar Box-Muller; discard the second deviate for simplicity *)
let rec gaussian t =
  let u = (2.0 *. unit_float t) -. 1.0 in
  let v = (2.0 *. unit_float t) -. 1.0 in
  let s = (u *. u) +. (v *. v) in
  if s >= 1.0 || s = 0.0 then gaussian t else u *. sqrt (-2.0 *. log s /. s)

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let pick_weighted t pairs =
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 pairs in
  assert (total > 0.0);
  let target = float t total in
  let n = Array.length pairs in
  let rec loop i acc =
    if i = n - 1 then fst pairs.(i)
    else
      let acc = acc +. snd pairs.(i) in
      if target < acc then fst pairs.(i) else loop (i + 1) acc
  in
  loop 0 0.0
