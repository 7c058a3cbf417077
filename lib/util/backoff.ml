let delay ~base ~cap ~jitter ~seed ~attempt =
  let d = Float.min cap (base *. (2.0 ** float_of_int (attempt - 1))) in
  let u = Prng.unit_float (Prng.create ~seed:(Prng.derive ~seed ~index:attempt)) in
  d *. (1.0 -. jitter +. (2.0 *. jitter *. u))
