type t = { sample : Prng.t -> float; mean : float }

let sample t rng = t.sample rng
let mean_estimate t = t.mean

let constant v = { sample = (fun _ -> v); mean = v }

let uniform ~lo ~hi =
  assert (lo <= hi);
  { sample = (fun rng -> lo +. Prng.float rng (hi -. lo)); mean = (lo +. hi) /. 2.0 }

let exponential ~mean =
  assert (mean > 0.0);
  let sample rng =
    let u = 1.0 -. Prng.unit_float rng in
    -.mean *. log u
  in
  { sample; mean }

let lognormal ~mu ~sigma =
  let sample rng = exp (mu +. (sigma *. Prng.gaussian rng)) in
  { sample; mean = exp (mu +. (sigma *. sigma /. 2.0)) }

let lognormal_of_median ~median ~sigma =
  assert (median > 0.0);
  lognormal ~mu:(log median) ~sigma

let pareto ~xm ~alpha =
  assert (xm > 0.0 && alpha > 0.0);
  let sample rng =
    let u = 1.0 -. Prng.unit_float rng in
    xm /. (u ** (1.0 /. alpha))
  in
  let mean = if alpha > 1.0 then alpha *. xm /. (alpha -. 1.0) else infinity in
  { sample; mean }

let truncate ~lo ~hi t =
  assert (lo <= hi);
  let clamp v = if v < lo then lo else if v > hi then hi else v in
  { sample = (fun rng -> clamp (t.sample rng)); mean = clamp t.mean }

let mixture components =
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 components in
  assert (total > 0.0);
  let mean =
    Array.fold_left (fun acc (d, w) -> acc +. (d.mean *. w /. total)) 0.0 components
  in
  let sample rng =
    let d = Prng.pick_weighted rng components in
    d.sample rng
  in
  { sample; mean }

let zipf ~n ~s =
  assert (n > 0);
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (i + 1) ** s));
    cdf.(i) <- !acc
  done;
  let total = !acc in
  let mean =
    let m = ref 0.0 in
    for i = 0 to n - 1 do
      let p = (1.0 /. (float_of_int (i + 1) ** s)) /. total in
      m := !m +. (float_of_int (i + 1) *. p)
    done;
    !m
  in
  let sample rng =
    let target = Prng.float rng total in
    (* binary search for the first index with cdf >= target *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < target then lo := mid + 1 else hi := mid
    done;
    float_of_int (!lo + 1)
  in
  { sample; mean }
