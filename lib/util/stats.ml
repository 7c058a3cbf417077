let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))
  end

let percentile_sorted sorted p =
  let n = Array.length sorted in
  assert (n > 0);
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let percentile xs p =
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  percentile_sorted sorted p

let ratio a b = if b = 0.0 then nan else a /. b

let pct_change ~from_ ~to_ =
  if from_ = 0.0 then nan else (to_ -. from_) /. from_ *. 100.0
