type t = { a : float; b : float; c : float; max_cylinder : int; head_switch_s : float }

(* Solve the 3x3 system fitting a + b*sqrt d + c*d through
   (1, single), (max/3, average), (max, full), times in seconds. *)
let create ~single_ms ~average_ms ~full_ms ~max_cylinder =
  assert (0.0 < single_ms && single_ms <= average_ms && average_ms <= full_ms);
  assert (max_cylinder >= 3);
  let d1 = 1.0 in
  let d2 = float_of_int max_cylinder /. 3.0 in
  let d3 = float_of_int max_cylinder in
  let t1 = single_ms /. 1000.0 in
  let t2 = average_ms /. 1000.0 in
  let t3 = full_ms /. 1000.0 in
  (* Gaussian elimination on [1 sqrt(d) d | t] rows *)
  let m =
    [|
      [| 1.0; sqrt d1; d1; t1 |];
      [| 1.0; sqrt d2; d2; t2 |];
      [| 1.0; sqrt d3; d3; t3 |];
    |]
  in
  for col = 0 to 2 do
    (* pivot: rows below col with largest |m.(row).(col)| *)
    let pivot = ref col in
    for row = col + 1 to 2 do
      if Float.abs m.(row).(col) > Float.abs m.(!pivot).(col) then pivot := row
    done;
    let tmp = m.(col) in
    m.(col) <- m.(!pivot);
    m.(!pivot) <- tmp;
    for row = col + 1 to 2 do
      let f = m.(row).(col) /. m.(col).(col) in
      for k = col to 3 do
        m.(row).(k) <- m.(row).(k) -. (f *. m.(col).(k))
      done
    done
  done;
  let c = m.(2).(3) /. m.(2).(2) in
  let b = (m.(1).(3) -. (m.(1).(2) *. c)) /. m.(1).(1) in
  let a = m.(0).(3) -. (m.(0).(1) *. b) -. (m.(0).(2) *. c) in
  { a; b; c; max_cylinder; head_switch_s = 0.9e-3 }

let default_for (geom : Geometry.t) ~average_ms =
  create ~single_ms:(average_ms /. 6.5) ~average_ms ~full_ms:(average_ms *. 1.8)
    ~max_cylinder:(geom.cylinders - 1)

let time t distance =
  assert (distance >= 0);
  if distance = 0 then 0.0
  else begin
    let d = float_of_int (min distance t.max_cylinder) in
    let s = t.a +. (t.b *. sqrt d) +. (t.c *. d) in
    (* the fitted curve can dip slightly negative near d=0 depending on
       the operating points; never report less than a settle time *)
    Float.max s t.head_switch_s
  end
