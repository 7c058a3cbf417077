type file_record = { ino : int; size : int; ctime : float }
type t = { day : int; files : file_record array }

(* The live set is a table indexed by ino, [none] marking an empty
   slot; one scan in ino order writes each night's sorted array. *)
let none = { ino = -1; size = 0; ctime = 0.0 }

let capture_nightly ops ~days =
  let max_ino = Array.fold_left (fun m op -> max m (Op.ino_of op)) (-1) ops in
  let live = Array.make (max_ino + 1) none in
  let count = ref 0 in
  let snapshots = Util.Vec.create () in
  let snap day =
    let files = Array.make !count none in
    let k = ref 0 in
    Array.iter
      (fun r ->
        if r != none then begin
          files.(!k) <- r;
          incr k
        end)
      live;
    Util.Vec.push snapshots { day; files }
  in
  let next_day = ref 0 in
  let day_end d = float_of_int (d + 1) *. Op.seconds_per_day in
  Array.iter
    (fun op ->
      while !next_day < days && Op.time_of op >= day_end !next_day do
        snap !next_day;
        incr next_day
      done;
      match op with
      | Op.Create { ino; size; time } | Op.Modify { ino; size; time } ->
          if live.(ino) == none then incr count;
          live.(ino) <- { ino; size; ctime = time }
      | Op.Delete { ino; _ } ->
          if live.(ino) != none then decr count;
          live.(ino) <- none)
    ops;
  while !next_day < days do
    snap !next_day;
    incr next_day
  done;
  Util.Vec.to_array snapshots

let live_bytes t = Array.fold_left (fun acc r -> acc + r.size) 0 t.files
