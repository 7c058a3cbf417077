type t =
  | Create of { ino : int; size : int; time : float }
  | Delete of { ino : int; time : float }
  | Modify of { ino : int; size : int; time : float }

let time_of = function Create { time; _ } | Delete { time; _ } | Modify { time; _ } -> time
let ino_of = function Create { ino; _ } | Delete { ino; _ } | Modify { ino; _ } -> ino
let seconds_per_day = 86400.0
let day_of op = int_of_float (time_of op /. seconds_per_day)
let is_write = function Create _ | Modify _ -> true | Delete _ -> false

let bytes_written = function
  | Create { size; _ } | Modify { size; _ } -> size
  | Delete _ -> 0

type stats = {
  operations : int;
  creates : int;
  deletes : int;
  modifies : int;
  total_bytes_written : int;
  days : int;
}

let stats ops =
  let creates = ref 0 and deletes = ref 0 and modifies = ref 0 in
  let bytes = ref 0 and last_day = ref 0 in
  Array.iter
    (fun op ->
      (match op with
      | Create _ -> incr creates
      | Delete _ -> incr deletes
      | Modify _ -> incr modifies);
      bytes := !bytes + bytes_written op;
      if day_of op > !last_day then last_day := day_of op)
    ops;
  {
    operations = Array.length ops;
    creates = !creates;
    deletes = !deletes;
    modifies = !modifies;
    total_bytes_written = !bytes;
    days = !last_day + 1;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "@[<v>%d operations over %d days: %d creates, %d deletes, %d modifies;@ %a written@]"
    s.operations s.days s.creates s.deletes s.modifies Util.Units.pp_bytes
    s.total_bytes_written

(* A bottom-up merge sort of an index permutation by a flat float key
   array, then one pass to apply it. Taking the left run on ties makes it
   stable, so the result is the (time, original index) order. *)
let sort_by_time ops =
  let n = Array.length ops in
  let keys = Float.Array.init n (fun i -> time_of ops.(i)) in
  let src = ref (Array.init n Fun.id) and dst = ref (Array.make n 0) in
  let width = ref 1 in
  while !width < n do
    let a = !src and b = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + !width) in
      let hi = min n (mid + !width) in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !j >= hi || (!i < mid && Float.Array.get keys a.(!i) <= Float.Array.get keys a.(!j))
        then begin
          b.(k) <- a.(!i);
          incr i
        end
        else begin
          b.(k) <- a.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := b;
    dst := a;
    width := 2 * !width
  done;
  let perm = !src and orig = Array.copy ops in
  Array.iteri (fun k p -> ops.(k) <- orig.(p)) perm

let check_well_formed ops =
  let live = Hashtbl.create 1024 in
  let exception Bad of string in
  try
    let last_time = ref neg_infinity in
    Array.iteri
      (fun i op ->
        let time = time_of op in
        if time < !last_time then
          raise (Bad (Fmt.str "op %d: time goes backwards (%.1f < %.1f)" i time !last_time));
        last_time := time;
        match op with
        | Create { ino; size; _ } ->
            if size < 0 then raise (Bad (Fmt.str "op %d: negative size" i));
            if Hashtbl.mem live ino then
              raise (Bad (Fmt.str "op %d: create of live inode %d" i ino));
            Hashtbl.replace live ino ()
        | Delete { ino; _ } ->
            if not (Hashtbl.mem live ino) then
              raise (Bad (Fmt.str "op %d: delete of dead inode %d" i ino));
            Hashtbl.remove live ino
        | Modify { ino; size; _ } ->
            if size < 0 then raise (Bad (Fmt.str "op %d: negative size" i));
            if not (Hashtbl.mem live ino) then
              raise (Bad (Fmt.str "op %d: modify of dead inode %d" i ino)))
      ops;
    Ok ()
  with Bad msg -> Error msg
