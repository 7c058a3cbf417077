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

(* A stable LSD radix sort of an index permutation, then one walk of
   its cycles to apply it. The key is an order-preserving 64-bit image
   of each time's bits: flipping the sign bit of a non-negative float,
   and every bit of a negative one, makes unsigned integer order the
   float order. -0.0 becomes +0.0 first so the two tie, as they compare.
   Each pass counts its 11-bit digits in one shared 2048-entry table,
   so a short day's sort allocates little beyond its keys, then moves
   keys with the permutation. A pass whose digit is the same for every
   key changes nothing and is skipped, which drops the sign-and-exponent
   pass for nearly every day's times. Every pass is stable, so the
   result is the (time, original index) order. *)
let radix_bits = 11
let radix = 1 lsl radix_bits
let passes = (64 + radix_bits - 1) / radix_bits

let[@inline] key keys i = Bytes.get_int64_le keys (i lsl 3)

let[@inline] digit k pass =
  Int64.to_int (Int64.shift_right_logical k (pass * radix_bits)) land (radix - 1)

let sort_by_time ops =
  let n = Array.length ops in
  let keys = Bytes.create (8 * n) in
  for i = 0 to n - 1 do
    let time = time_of ops.(i) in
    if Float.is_nan time then invalid_arg "Op.sort_by_time: NaN time";
    let b = Int64.bits_of_float (if time = 0.0 then 0.0 else time) in
    Bytes.set_int64_le keys (i lsl 3)
      (if Int64.compare b 0L < 0 then Int64.lognot b else Int64.logxor b Int64.min_int)
  done;
  let src = ref (Array.init n Fun.id) and dst = ref (Array.make n 0) in
  let src_keys = ref keys and dst_keys = ref (Bytes.create (8 * n)) in
  let counts = Array.make radix 0 in
  for p = 0 to passes - 1 do
    let ka = !src_keys in
    Array.fill counts 0 radix 0;
    for i = 0 to n - 1 do
      let d = digit (key ka i) p in
      counts.(d) <- counts.(d) + 1
    done;
    if n > 1 && counts.(digit (key ka 0) p) < n then begin
      (* counts -> each digit's first output slot *)
      let next = ref 0 in
      for d = 0 to radix - 1 do
        let c = counts.(d) in
        counts.(d) <- !next;
        next := !next + c
      done;
      let a = !src and b = !dst and kb = !dst_keys in
      for i = 0 to n - 1 do
        let k = key ka i in
        let d = digit k p in
        let j = counts.(d) in
        counts.(d) <- j + 1;
        b.(j) <- a.(i);
        Bytes.set_int64_le kb (j lsl 3) k
      done;
      src := b;
      dst := a;
      src_keys := kb;
      dst_keys := ka
    end
  done;
  (* slot k takes the input's op perm.(k), in place, one cycle of the
     permutation at a time; a slot already placed has its entry
     complemented *)
  let perm = !src in
  for i = 0 to n - 1 do
    if perm.(i) >= 0 then begin
      let first = ops.(i) and j = ref i in
      while perm.(!j) <> i do
        let k = perm.(!j) in
        ops.(!j) <- ops.(k);
        perm.(!j) <- lnot k;
        j := k
      done;
      ops.(!j) <- first;
      perm.(!j) <- lnot i
    end
  done

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
            if ino < 0 then raise (Bad (Fmt.str "op %d: negative inode %d" i ino));
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
