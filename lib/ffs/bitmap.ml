(* A bit vector viewed over a byte range of a {!Store}: bit [i] lives in
   store byte [base + i/8].  [create] still gives a standalone map (its
   own little heap store), so unit tests and scratch structures are
   unchanged; the allocator's real bitmaps are [of_store] views into the
   volume's shared backend, which is how every bit poke reaches the
   selected storage representation without the call sites changing.

   Padding bits of the final byte are never set (every mutator asserts
   [i < len]), so whole-byte shortcuts and [count_set] need no masking
   as long as [load] is only fed strings produced by [to_string].

   On a heap plane the allocator's per-fragment bit flips stay direct
   [Bytes] pokes instead of dispatched store calls: [Fast] caches the
   plain heap store's live buffer (one data byte per poke), and
   [Tracked] adds the checksummed store's dirty-map cell covering the
   view (a group's bitmaps always fit one chunk), so a poke there is one
   data byte and one dirty byte.  Both buffers alias the store's own,
   so Marshal sharing keeps marshalled twins bit-identical.  A view
   that is mapped, fault-injecting or chunk-straddling takes the
   dispatched path instead. *)

type fast =
  | No_fast
  | Fast of Bytes.t
  | Tracked of { bits : Bytes.t; dirty : Bytes.t; dirty_pos : int }

type t = { store : Store.t; base : int; len : int; fast : fast }

let bytes_for len = (len + 7) / 8

let fast_of store ~base ~len =
  match Store.heap_bytes store with
  | None -> No_fast
  | Some bits when not (Store.checksummed store) -> Fast bits
  | Some bits -> (
      match Store.dirty_cell store ~pos:base ~len:(max 1 (bytes_for len)) with
      | Some (dirty, dirty_pos) -> Tracked { bits; dirty; dirty_pos }
      | None -> No_fast)

let create len =
  assert (len >= 0);
  let store = Store.heap ~length:(max 1 (bytes_for len)) in
  { store; base = 0; len; fast = fast_of store ~base:0 ~len }

let of_store store ~base ~len =
  assert (len >= 0 && base >= 0 && base + bytes_for len <= Store.length store);
  { store; base; len; fast = fast_of store ~base ~len }

let length t = t.len
let base t = t.base

let byte t i =
  match t.fast with
  | Fast bits | Tracked { bits; _ } -> Bytes.unsafe_get bits (t.base + i)
  | No_fast -> Store.get_byte t.store (t.base + i)

let put t i c =
  match t.fast with
  | Fast bits -> Bytes.unsafe_set bits (t.base + i) c
  | Tracked { bits; dirty; dirty_pos } ->
      Bytes.unsafe_set dirty dirty_pos '\001';
      Bytes.unsafe_set bits (t.base + i) c
  | No_fast -> Store.set_byte t.store (t.base + i) c

let copy t =
  let c = create t.len in
  Store.blit ~src:t.store ~src_pos:t.base ~dst:c.store ~dst_pos:0 ~len:(bytes_for t.len);
  c

let get t i =
  assert (i >= 0 && i < t.len);
  Char.code (byte t (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set t i =
  assert (i >= 0 && i < t.len);
  let b = i lsr 3 in
  put t b (Char.unsafe_chr (Char.code (byte t b) lor (1 lsl (i land 7))))

let clear t i =
  assert (i >= 0 && i < t.len);
  let b = i lsr 3 in
  put t b (Char.unsafe_chr (Char.code (byte t b) land lnot (1 lsl (i land 7)) land 0xFF))

(* The range operations visit each byte of the range once: a byte the
   range covers whole is written outright, a partial one at either end
   gets one masked read-modify-write. A block's fragment bits are one
   aligned byte under the standard geometry, so a block claim, free or
   probe is a single byte access. Loops over refs, not local
   recursions: a closure capturing [t] would allocate per call. *)

(* The bits of byte [b] that fall in [pos, stop); an empty range
   ([stop = pos]) visits no byte. *)
let span_mask ~b ~pos ~stop =
  let first = b lsl 3 in
  let lo = Int.max pos first - first and hi = Int.min stop (first + 8) - first in
  ((1 lsl (hi - lo)) - 1) lsl lo

let set_range t ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= t.len);
  let stop = pos + len in
  for b = pos lsr 3 to (stop - 1) asr 3 do
    let m = span_mask ~b ~pos ~stop in
    put t b (if m = 0xFF then '\255' else Char.unsafe_chr (Char.code (byte t b) lor m))
  done

let clear_range t ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= t.len);
  let stop = pos + len in
  for b = pos lsr 3 to (stop - 1) asr 3 do
    let m = span_mask ~b ~pos ~stop in
    put t b (if m = 0xFF then '\000' else Char.unsafe_chr (Char.code (byte t b) land lnot m))
  done

(* Every bit of [pos ..+ len] equal to [v]: under each byte's mask the
   byte must read all ones or all zeros. *)
let all_equal t ~pos ~len v =
  assert (pos >= 0 && len >= 0 && pos + len <= t.len);
  let stop = pos + len in
  let b = ref (pos lsr 3) and ok = ref true in
  while !ok && !b lsl 3 < stop do
    let m = span_mask ~b:!b ~pos ~stop in
    ok := Char.code (byte t !b) land m = if v then m else 0;
    incr b
  done;
  !ok

let all_clear t ~pos ~len = all_equal t ~pos ~len false
let all_set t ~pos ~len = all_equal t ~pos ~len true

let popcount_byte =
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  fun c -> table.(Char.code c)

let count_set t =
  let total = ref 0 in
  for b = 0 to bytes_for t.len - 1 do
    total := !total + popcount_byte (byte t b)
  done;
  !total

let count_clear t = t.len - count_set t

(* Lowest clear bit of each byte value (8 for 0xFF). *)
let lowest_clear =
  String.init 256 (fun v ->
      let i = ref 0 in
      while !i < 8 && v land (1 lsl !i) <> 0 do
        incr i
      done;
      Char.unsafe_chr !i)

(* One byte per step: the bits below [start] in its first byte read as
   set. A clear bit found in the final byte's padding lies past the
   end, where no real clear bit can follow. *)
let find_clear t ~start =
  assert (start >= 0);
  if start >= t.len then None
  else begin
    let last = (t.len - 1) lsr 3 in
    let b = ref (start lsr 3) in
    let x = ref (Char.code (byte t !b) lor ((1 lsl (start land 7)) - 1)) in
    while !x = 0xFF && !b < last do
      incr b;
      x := Char.code (byte t !b)
    done;
    let i = (!b lsl 3) + Char.code (String.unsafe_get lowest_clear !x) in
    if !x = 0xFF || i >= t.len then None else Some i
  end

(* Per-byte run tables, for the allocator's per-block probes (a block's
   fragment bits are one aligned byte): longest clear run in the byte,
   and first offset holding [count] consecutive clear bits (bit [i] of
   the byte is bit [8k + i] of the map, LSB first). *)
let byte_max_clear_run, byte_clear_fit =
  let maxrun = Array.make 256 0 in
  let fit = Array.make (256 * 9) (-1) in
  for v = 0 to 255 do
    let best = ref 0 and run = ref 0 in
    for i = 0 to 7 do
      if v land (1 lsl i) <> 0 then run := 0
      else begin
        incr run;
        if !run > !best then best := !run
      end
    done;
    maxrun.(v) <- !best;
    for count = 1 to 8 do
      let first = ref (-1) in
      let i = ref 0 in
      while !first < 0 && !i <= 8 - count do
        if v land (((1 lsl count) - 1) lsl !i) = 0 then first := !i else incr i
      done;
      fit.((v * 9) + count) <- !first
    done
  done;
  (maxrun, fit)

let max_clear_run t ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= t.len);
  if len = 8 && pos land 7 = 0 then
    byte_max_clear_run.(Char.code (byte t (pos lsr 3)))
  else begin
    let best = ref 0 and run = ref 0 in
    for i = pos to pos + len - 1 do
      if get t i then run := 0
      else begin
        incr run;
        if !run > !best then best := !run
      end
    done;
    !best
  end

let find_clear_fit t ~pos ~len ~count =
  assert (pos >= 0 && len >= 0 && pos + len <= t.len && count > 0);
  if len = 8 && pos land 7 = 0 && count <= 8 then begin
    match byte_clear_fit.((Char.code (byte t (pos lsr 3)) * 9) + count) with
    | -1 -> -1
    | off -> pos + off
  end
  else begin
    let stop = pos + len in
    let i = ref pos and run = ref 0 in
    while !run < count && !i < stop do
      if get t !i then run := 0 else incr run;
      incr i
    done;
    if !run >= count then !i - count else -1
  end

(* --- raw bytes (for portable serialization) ------------------------------- *)

let to_string t = Store.read t.store ~pos:t.base ~len:(bytes_for t.len)

let load t s =
  assert (String.length s = bytes_for t.len);
  Store.write t.store ~pos:t.base s
