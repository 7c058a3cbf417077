(* A bit vector viewed over a byte range of a {!Store}: bit [i] lives in
   store byte [base + i/8].  [create] still gives a standalone map (its
   own little heap store), so unit tests and scratch structures are
   unchanged; the allocator's real bitmaps are [of_store] views into the
   volume's shared backend, which is how every bit poke reaches the
   selected storage representation (and its dirty tracking) without the
   call sites changing.

   Padding bits of the final byte are never set (every mutator asserts
   [i < len]), so whole-byte shortcuts and [count_set] need no masking
   as long as [load] is only fed strings produced by [to_string].

   [Fast] caches the heap store's live buffer plus the single dirty-map
   cell covering the view (a group's bitmaps always fit one chunk, and
   [create]'s standalone store is chunked as one), so the allocator's
   per-fragment bit flips stay direct [Bytes] pokes — one data byte,
   one dirty byte — instead of dispatched store calls; the alloc
   benchmark gates on this path.  Both buffers alias the store's own,
   so Marshal sharing keeps marshalled twins bit-identical.  A view
   that is mapped, fault-injecting or chunk-straddling takes the dispatched
   path instead. *)

type fast =
  | No_fast
  | Fast of { bits : Bytes.t; dirty : Bytes.t; dirty_pos : int }

type t = { store : Store.t; base : int; len : int; fast : fast }

let bytes_for len = (len + 7) / 8

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let fast_of store ~base ~len =
  match
    (Store.heap_bytes store, Store.dirty_cell store ~pos:base ~len:(max 1 (bytes_for len)))
  with
  | Some bits, Some (dirty, dirty_pos) -> Fast { bits; dirty; dirty_pos }
  | _ -> No_fast

let create len =
  assert (len >= 0);
  let nbytes = max 1 (bytes_for len) in
  let store = Store.heap ~length:nbytes ~chunk_bytes:(next_pow2 nbytes) in
  { store; base = 0; len; fast = fast_of store ~base:0 ~len }

let of_store store ~base ~len =
  assert (len >= 0 && base >= 0 && base + bytes_for len <= Store.length store);
  { store; base; len; fast = fast_of store ~base ~len }

let length t = t.len
let base t = t.base

let byte t i =
  match t.fast with
  | Fast { bits; _ } -> Bytes.unsafe_get bits (t.base + i)
  | No_fast -> Store.get_byte t.store (t.base + i)

let put t i c =
  match t.fast with
  | Fast { bits; dirty; dirty_pos } ->
      Bytes.unsafe_set dirty dirty_pos '\001';
      Bytes.unsafe_set bits (t.base + i) c
  | No_fast -> Store.set_byte t.store (t.base + i) c

let copy t =
  let c = create t.len in
  Store.blit ~src:t.store ~src_pos:t.base ~dst:c.store ~dst_pos:0 ~len:(bytes_for t.len);
  (* a copy of a standalone map reproduces its dirty state exactly, so
     marshalled twins stay bit-identical; a copy of a shared-store view
     conservatively keeps the blit's all-dirty marking *)
  if
    t.base = 0
    && Store.length t.store = Store.length c.store
    && Store.chunk_bytes t.store = Store.chunk_bytes c.store
  then
    Store.copy_dirty ~src:t.store ~dst:c.store;
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

(* The range operations take whole bytes at a time once aligned: a
   block's fragment bits are one aligned byte under the standard
   geometry, so a block claim/free/probe is a single byte access. *)

let set_range t ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= t.len);
  let stop = pos + len in
  let i = ref pos in
  while !i < stop && !i land 7 <> 0 do
    set t !i;
    incr i
  done;
  while stop - !i >= 8 do
    put t (!i lsr 3) '\255';
    i := !i + 8
  done;
  while !i < stop do
    set t !i;
    incr i
  done

let clear_range t ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= t.len);
  let stop = pos + len in
  let i = ref pos in
  while !i < stop && !i land 7 <> 0 do
    clear t !i;
    incr i
  done;
  while stop - !i >= 8 do
    put t (!i lsr 3) '\000';
    i := !i + 8
  done;
  while !i < stop do
    clear t !i;
    incr i
  done

(* Every bit of [pos ..+ len] equal to [v], whole bytes at a time once
   aligned. A loop over refs rather than a local recursion: the
   allocator asserts this on every claim and free, and a closure
   capturing [t] would be a heap allocation per call. *)
let all_equal t ~pos ~len v =
  assert (pos >= 0 && len >= 0 && pos + len <= t.len);
  let whole = if v then '\255' else '\000' in
  let stop = pos + len in
  let i = ref pos and ok = ref true in
  while !ok && !i < stop do
    if !i land 7 = 0 && stop - !i >= 8 then begin
      ok := byte t (!i lsr 3) = whole;
      i := !i + 8
    end
    else begin
      ok := get t !i = v;
      incr i
    end
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

let find_clear t ~start =
  assert (start >= 0);
  let rec scan i =
    if i >= t.len then None
    else if i land 7 = 0 && i + 8 <= t.len && byte t (i lsr 3) = '\255' then scan (i + 8)
    else if not (get t i) then Some i
    else scan (i + 1)
  in
  if start >= t.len then None else scan start

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
    | -1 -> None
    | off -> Some (pos + off)
  end
  else begin
    let stop = pos + len in
    let rec scan i run =
      if i >= stop then None
      else if not (get t i) then
        if run + 1 >= count then Some (i - count + 1) else scan (i + 1) (run + 1)
      else scan (i + 1) 0
    in
    scan pos 0
  end

(* --- raw bytes (for portable serialization) ------------------------------- *)

let to_string t = Store.read t.store ~pos:t.base ~len:(bytes_for t.len)

let load t s =
  assert (String.length s = bytes_for t.len);
  Store.write t.store ~pos:t.base s
