(* The storage backend behind a volume's on-disk metadata regions.

   Every byte the allocator persists — the per-group fragment, block and
   inode bitmaps — lives in one flat address space owned by a [t].  Two
   base representations:

   - [Heap]: an in-process [Bytes.t], the seed's behaviour and the
     default everywhere (bit-identical placements, Marshal-able, free);
   - [Map]: a [Bigarray]-mmap'd file, so a volume's image can exceed the
     OCaml heap.  With no path the mapping is backed by an unlinked
     temporary file (purely out-of-core scratch); with a path the file
     persists and [sync] pushes the dirty pages with fsync.

   The hot path ([get_byte]/[set_byte]) dispatches on the representation
   variant, which keeps the per-bit cost of the allocator's bitmap pokes
   flat.  Two further representations stack on top of either base and
   form the self-healing pair:

   - [Faulty] injects seeded, deterministic device faults into the store
     below it: transient I/O errors on any access, latent bad chunks
     (persistent read errors), silent bit rot, and torn syncs.  All
     scheduled damage (latent arming, rot, tears) fires at seeded *sync*
     indexes drawn from [Util.Prng.derive] child streams of one device
     seed, so a replay with the same seed injects the same faults at the
     same points; transient errors are an independent per-access child
     stream.  Rot and tears write beneath dirty tracking — that is the
     point: the medium changed, the writer did not.
   - [Checked] (the [Resilient_backend] spec) keeps a CRC-32 per chunk
     at the existing dirty-chunk granularity, retries transient faults
     with bounded exponential backoff, quarantines persistently bad
     chunks by remapping them to spare regions past the logical end, and
     exposes {!scrub} to walk chunks and report mismatches.  A dirty
     chunk's CRC is stale by definition; {!clear_dirty} (the checkpoint
     acknowledgement) recomputes CRCs for dirty chunks before clearing,
     so checksums are meaningful exactly for clean chunks.  When no
     fault plan is attached the layer runs in passthrough: the remap is
     provably the identity (quarantine only fires on injected faults),
     so [heap_bytes] exposes the inner heap buffer and the bitmap
     layer's fast path — and therefore placements and timings — are
     bit-identical to the raw backend.  When spares run out the store
     raises [Error.Media_error]: the volume degrades, it does not lie.

   Dirty-region tracking rides on the same object: the address space is
   divided into power-of-two chunks (one chunk per cylinder group the
   way {!Layout} sizes them) and every write marks its chunk's byte in
   [dirty].  Writes from concurrently pinned domains land on distinct
   dirty bytes (one group, one chunk), so marking needs no lock beyond
   the per-group discipline {!Locks} already enforces.  Dirty tracking
   exists for the checksums: a successful checkpoint calls {!clear_dirty},
   the acknowledgement that refreshes the CRCs of the chunks written
   since the last one, and {!scrub} skips chunks still dirty.  Fault
   injection is serial-engine only: the injection state (rng, bad set)
   is deliberately unsynchronised. *)

type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* --- device fault plans ---------------------------------------------------- *)

module Device = struct
  type plan = {
    transient : float;  (* per-access probability of a transient I/O error *)
    latent : int;       (* latent bad chunks armed across the horizon *)
    bitrot : int;       (* silent single-bit flips across the horizon *)
    torn : int;         (* torn syncs (half a chunk's write lost) *)
    horizon : int;      (* sync count the scheduled faults are spread over *)
  }

  let none = { transient = 0.0; latent = 0; bitrot = 0; torn = 0; horizon = 6 }

  let is_none p =
    p.transient <= 0.0 && p.latent <= 0 && p.bitrot <= 0 && p.torn <= 0

  let valid p =
    p.transient >= 0.0 && p.transient < 1.0
    && p.latent >= 0 && p.bitrot >= 0 && p.torn >= 0 && p.horizon >= 1

  let to_string p =
    Printf.sprintf "transient=%g,latent=%d,bitrot=%d,torn=%d,horizon=%d"
      p.transient p.latent p.bitrot p.torn p.horizon

  let pp ppf p = Fmt.string ppf (to_string p)

  let of_string s =
    if s = "none" then Some none
    else begin
      let field p part =
        match String.index_opt part '=' with
        | None -> None
        | Some i -> (
            let k = String.sub part 0 i in
            let v = String.sub part (i + 1) (String.length part - i - 1) in
            match k with
            | "transient" ->
                Option.map (fun f -> { p with transient = f }) (float_of_string_opt v)
            | "latent" -> Option.map (fun n -> { p with latent = n }) (int_of_string_opt v)
            | "bitrot" -> Option.map (fun n -> { p with bitrot = n }) (int_of_string_opt v)
            | "torn" -> Option.map (fun n -> { p with torn = n }) (int_of_string_opt v)
            | "horizon" -> Option.map (fun n -> { p with horizon = n }) (int_of_string_opt v)
            | _ -> None)
      in
      let rec go p = function
        | [] -> Some p
        | part :: rest -> ( match field p part with None -> None | Some p -> go p rest)
      in
      match go none (String.split_on_char ',' s) with
      | Some p when valid p -> Some p
      | _ -> None
    end
end

exception Io_fault of { op : string; chunk : int; persistent : bool }

type fault_event =
  | Arm_latent of int                 (* chunk becomes persistently unreadable *)
  | Rot of { pos : int; bit : int }   (* silent single-bit flip *)
  | Tear of int                       (* chunk loses the tail half of its write *)

type repr =
  | Heap of Bytes.t
  | Map of { arr : bigstring; fd : Unix.file_descr; path : string option }
  | Faulty of faulty
  | Checked of checked

and faulty = {
  f_inner : t;
  f_plan : Device.plan;
  f_rng : Util.Prng.t;  (* transient draws; child 0 of the device seed *)
  mutable f_scheduled : (int * fault_event) list;  (* ascending sync index *)
  f_bad : (int, unit) Hashtbl.t;  (* armed latent chunks *)
  mutable f_syncs : int;
  mutable f_transient : int;
  mutable f_latent : int;
  mutable f_bitrot : int;
  mutable f_torn : int;
}

and checked = {
  c_inner : t;
  c_chunks : int;  (* logical chunk count; inner also holds the spares *)
  c_crcs : int32 array;  (* per logical chunk; meaningful only when clean *)
  c_remap : int array;  (* logical chunk -> inner chunk *)
  mutable c_spare_next : int;
  c_spare_limit : int;
  mutable c_quarantined : int list;  (* logical chunks, newest first *)
  c_retries : int;
  c_backoff : float;  (* base delay, seconds *)
  c_max_backoff : float;
  c_jitter_seed : int;
  c_passthrough : bool;  (* no fault plan: remap is the identity, delegate *)
}

and t = {
  repr : repr;
  len : int;
  chunk_shift : int;
  dirty : Bytes.t;  (* one byte per chunk; '\001' = written since last clear *)
}

type spec =
  | Heap_backend
  | Mmap_backend of string option
  | Resilient_backend of { base : spec; faults : Device.plan option; seed : int }

let rec spec_name = function
  | Heap_backend -> "bytes"
  | Mmap_backend None -> "mmap"
  | Mmap_backend (Some path) -> "mmap:" ^ path
  | Resilient_backend { base = Heap_backend; _ } -> "resilient"
  | Resilient_backend { base; _ } -> "resilient:" ^ spec_name base

let rec spec_of_string s =
  match s with
  | "bytes" | "heap" -> Some Heap_backend
  | "mmap" -> Some (Mmap_backend None)
  | "resilient" -> Some (Resilient_backend { base = Heap_backend; faults = None; seed = 0 })
  | s when String.length s > 5 && String.sub s 0 5 = "mmap:" ->
      Some (Mmap_backend (Some (String.sub s 5 (String.length s - 5))))
  | s when String.length s > 10 && String.sub s 0 10 = "resilient:" -> (
      match spec_of_string (String.sub s 10 (String.length s - 10)) with
      | Some base -> Some (Resilient_backend { base; faults = None; seed = 0 })
      | None -> None)
  | _ -> None

let rec base_spec = function
  | Resilient_backend { base; _ } -> base_spec base
  | (Heap_backend | Mmap_backend _) as b -> b

let resilient_spec ?faults ?(seed = 0) base =
  Resilient_backend { base = base_spec base; faults; seed }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let shift_of_chunk chunk_bytes =
  assert (is_pow2 chunk_bytes);
  let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1) in
  log2 chunk_bytes 0

let nchunks ~length ~chunk_bytes = (length + chunk_bytes - 1) / chunk_bytes

let make repr ~length ~chunk_bytes =
  {
    repr;
    len = length;
    chunk_shift = shift_of_chunk chunk_bytes;
    dirty = Bytes.make (max 1 (nchunks ~length ~chunk_bytes)) '\000';
  }

let heap ~length ~chunk_bytes =
  make (Heap (Bytes.make length '\000')) ~length ~chunk_bytes

let map_file path ~length =
  (* with no path, back the mapping by an unlinked temporary: the pages
     are out-of-core scratch reclaimed when the fd (or process) goes.
     OS-level failures (missing directory, unwritable or truncated
     backing file) surface as typed [Error.Io], never a raw
     [Unix_error]. *)
  let path_arg = path in
  let path, unlink =
    match path with
    | Some p -> (p, false)
    | None -> (Filename.temp_file "ffs_store" ".mem", true)
  in
  let fail message = Error.raise_ (Error.Io { path; message }) in
  (match path_arg with
  | Some p when Sys.file_exists p -> (
      match Unix.stat p with
      | { Unix.st_kind = Unix.S_REG; st_size; _ } when st_size > 0 && st_size < length ->
          fail
            (Printf.sprintf "backing file holds %d bytes but the volume needs %d (truncated?)"
               st_size length)
      | _ -> ()
      | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e))
  | _ -> ());
  let fd =
    try Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o600
    with Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)
  in
  try
    if unlink then Sys.remove path;
    Unix.ftruncate fd (max 1 length);
    let arr =
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.char Bigarray.c_layout true [| max 1 length |])
    in
    Map { arr; fd; path = (if unlink then None else path_arg) }
  with
  | Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      fail (Unix.error_message e)
  | Sys_error message ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      fail message

let mmap ?path ~length ~chunk_bytes () =
  make (map_file path ~length) ~length ~chunk_bytes

(* --- fault scheduling ------------------------------------------------------ *)

let metrics () = Obs.Metrics.default

let fault_injected cls =
  Obs.Metrics.inc (metrics ()) ~labels:[ ("class", cls) ] "store_faults_injected_total"

(* raw pokes beneath dirty tracking and fault injection: how rot and
   tears reach the medium without looking like writes *)
let rec raw_get t i =
  match t.repr with
  | Heap b -> Bytes.unsafe_get b i
  | Map { arr; _ } -> Bigarray.Array1.unsafe_get arr i
  | Faulty f -> raw_get f.f_inner i
  | Checked _ -> assert false (* fault layers wrap base representations only *)

let rec raw_set t i c =
  match t.repr with
  | Heap b -> Bytes.unsafe_set b i c
  | Map { arr; _ } -> Bigarray.Array1.unsafe_set arr i c
  | Faulty f -> raw_set f.f_inner i c
  | Checked _ -> assert false

let faulty_state inner plan ~seed =
  let chunkc = Bytes.length inner.dirty in
  let sched = ref [] in
  let schedule n stream mk =
    let rng = Util.Prng.create ~seed:(Util.Prng.derive ~seed ~index:stream) in
    for _ = 1 to n do
      let at = 1 + Util.Prng.int rng plan.Device.horizon in
      sched := (at, mk rng) :: !sched
    done
  in
  schedule plan.Device.latent 1 (fun r -> Arm_latent (Util.Prng.int r chunkc));
  schedule plan.Device.bitrot 2 (fun r ->
      Rot { pos = Util.Prng.int r (max 1 inner.len); bit = Util.Prng.int r 8 });
  schedule plan.Device.torn 3 (fun r -> Tear (Util.Prng.int r chunkc));
  {
    f_inner = inner;
    f_plan = plan;
    f_rng = Util.Prng.create ~seed:(Util.Prng.derive ~seed ~index:0);
    f_scheduled = List.stable_sort (fun (a, _) (b, _) -> compare a b) !sched;
    f_bad = Hashtbl.create 8;
    f_syncs = 0;
    f_transient = 0;
    f_latent = 0;
    f_bitrot = 0;
    f_torn = 0;
  }

let faulty_transient f ~op ~chunk =
  if f.f_plan.Device.transient > 0.0 && Util.Prng.chance f.f_rng f.f_plan.Device.transient
  then begin
    f.f_transient <- f.f_transient + 1;
    fault_injected "transient";
    raise (Io_fault { op; chunk; persistent = false })
  end

let faulty_fire_events t f =
  let cb = 1 lsl t.chunk_shift in
  let rec go = function
    | (at, ev) :: rest when at <= f.f_syncs ->
        (match ev with
        | Arm_latent c ->
            Hashtbl.replace f.f_bad c ();
            f.f_latent <- f.f_latent + 1;
            fault_injected "latent"
        | Rot { pos; bit } ->
            let cur = Char.code (raw_get f.f_inner pos) in
            raw_set f.f_inner pos (Char.chr (cur lxor (1 lsl bit)));
            f.f_bitrot <- f.f_bitrot + 1;
            fault_injected "bitrot"
        | Tear c ->
            let base = (c lsl t.chunk_shift) + (cb / 2) in
            let stop = min ((c + 1) lsl t.chunk_shift) t.len in
            for i = base to stop - 1 do
              raw_set f.f_inner i '\000'
            done;
            f.f_torn <- f.f_torn + 1;
            fault_injected "torn");
        go rest
    | rest -> f.f_scheduled <- rest
  in
  go f.f_scheduled

(* --- the resilient layer's retry machinery --------------------------------- *)

(* the [Par.Pool.backoff_delay] shape, inlined because this library sits
   below [par]: capped exponential base with seeded +/-50% jitter, so
   retry timing is deterministic per (store, attempt) *)
let retry_delay st ~attempt =
  let base =
    Float.min st.c_max_backoff (st.c_backoff *. (2.0 ** float_of_int (attempt - 1)))
  in
  let u =
    Util.Prng.unit_float
      (Util.Prng.create ~seed:(Util.Prng.derive ~seed:st.c_jitter_seed ~index:attempt))
  in
  base *. (0.5 +. u)

let with_retry st ~op ~chunk f =
  let rec go attempt =
    try f ()
    with Io_fault { persistent = false; _ } ->
      if attempt >= st.c_retries then
        Error.raise_
          (Error.Media_error
             {
               chunk;
               detail = Printf.sprintf "%s: transient fault persisted across %d attempts" op attempt;
             })
      else begin
        Obs.Metrics.inc (metrics ()) "store_retries_total";
        let d = retry_delay st ~attempt in
        Obs.Metrics.observe (metrics ()) "store_retry_seconds" d;
        if Obs.Trace.enabled () then
          Obs.Trace.event "store.retry" [ Obs.Trace.s "op" op; Obs.Trace.i "attempt" attempt ];
        Unix.sleepf d;
        go (attempt + 1)
      end
  in
  go 1

(* --- constructors ---------------------------------------------------------- *)

let rec create spec ~length ~chunk_bytes =
  match spec with
  | Heap_backend -> heap ~length ~chunk_bytes
  | Mmap_backend path -> mmap ?path ~length ~chunk_bytes ()
  | Resilient_backend { base; faults; seed } ->
      resilient ?faults ~seed (base_spec base) ~length ~chunk_bytes

and resilient ?faults ?(seed = 0) base ~length ~chunk_bytes =
  let chunks = max 1 (nchunks ~length ~chunk_bytes) in
  let spares = max 4 (chunks / 8) in
  let inner_len = (chunks + spares) * chunk_bytes in
  let plan = match faults with Some p when not (Device.is_none p) -> Some p | _ -> None in
  let base_store = create (base_spec base) ~length:inner_len ~chunk_bytes in
  let inner =
    match plan with
    | None -> base_store
    | Some plan ->
        make (Faulty (faulty_state base_store plan ~seed)) ~length:inner_len ~chunk_bytes
  in
  let full_crc = Util.Crc32.string (String.make chunk_bytes '\000') in
  let crc0 c =
    let l = min chunk_bytes (length - (c * chunk_bytes)) in
    if l = chunk_bytes then full_crc
    else Util.Crc32.string (String.make (max 0 l) '\000')
  in
  make
    (Checked
       {
         c_inner = inner;
         c_chunks = chunks;
         c_crcs = Array.init chunks crc0;
         c_remap = Array.init chunks (fun c -> c);
         c_spare_next = chunks;
         c_spare_limit = chunks + spares;
         c_quarantined = [];
         c_retries = 4;
         c_backoff = 1e-4;
         c_max_backoff = 2e-3;
         c_jitter_seed = Util.Prng.derive ~seed ~index:9;
         c_passthrough = plan = None;
       })
    ~length ~chunk_bytes

let length t = t.len
let chunk_bytes t = 1 lsl t.chunk_shift

let rec is_heap t =
  match t.repr with
  | Heap _ -> true
  | Map _ -> false
  | Faulty f -> is_heap f.f_inner
  | Checked st -> is_heap st.c_inner

let rec heap_bytes t =
  match t.repr with
  | Heap b -> Some b
  | Checked st when st.c_passthrough -> heap_bytes st.c_inner
  | Map _ | Faulty _ | Checked _ -> None

let dirty_cell t ~pos ~len =
  if len <= 0 then None
  else
    let c0 = pos lsr t.chunk_shift and c1 = (pos + len - 1) lsr t.chunk_shift in
    if c0 = c1 then Some (t.dirty, c0) else None

let rec backing_path t =
  match t.repr with
  | Map { path; _ } -> path
  | Heap _ -> None
  | Faulty f -> backing_path f.f_inner
  | Checked st -> backing_path st.c_inner

let rec repr_name t =
  match t.repr with
  | Heap _ -> "bytes"
  | Map { path = None; _ } -> "mmap"
  | Map { path = Some p; _ } -> "mmap:" ^ p
  | Faulty f -> "faulty:" ^ repr_name f.f_inner
  | Checked st -> "resilient:" ^ repr_name st.c_inner

(* --- the byte plane ------------------------------------------------------- *)

let mark_dirty t ~pos = Bytes.unsafe_set t.dirty (pos lsr t.chunk_shift) '\001'

(* logical chunk -> inner position, through the quarantine remap *)
let translate t st i =
  let c = i lsr t.chunk_shift in
  let rc = st.c_remap.(c) in
  if rc = c then i else (rc lsl t.chunk_shift) lor (i land ((1 lsl t.chunk_shift) - 1))

let rec get_byte t i =
  match t.repr with
  | Heap b -> Bytes.unsafe_get b i
  | Map { arr; _ } -> Bigarray.Array1.unsafe_get arr i
  | Faulty f ->
      let c = i lsr t.chunk_shift in
      faulty_transient f ~op:"read" ~chunk:c;
      if Hashtbl.mem f.f_bad c then raise (Io_fault { op = "read"; chunk = c; persistent = true });
      get_byte f.f_inner i
  | Checked st -> if st.c_passthrough then get_byte st.c_inner i else checked_get t st i

and checked_get t st i =
  let c = i lsr t.chunk_shift in
  match with_retry st ~op:"read" ~chunk:c (fun () -> get_byte st.c_inner (translate t st i)) with
  | v -> v
  | exception Io_fault { persistent = true; _ } ->
      quarantine t st ~chunk:c ~reason:"latent read error";
      checked_get t st i

and set_byte t i c =
  mark_dirty t ~pos:i;
  match t.repr with
  | Heap b -> Bytes.unsafe_set b i c
  | Map { arr; _ } -> Bigarray.Array1.unsafe_set arr i c
  | Faulty f ->
      faulty_transient f ~op:"write" ~chunk:(i lsr t.chunk_shift);
      set_byte f.f_inner i c
  | Checked st -> if st.c_passthrough then set_byte st.c_inner i c else checked_set t st i c

and checked_set t st i c =
  let ch = i lsr t.chunk_shift in
  try with_retry st ~op:"write" ~chunk:ch (fun () -> set_byte st.c_inner (translate t st i) c)
  with Io_fault { persistent = true; _ } ->
    quarantine t st ~chunk:ch ~reason:"write to latent chunk";
    checked_set t st i c

(* a persistently unreadable chunk is remapped to the next spare region.
   Its old content is gone (that is what a latent error means); the
   replacement starts zeroed and the logical audit ({!Check.repair})
   rebuilds the lost bitmap state from the in-heap inode table, which is
   why quarantine loses no user data. *)
and quarantine t st ~chunk ~reason =
  if st.c_spare_next >= st.c_spare_limit then
    Error.raise_ (Error.Media_error { chunk; detail = reason ^ "; spare regions exhausted" });
  let spare = st.c_spare_next in
  st.c_spare_next <- spare + 1;
  let dst = spare lsl t.chunk_shift in
  for i = 0 to (1 lsl t.chunk_shift) - 1 do
    with_retry st ~op:"quarantine" ~chunk (fun () -> set_byte st.c_inner (dst + i) '\000')
  done;
  st.c_remap.(chunk) <- spare;
  st.c_quarantined <- chunk :: st.c_quarantined;
  mark_dirty t ~pos:(chunk lsl t.chunk_shift);
  Obs.Metrics.inc (metrics ()) "store_quarantined_chunks_total"

let mark_dirty_range t ~pos ~len =
  if len > 0 then
    for c = pos lsr t.chunk_shift to (pos + len - 1) lsr t.chunk_shift do
      Bytes.unsafe_set t.dirty c '\001'
    done

let rec read t ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= t.len);
  match t.repr with
  | Heap b -> Bytes.sub_string b pos len
  | Checked st when st.c_passthrough -> read st.c_inner ~pos ~len
  | Map _ | Faulty _ | Checked _ -> String.init len (fun i -> get_byte t (pos + i))

let rec write t ~pos s =
  let len = String.length s in
  assert (pos >= 0 && pos + len <= t.len);
  match t.repr with
  | Heap b ->
      mark_dirty_range t ~pos ~len;
      Bytes.blit_string s 0 b pos len
  | Map { arr; _ } ->
      mark_dirty_range t ~pos ~len;
      for i = 0 to len - 1 do
        Bigarray.Array1.unsafe_set arr (pos + i) s.[i]
      done
  | Checked st when st.c_passthrough ->
      mark_dirty_range t ~pos ~len;
      write st.c_inner ~pos s
  | Faulty _ | Checked _ ->
      for i = 0 to len - 1 do
        set_byte t (pos + i) s.[i]
      done

let rec unwrap_passthrough t =
  match t.repr with
  | Checked st when st.c_passthrough -> unwrap_passthrough st.c_inner
  | _ -> t

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  assert (src_pos >= 0 && len >= 0 && src_pos + len <= src.len);
  assert (dst_pos >= 0 && dst_pos + len <= dst.len);
  mark_dirty_range dst ~pos:dst_pos ~len;
  match ((unwrap_passthrough src).repr, (unwrap_passthrough dst).repr) with
  | Heap s, Heap d -> Bytes.blit s src_pos d dst_pos len
  | _ ->
      for i = 0 to len - 1 do
        set_byte dst (dst_pos + i) (get_byte src (src_pos + i))
      done

let rec digest_region t ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= t.len);
  match t.repr with
  | Heap b -> Digest.to_hex (Digest.subbytes b pos len)
  | Checked st when st.c_passthrough -> digest_region st.c_inner ~pos ~len
  | Map _ | Faulty _ | Checked _ -> Digest.to_hex (Digest.string (read t ~pos ~len))

let rec sync t =
  match t.repr with
  | Heap _ -> ()
  | Map { fd; _ } ->
      (* fsync on the backing fd flushes the mapping's dirty page-cache
         pages (there is no msync binding in the stdlib; on Linux the
         pages share the page cache, so fsync covers them) *)
      Unix.fsync fd
  | Faulty f ->
      (* scheduled damage lands at sync points: that is when a real
         device commits (or fails to commit) writes to the medium *)
      f.f_syncs <- f.f_syncs + 1;
      faulty_fire_events t f;
      faulty_transient f ~op:"sync" ~chunk:(-1);
      sync f.f_inner
  | Checked st ->
      if st.c_passthrough then sync st.c_inner
      else with_retry st ~op:"sync" ~chunk:(-1) (fun () -> sync st.c_inner)

let rec close t =
  match t.repr with
  | Heap _ -> ()
  | Map { fd; _ } -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | Faulty f -> close f.f_inner
  | Checked st -> close st.c_inner

(* --- dirty chunks --------------------------------------------------------- *)

let chunk_dirty t c = Bytes.get t.dirty c <> '\000'

let chunk_len t c = min (1 lsl t.chunk_shift) (t.len - (c lsl t.chunk_shift))

let chunk_crc t c =
  Util.Crc32.string (read t ~pos:(c lsl t.chunk_shift) ~len:(chunk_len t c))

let refresh_chunk_crc t c =
  match t.repr with Checked st -> st.c_crcs.(c) <- chunk_crc t c | _ -> ()

let clear_dirty t =
  (* a dirty chunk's CRC is stale by definition; the checkpoint
     acknowledgement is the moment the content is known good, so refresh
     checksums for exactly the chunks being cleared *)
  (match t.repr with
  | Checked st ->
      for c = 0 to st.c_chunks - 1 do
        if Bytes.unsafe_get t.dirty c <> '\000' then st.c_crcs.(c) <- chunk_crc t c
      done
  | _ -> ());
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000'

let copy_dirty ~src ~dst =
  assert (Bytes.length src.dirty = Bytes.length dst.dirty);
  Bytes.blit src.dirty 0 dst.dirty 0 (Bytes.length src.dirty)

(* --- self-healing surface -------------------------------------------------- *)

type scrub_report = {
  scrub_chunks : int;
  scrub_verified : int;
  scrub_stale : int;  (* dirty chunks skipped: their CRC is stale by rule *)
  scrub_mismatched : int list;
  scrub_quarantined : int list;
}

let empty_scrub_report =
  { scrub_chunks = 0; scrub_verified = 0; scrub_stale = 0; scrub_mismatched = []; scrub_quarantined = [] }

let checksummed t = match t.repr with Checked _ -> true | _ -> false

let quarantined_chunks t =
  match t.repr with Checked st -> List.rev st.c_quarantined | _ -> []

let rec device_counts t =
  match t.repr with
  | Faulty f ->
      [ ("transient", f.f_transient); ("latent", f.f_latent);
        ("bitrot", f.f_bitrot); ("torn", f.f_torn) ]
  | Checked st -> device_counts st.c_inner
  | Heap _ | Map _ -> []

let scrub t =
  match t.repr with
  | Checked st ->
      let before = List.length st.c_quarantined in
      sync t;
      let verified = ref 0 and stale = ref 0 and mismatched = ref [] in
      for c = st.c_chunks - 1 downto 0 do
        if chunk_dirty t c then incr stale
        else begin
          let q0 = List.length st.c_quarantined in
          let content = read t ~pos:(c lsl t.chunk_shift) ~len:(chunk_len t c) in
          if List.length st.c_quarantined > q0 then
            (* the walk itself hit a latent chunk: its content is gone
               and the logical audit must rebuild the region *)
            mismatched := c :: !mismatched
          else if Util.Crc32.string content <> st.c_crcs.(c) then mismatched := c :: !mismatched
          else incr verified
        end
      done;
      Obs.Metrics.add (metrics ()) "scrub_chunks_total" st.c_chunks;
      let fresh = List.length st.c_quarantined - before in
      let scrub_quarantined =
        List.rev (List.filteri (fun i _ -> i < fresh) st.c_quarantined)
      in
      {
        scrub_chunks = st.c_chunks;
        scrub_verified = !verified;
        scrub_stale = !stale;
        scrub_mismatched = !mismatched;
        scrub_quarantined;
      }
  | Heap _ | Map _ | Faulty _ ->
      sync t;
      empty_scrub_report

(* --- the metadata layout --------------------------------------------------- *)

(* Where each group's persisted metadata lives in the store's flat
   address space: one fixed-size region per group, its size rounded up
   to a power of two so the region doubles as the dirty-tracking chunk
   (region index = chunk index = group index, and dirty marking inside
   [set_byte] is a single shift). *)
module Layout = struct
  type regions = {
    frag_off : int;
    frag_bytes : int;
    block_off : int;
    block_bytes : int;
    inode_off : int;
    inode_bytes : int;
    region_bytes : int;  (* power of two *)
  }

  let next_pow2 n =
    let rec go p = if p >= n then p else go (p * 2) in
    go 1

  let bitmap_bytes bits = (bits + 7) / 8

  let of_params (p : Params.t) =
    let nblocks = Params.data_blocks_per_group p in
    let nfrags = nblocks * p.Params.frags_per_block in
    let ninodes = Params.inodes_per_group p in
    let frag_bytes = bitmap_bytes nfrags in
    let block_bytes = bitmap_bytes nblocks in
    let inode_bytes = bitmap_bytes ninodes in
    let frag_off = 0 in
    let block_off = frag_off + frag_bytes in
    let inode_off = block_off + block_bytes in
    {
      frag_off;
      frag_bytes;
      block_off;
      block_bytes;
      inode_off;
      inode_bytes;
      region_bytes = next_pow2 (inode_off + inode_bytes);
    }

  let total_bytes (p : Params.t) = p.Params.ncg * (of_params p).region_bytes

  let region_base regions ~index = index * regions.region_bytes

  let store_for spec (p : Params.t) =
    let regions = of_params p in
    create spec
      ~length:(p.Params.ncg * regions.region_bytes)
      ~chunk_bytes:regions.region_bytes
end
