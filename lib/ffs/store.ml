(* The storage backend behind a volume's on-disk metadata regions.

   Every byte the allocator persists — the per-group fragment, block and
   inode bitmaps — lives in one flat address space owned by a [t].  The
   bytes sit on one of two planes:

   - [Heap]: an in-process [Bytes.t], the seed's behaviour and the
     default everywhere (bit-identical placements, Marshal-able, free);
   - [Map]: a [Bigarray]-mmap'd file, so a volume's image can exceed the
     OCaml heap.  With no path the mapping is backed by an unlinked
     temporary file (purely out-of-core scratch); with a path the file
     persists and [sync] pushes the dirty pages with fsync.

   A plain store is just its plane: no chunk bookkeeping, no dirty map.
   The self-healing layer (the [Resilient_backend] spec) is one
   [checked] record beside the plane, and it is the only owner of
   per-chunk state.  It keeps a CRC-32 per chunk (a power-of-two span,
   one per cylinder group the way {!Layout} sizes them), a dirty map
   saying which chunks were written since the last sync, the quarantine
   remap of persistently bad chunks to spare regions past the logical
   end, and, when a fault plan is attached, the [device] state that
   injects seeded faults into the plane directly:

   - transient I/O errors on any access, retried with bounded
     exponential backoff;
   - latent bad chunks (persistent read errors), quarantined when read;
   - silent bit rot and torn syncs, poked into the plane beneath the
     dirty map: the medium changed, the writer did not.

   All scheduled damage (latent arming, rot, tears) fires at seeded
   sync indexes drawn from [Util.Prng.derive] child streams of one
   device seed, so a replay with the same seed injects the same faults
   at the same points; transient errors are an independent per-access
   child stream.  {!sync} is the acknowledgement: it recomputes the CRCs
   of the chunks written since the last sync, clears the dirty map, then
   fires that sync's damage once, and only the flush (with its transient
   draw) is retried, so a plan's [horizon] counts syncs.  With no plan
   the remap is provably the identity (quarantine only fires on injected
   faults), so [heap_bytes] exposes the plane and the bitmap layer's
   fast path — and therefore placements and timings — are bit-identical
   to the raw backend.  When spares run out the store raises
   [Error.Media_error]: the volume degrades, it does not lie.

   Dirty marks from concurrently pinned domains land on distinct dirty
   bytes (one group, one chunk), so marking needs no lock beyond the
   per-group discipline {!Locks} already enforces.  Fault injection is
   serial-engine only: the device state (rng, bad set) is deliberately
   unsynchronised. *)

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

(* raised by the device state and absorbed by the checked layer: retry
   for transients, quarantine for latent chunks; an unhealable
   condition surfaces as [Error.Media_error] instead *)
exception Io_fault of { op : string; chunk : int; persistent : bool }

type fault_event =
  | Arm_latent of int                 (* chunk becomes persistently unreadable *)
  | Rot of { pos : int; bit : int }   (* silent single-bit flip *)
  | Tear of int                       (* chunk loses the tail half of its write *)

type plane =
  | Heap of Bytes.t
  | Map of { arr : bigstring; fd : Unix.file_descr; path : string option }

(* a fault plan's live state; it acts on the plane, in physical chunks *)
type device = {
  d_plan : Device.plan;
  d_rng : Util.Prng.t;  (* transient draws; child 0 of the device seed *)
  mutable d_scheduled : (int * fault_event) list;  (* ascending sync index *)
  d_bad : (int, unit) Hashtbl.t;  (* armed latent chunks *)
  mutable d_syncs : int;
  mutable d_transient : int;
  mutable d_latent : int;
  mutable d_bitrot : int;
  mutable d_torn : int;
}

type checked = {
  c_shift : int;  (* log2 of the chunk size *)
  c_chunks : int;  (* logical chunk count; the plane also holds the spares *)
  c_crcs : int32 array;  (* per logical chunk; meaningful only when clean *)
  c_dirty : Bytes.t;  (* one byte per logical chunk; '\001' = written since the last sync *)
  c_remap : int array;  (* logical chunk -> physical chunk *)
  mutable c_spare_next : int;
  c_spare_limit : int;
  mutable c_quarantined : int list;  (* logical chunks, newest first *)
  c_jitter_seed : int;
  c_device : device option;  (* the fault plan, when one is attached *)
}

type t = {
  plane : plane;
  len : int;  (* logical length; a checked plane is longer by its spares *)
  checked : checked option;
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

(* --- plane primitives ------------------------------------------------------- *)

let plane_get p i =
  match p with
  | Heap b -> Bytes.unsafe_get b i
  | Map { arr; _ } -> Bigarray.Array1.unsafe_get arr i

let plane_set p i c =
  match p with
  | Heap b -> Bytes.unsafe_set b i c
  | Map { arr; _ } -> Bigarray.Array1.unsafe_set arr i c

let plane_flush = function
  | Heap _ -> ()
  | Map { fd; _ } ->
      (* fsync on the backing fd flushes the mapping's dirty page-cache
         pages (there is no msync binding in the stdlib; on Linux the
         pages share the page cache, so fsync covers them) *)
      Unix.fsync fd

(* --- fault scheduling ------------------------------------------------------ *)

let metrics () = Obs.Metrics.default

let fault_injected cls =
  Obs.Metrics.inc (metrics ()) ~labels:[ ("class", cls) ] "store_faults_injected_total"

(* [physical] bytes in [physical / chunk_bytes] chunks: the whole plane,
   spares included, is the medium the plan damages *)
let device_state plan ~seed ~physical ~chunk_bytes =
  let chunkc = nchunks ~length:physical ~chunk_bytes in
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
      Rot { pos = Util.Prng.int r (max 1 physical); bit = Util.Prng.int r 8 });
  schedule plan.Device.torn 3 (fun r -> Tear (Util.Prng.int r chunkc));
  {
    d_plan = plan;
    d_rng = Util.Prng.create ~seed:(Util.Prng.derive ~seed ~index:0);
    d_scheduled = List.stable_sort (fun (a, _) (b, _) -> compare a b) !sched;
    d_bad = Hashtbl.create 8;
    d_syncs = 0;
    d_transient = 0;
    d_latent = 0;
    d_bitrot = 0;
    d_torn = 0;
  }

let transient d ~op ~chunk =
  if d.d_plan.Device.transient > 0.0 && Util.Prng.chance d.d_rng d.d_plan.Device.transient
  then begin
    d.d_transient <- d.d_transient + 1;
    fault_injected "transient";
    raise (Io_fault { op; chunk; persistent = false })
  end

(* the damage scheduled up to this sync lands on the plane directly,
   beneath the dirty map *)
let fire_events t st d =
  let shift = st.c_shift in
  let physical = st.c_spare_limit lsl shift in
  let rec go = function
    | (at, ev) :: rest when at <= d.d_syncs ->
        (match ev with
        | Arm_latent c ->
            Hashtbl.replace d.d_bad c ();
            d.d_latent <- d.d_latent + 1;
            fault_injected "latent"
        | Rot { pos; bit } ->
            let cur = Char.code (plane_get t.plane pos) in
            plane_set t.plane pos (Char.chr (cur lxor (1 lsl bit)));
            d.d_bitrot <- d.d_bitrot + 1;
            fault_injected "bitrot"
        | Tear c ->
            let base = (c lsl shift) + ((1 lsl shift) / 2) in
            let stop = min ((c + 1) lsl shift) physical in
            for i = base to stop - 1 do
              plane_set t.plane i '\000'
            done;
            d.d_torn <- d.d_torn + 1;
            fault_injected "torn");
        go rest
    | rest -> d.d_scheduled <- rest
  in
  go d.d_scheduled

(* --- the resilient layer's retry machinery --------------------------------- *)

(* transient-fault retry schedule, the same for every resilient store:
   [retries] attempts in all, sleeping a capped exponential from
   [backoff] with seeded +/-50% jitter, deterministic per
   (store, attempt) *)
let retries = 4
let backoff = 1e-4
let max_backoff = 2e-3

let with_retry st ~op ~chunk f =
  let rec go attempt =
    try f ()
    with Io_fault { persistent = false; _ } ->
      if attempt >= retries then
        Error.raise_
          (Error.Media_error
             {
               chunk;
               detail = Printf.sprintf "%s: transient fault persisted across %d attempts" op attempt;
             })
      else begin
        Obs.Metrics.inc (metrics ()) "store_retries_total";
        let d =
          Util.Backoff.delay ~base:backoff ~cap:max_backoff ~jitter:0.5
            ~seed:st.c_jitter_seed ~attempt
        in
        Obs.Metrics.observe (metrics ()) "store_retry_seconds" d;
        if Obs.Trace.enabled () then
          Obs.Trace.event "store.retry" [ Obs.Trace.s "op" op; Obs.Trace.i "attempt" attempt ];
        Unix.sleepf d;
        go (attempt + 1)
      end
  in
  go 1

(* --- constructors ---------------------------------------------------------- *)

let heap ~length = { plane = Heap (Bytes.make length '\000'); len = length; checked = None }
let mmap ?path ~length () = { plane = map_file path ~length; len = length; checked = None }

let rec create spec ~length ~chunk_bytes =
  match spec with
  | Heap_backend -> heap ~length
  | Mmap_backend path -> mmap ?path ~length ()
  | Resilient_backend { base; faults; seed } ->
      let chunks = max 1 (nchunks ~length ~chunk_bytes) in
      let spares = max 4 (chunks / 8) in
      let physical = (chunks + spares) * chunk_bytes in
      let full_crc = Util.Crc32.string (String.make chunk_bytes '\000') in
      let crc0 c =
        let l = min chunk_bytes (length - (c * chunk_bytes)) in
        if l = chunk_bytes then full_crc
        else Util.Crc32.string (String.make (max 0 l) '\000')
      in
      let c_device =
        match faults with
        | Some plan when not (Device.is_none plan) ->
            Some (device_state plan ~seed ~physical ~chunk_bytes)
        | _ -> None
      in
      {
        plane = (create (base_spec base) ~length:physical ~chunk_bytes).plane;
        len = length;
        checked =
          Some
            {
              c_shift = shift_of_chunk chunk_bytes;
              c_chunks = chunks;
              c_crcs = Array.init chunks crc0;
              c_dirty = Bytes.make chunks '\000';
              c_remap = Array.init chunks (fun c -> c);
              c_spare_next = chunks;
              c_spare_limit = chunks + spares;
              c_quarantined = [];
              c_jitter_seed = Util.Prng.derive ~seed ~index:9;
              c_device;
            };
      }

let length t = t.len

let heap_bytes t =
  match (t.plane, t.checked) with
  | Heap b, (None | Some { c_device = None; _ }) -> Some b
  | _ -> None

let dirty_cell t ~pos ~len =
  match t.checked with
  | Some st when len > 0 ->
      let c0 = pos lsr st.c_shift and c1 = (pos + len - 1) lsr st.c_shift in
      if c0 = c1 then Some (st.c_dirty, c0) else None
  | _ -> None

let repr_name t =
  let plane =
    match t.plane with
    | Heap _ -> "bytes"
    | Map { path = None; _ } -> "mmap"
    | Map { path = Some p; _ } -> "mmap:" ^ p
  in
  match t.checked with
  | None -> plane
  | Some { c_device = None; _ } -> "resilient:" ^ plane
  | Some _ -> "resilient:faulty:" ^ plane

(* --- byte access ------------------------------------------------------------ *)

(* logical position -> physical position, through the quarantine remap *)
let translate st i =
  let c = i lsr st.c_shift in
  let rc = st.c_remap.(c) in
  if rc = c then i else (rc lsl st.c_shift) lor (i land ((1 lsl st.c_shift) - 1))

let rec checked_get t st d i =
  let c = i lsr st.c_shift in
  let read () =
    let p = translate st i in
    let pc = p lsr st.c_shift in
    transient d ~op:"read" ~chunk:pc;
    if Hashtbl.mem d.d_bad pc then raise (Io_fault { op = "read"; chunk = pc; persistent = true });
    plane_get t.plane p
  in
  match with_retry st ~op:"read" ~chunk:c read with
  | v -> v
  | exception Io_fault { persistent = true; _ } ->
      quarantine t st d ~chunk:c ~reason:"latent read error";
      checked_get t st d i

(* a persistently unreadable chunk is remapped to the next spare region.
   Its old content is gone (that is what a latent error means); the
   replacement starts zeroed and the logical audit ({!Check.repair})
   rebuilds the lost bitmap state from the in-heap inode table, which is
   why quarantine loses no user data. *)
and quarantine t st d ~chunk ~reason =
  if st.c_spare_next >= st.c_spare_limit then
    Error.raise_ (Error.Media_error { chunk; detail = reason ^ "; spare regions exhausted" });
  let spare = st.c_spare_next in
  st.c_spare_next <- spare + 1;
  let dst = spare lsl st.c_shift in
  for i = 0 to (1 lsl st.c_shift) - 1 do
    with_retry st ~op:"quarantine" ~chunk (fun () ->
        transient d ~op:"write" ~chunk:spare;
        plane_set t.plane (dst + i) '\000')
  done;
  st.c_remap.(chunk) <- spare;
  st.c_quarantined <- chunk :: st.c_quarantined;
  Bytes.unsafe_set st.c_dirty chunk '\001';
  Obs.Metrics.inc (metrics ()) "store_quarantined_chunks_total"

let get_byte t i =
  match t.checked with
  | None | Some { c_device = None; _ } -> plane_get t.plane i
  | Some ({ c_device = Some d; _ } as st) -> checked_get t st d i

(* the device raises persistent faults only on reads, so a write either
   lands or exhausts its retries *)
let set_byte t i c =
  match t.checked with
  | None -> plane_set t.plane i c
  | Some st -> (
      Bytes.unsafe_set st.c_dirty (i lsr st.c_shift) '\001';
      match st.c_device with
      | None -> plane_set t.plane i c
      | Some d ->
          with_retry st ~op:"write" ~chunk:(i lsr st.c_shift) (fun () ->
              let p = translate st i in
              transient d ~op:"write" ~chunk:(p lsr st.c_shift);
              plane_set t.plane p c))

let mark_dirty_range t ~pos ~len =
  match t.checked with
  | Some st when len > 0 ->
      for c = pos lsr st.c_shift to (pos + len - 1) lsr st.c_shift do
        Bytes.unsafe_set st.c_dirty c '\001'
      done
  | _ -> ()

let read t ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= t.len);
  match heap_bytes t with
  | Some b -> Bytes.sub_string b pos len
  | None -> String.init len (fun i -> get_byte t (pos + i))

let write t ~pos s =
  let len = String.length s in
  assert (pos >= 0 && pos + len <= t.len);
  match heap_bytes t with
  | Some b ->
      mark_dirty_range t ~pos ~len;
      Bytes.blit_string s 0 b pos len
  | None -> String.iteri (fun i c -> set_byte t (pos + i) c) s

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  assert (src_pos >= 0 && len >= 0 && src_pos + len <= src.len);
  assert (dst_pos >= 0 && dst_pos + len <= dst.len);
  match (heap_bytes src, heap_bytes dst) with
  | Some s, Some d ->
      mark_dirty_range dst ~pos:dst_pos ~len;
      Bytes.blit s src_pos d dst_pos len
  | _ ->
      (* memmove, as [Bytes.blit]: a store blitted forward onto itself
         is copied from the end, so no byte is read after it is
         overwritten *)
      if src == dst && dst_pos > src_pos then
        for i = len - 1 downto 0 do
          set_byte dst (dst_pos + i) (get_byte src (src_pos + i))
        done
      else
        for i = 0 to len - 1 do
          set_byte dst (dst_pos + i) (get_byte src (src_pos + i))
        done

let digest_region t ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= t.len);
  match heap_bytes t with
  | Some b -> Digest.to_hex (Digest.subbytes b pos len)
  | None -> Digest.to_hex (Digest.string (read t ~pos ~len))

let chunk_len t st c = min (1 lsl st.c_shift) (t.len - (c lsl st.c_shift))

let chunk_crc t st c =
  Util.Crc32.string (read t ~pos:(c lsl st.c_shift) ~len:(chunk_len t st c))

let sync t =
  match t.checked with
  | None -> plane_flush t.plane
  | Some st -> (
      (* the acknowledgement: the writer's bytes are the truth, so the
         CRCs of the chunks written since the last sync are refreshed
         before the flush *)
      for c = 0 to st.c_chunks - 1 do
        if Bytes.unsafe_get st.c_dirty c <> '\000' then st.c_crcs.(c) <- chunk_crc t st c
      done;
      Bytes.fill st.c_dirty 0 st.c_chunks '\000';
      match st.c_device with
      | None -> plane_flush t.plane
      | Some d ->
          (* scheduled damage lands once per sync, beneath the fresh
             CRCs: that is when a real device commits (or fails to
             commit) writes to the medium.  Only the flush is retried. *)
          d.d_syncs <- d.d_syncs + 1;
          fire_events t st d;
          with_retry st ~op:"sync" ~chunk:(-1) (fun () ->
              transient d ~op:"sync" ~chunk:(-1);
              plane_flush t.plane))

let close t =
  match t.plane with
  | Heap _ -> ()
  | Map { fd; _ } -> ( try Unix.close fd with Unix.Unix_error _ -> ())

(* --- self-healing surface -------------------------------------------------- *)

type scrub_report = {
  scrub_chunks : int;
  scrub_verified : int;
  scrub_mismatched : int list;
  scrub_quarantined : int list;
}

let checksummed t = t.checked <> None

let refresh_chunk_crc t c =
  match t.checked with Some st -> st.c_crcs.(c) <- chunk_crc t st c | None -> ()

let quarantined_chunks t =
  match t.checked with Some st -> List.rev st.c_quarantined | None -> []

let device_counts t =
  match t.checked with
  | Some { c_device = Some d; _ } ->
      [ ("transient", d.d_transient); ("latent", d.d_latent);
        ("bitrot", d.d_bitrot); ("torn", d.d_torn) ]
  | _ -> []

let scrub t =
  match t.checked with
  | None ->
      sync t;
      { scrub_chunks = 0; scrub_verified = 0; scrub_mismatched = []; scrub_quarantined = [] }
  | Some st ->
      let before = List.length st.c_quarantined in
      sync t;
      let verified = ref 0 and mismatched = ref [] in
      for c = st.c_chunks - 1 downto 0 do
        let q0 = List.length st.c_quarantined in
        let content = read t ~pos:(c lsl st.c_shift) ~len:(chunk_len t st c) in
        if List.length st.c_quarantined > q0 then
          (* the walk itself hit a latent chunk: its content is gone
             and the logical audit must rebuild the region *)
          mismatched := c :: !mismatched
        else if Util.Crc32.string content <> st.c_crcs.(c) then mismatched := c :: !mismatched
        else incr verified
      done;
      Obs.Metrics.add (metrics ()) "scrub_chunks_total" st.c_chunks;
      let fresh = List.length st.c_quarantined - before in
      let scrub_quarantined =
        List.rev (List.filteri (fun i _ -> i < fresh) st.c_quarantined)
      in
      {
        scrub_chunks = st.c_chunks;
        scrub_verified = !verified;
        scrub_mismatched = !mismatched;
        scrub_quarantined;
      }

(* --- the metadata layout --------------------------------------------------- *)

(* Where each group's persisted metadata lives in the store's flat
   address space: one fixed-size region per group, its size rounded up
   to a power of two so the region doubles as a checksummed store's
   chunk (region index = chunk index = group index, and finding a
   byte's chunk is a single shift). *)
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
