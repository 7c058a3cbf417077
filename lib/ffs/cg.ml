type t = {
  params : Params.t;
  cg_index : int;
  store : Store.t;  (* the backend holding this group's persisted bytes *)
  region_base : int;  (* byte offset of the group's region in [store] *)
  frag_used : Bitmap.t;  (* one bit per data fragment; set = allocated *)
  block_used : Bitmap.t;  (* one bit per block slot; set = any fragment used *)
  ext : Extent_index.t;  (* the one derived free-space index over the bitmaps *)
  inode_used : Bitmap.t;
  mutable nffree : int;
  mutable nbfree : int;
  mutable nifree : int;
  mutable ndirs : int;
  mutable rotor : int;  (* block index where the last preference-less scan ended *)
  mutable ilow : int;  (* no inode slot below this one is free *)
}

(* Bitmap writes mark the group's dirty chunk through the store; the
   counter-only mutators below call [touch] so "dirty" keeps meaning
   "changed since the last checkpoint" even when the bitmaps did not
   move (conservative for the resilient store: a touched chunk's CRC is
   refreshed at the next checkpoint and skipped by scrub until then). *)
let touch t = Store.mark_dirty t.store ~pos:t.region_base

let create_in ~store ~base params ~index =
  let regions = Store.Layout.of_params params in
  let nblocks = Params.data_blocks_per_group params in
  let nfrags = nblocks * params.Params.frags_per_block in
  let ninodes = Params.inodes_per_group params in
  {
    params;
    cg_index = index;
    store;
    region_base = base;
    frag_used =
      Bitmap.of_store store ~base:(base + regions.Store.Layout.frag_off) ~len:nfrags;
    block_used =
      Bitmap.of_store store ~base:(base + regions.Store.Layout.block_off) ~len:nblocks;
    ext = Extent_index.create ~nblocks ~fpb:params.Params.frags_per_block;
    inode_used =
      Bitmap.of_store store ~base:(base + regions.Store.Layout.inode_off) ~len:ninodes;
    nffree = nfrags;
    nbfree = nblocks;
    nifree = ninodes;
    ndirs = 0;
    rotor = 0;
    ilow = 0;
  }

let create params ~index =
  let regions = Store.Layout.of_params params in
  let store =
    Store.heap ~length:regions.Store.Layout.region_bytes
      ~chunk_bytes:regions.Store.Layout.region_bytes
  in
  create_in ~store ~base:0 params ~index

(* Rebind [t]'s views onto [store] (same layout, same region offset),
   deep-copying the derived heap state. The caller must already have
   copied the region's bytes (and, if exactness matters, the dirty
   flags) into [store]. *)
let rebind t ~store =
  {
    t with
    store;
    frag_used =
      Bitmap.of_store store ~base:(Bitmap.base t.frag_used) ~len:(Bitmap.length t.frag_used);
    block_used =
      Bitmap.of_store store ~base:(Bitmap.base t.block_used)
        ~len:(Bitmap.length t.block_used);
    inode_used =
      Bitmap.of_store store ~base:(Bitmap.base t.inode_used)
        ~len:(Bitmap.length t.inode_used);
    ext = Extent_index.copy t.ext;
  }

let copy t =
  let store =
    Store.heap ~length:(Store.length t.store) ~chunk_bytes:(Store.chunk_bytes t.store)
  in
  Store.blit ~src:t.store ~src_pos:0 ~dst:store ~dst_pos:0 ~len:(Store.length t.store);
  Store.copy_dirty ~src:t.store ~dst:store;
  rebind t ~store

(* no-op until a harness enables the registry *)
let metrics = Obs.Metrics.default

let index t = t.cg_index
let data_frags t = Bitmap.length t.frag_used
let data_blocks t = Bitmap.length t.block_used
let free_frag_count t = t.nffree
let free_block_count t = t.nbfree
let inodes_free t = t.nifree
let dirs t = t.ndirs
let block_is_free t b = not (Bitmap.get t.block_used b)
let frag_is_free t f = not (Bitmap.get t.frag_used f)
let fpb t = t.params.Params.frags_per_block

(* Re-derive the extent-index entry of each block in [first..last] from
   the fragment bitmap (after loading the bitmaps wholesale). *)
let sync_index t ~first_block ~last_block =
  let fpb = fpb t in
  for b = first_block to last_block do
    Extent_index.update t.ext b
      ~maxrun:(Bitmap.max_clear_run t.frag_used ~pos:(b * fpb) ~len:fpb)
  done

(* Re-derive block [b]'s slot bit, the free-block counter and its index
   entry from the fragment bitmap, after a claim or free touched part
   of it. *)
let resync_block t b =
  let fpb = fpb t in
  let maxrun = Bitmap.max_clear_run t.frag_used ~pos:(b * fpb) ~len:fpb in
  let used = maxrun < fpb in
  if used <> Bitmap.get t.block_used b then
    if used then begin
      Bitmap.set t.block_used b;
      t.nbfree <- t.nbfree - 1
    end
    else begin
      Bitmap.clear t.block_used b;
      t.nbfree <- t.nbfree + 1
    end;
  Extent_index.update t.ext b ~maxrun

(* Bring slot bits, counters and the index in line with a fragment span
   that was just claimed ([claim]) or freed: the whole blocks inside
   the span move as one index range — one run split or merge however
   long the span — and a partial block at either end re-derives. *)
let sync_span t ~pos ~count ~claim =
  let fpb = fpb t in
  let fb = pos / fpb and lb = (pos + count - 1) / fpb in
  let head = pos <> fb * fpb and tail = pos + count <> (lb + 1) * fpb in
  let first = if head then fb + 1 else fb and last = if tail then lb - 1 else lb in
  if first > last then
    for b = fb to lb do
      resync_block t b
    done
  else begin
    if head then resync_block t fb;
    let len = last - first + 1 in
    if claim then begin
      Bitmap.set_range t.block_used ~pos:first ~len;
      t.nbfree <- t.nbfree - len;
      Extent_index.take_range t.ext ~first ~len
    end
    else begin
      Bitmap.clear_range t.block_used ~pos:first ~len;
      t.nbfree <- t.nbfree + len;
      Extent_index.give_range t.ext ~first ~len
    end;
    if tail then resync_block t lb
  end

(* Mark a fragment run used and keep block bits and counters in sync. *)
let claim_frags t ~pos ~count =
  assert (Bitmap.all_clear t.frag_used ~pos ~len:count);
  Bitmap.set_range t.frag_used ~pos ~len:count;
  t.nffree <- t.nffree - count;
  sync_span t ~pos ~count ~claim:true

let free_frags t ~pos ~count =
  assert (Bitmap.all_set t.frag_used ~pos ~len:count);
  Bitmap.clear_range t.frag_used ~pos ~len:count;
  t.nffree <- t.nffree + count;
  sync_span t ~pos ~count ~claim:false

(* --- free-space searches -------------------------------------------------- *)

(* Each search below is an extent-index query and must return exactly
   what a plain bitmap scan would: the seed's placement. test_cg_diff
   checks every allocator against a bit-by-bit predictor. The wrap
   logic is spelled out per search rather than shared through a
   closure, which would allocate on every call (DESIGN §11.5). *)

(* Find a [count]-fragment fit inside the (not entirely free) block [b],
   scanning its fragments left to right. *)
let fit_in_block t b ~count =
  if block_is_free t b then None
  else begin
    let fpb = fpb t in
    Bitmap.find_clear_fit t.frag_used ~pos:(b * fpb) ~len:fpb ~count
  end

(* first entirely-free block scanning forward from [start], wrapping *)
let free_block_wrap t ~start =
  let n = data_blocks t in
  if n = 0 then None
  else begin
    let start = start mod n in
    match Extent_index.succ_free t.ext ~start with
    | Some _ as r -> r
    | None -> (
        match Extent_index.succ_free t.ext ~start:0 with
        | Some b when b < start -> Some b
        | _ -> None)
  end

(* The rotationally nearest free block in [pref]'s file-system cylinder
   (ffs_alloccgblk), approximated by a cyclic scan of the cylinder-sized
   neighbourhood starting just past the preference: pref+1 .. cyl_end,
   then cyl_start .. pref-1. Note this can land {e behind} the
   preference. The search never considers the length of the free run
   it lands in: that myopia is the paper's central criticism. *)
let free_in_cylinder t ~pref =
  let nblocks = data_blocks t in
  let cyl_blocks = t.params.Params.fs_cylinder_blocks in
  let cyl_start = pref / cyl_blocks * cyl_blocks in
  let cyl_end = Int.min (cyl_start + cyl_blocks) nblocks - 1 in
  match Extent_index.succ_free t.ext ~start:(pref + 1) with
  | Some b when b <= cyl_end -> Some b
  | Some _ | None -> (
      match Extent_index.succ_free t.ext ~start:cyl_start with
      | Some b when b < pref -> Some b
      | Some _ | None -> None)

(* first in-block [count]-fragment fit, scanning blocks from
   [start_block] with wrap; never breaks a free block *)
let partial_fit t ~start_block ~count =
  let n = data_blocks t in
  if n = 0 then None
  else begin
    let start = start_block mod n in
    match Extent_index.succ_fit t.ext ~count ~start with
    | Some b -> fit_in_block t b ~count
    | None -> (
        match Extent_index.succ_fit t.ext ~count ~start:0 with
        | Some b when b < start -> fit_in_block t b ~count
        | _ -> None)
  end

(* first run of [len] free blocks scanning forward from [start],
   wrapping; a run never wraps around the end of the group *)
let cluster_first_fit t ~start ~len =
  let n = data_blocks t in
  if n = 0 then None
  else begin
    let start = start mod n in
    match Extent_index.first_fit t.ext ~start ~len with
    | Some _ as r -> r
    | None -> (
        match Extent_index.first_fit t.ext ~start:0 ~len with
        | Some b when b < start -> Some b
        | _ -> None)
  end

(* start of the shortest adequate maximal free run, first occurrence
   winning ties: the run summary knows the shortest adequate length,
   and the winner is the first run of exactly that length *)
let cluster_best_fit t ~len =
  match Extent_index.shortest_run t.ext ~len with
  | None -> None
  | Some target -> Extent_index.first_run_of t.ext ~len:target

(* --- allocation ----------------------------------------------------------- *)

let alloc_block t ~pref =
  if t.nbfree = 0 then None
  else begin
    let chosen =
      match pref with
      | Some b when block_is_free t (b mod data_blocks t) ->
          Obs.Metrics.inc metrics "ffs_alloc_pref_hit_total";
          Some (b mod data_blocks t)
      | Some b -> (
          Obs.Metrics.inc metrics "ffs_alloc_pref_miss_total";
          let b = b mod data_blocks t in
          match free_in_cylinder t ~pref:b with
          | Some _ as r -> r
          | None -> free_block_wrap t ~start:b)
      | None -> free_block_wrap t ~start:t.rotor
    in
    match chosen with
    | None -> None
    | Some b as r ->
        claim_frags t ~pos:(b * fpb t) ~count:(fpb t);
        t.rotor <- (b + 1) mod data_blocks t;
        r
  end

let free_block t b = free_frags t ~pos:(b * fpb t) ~count:(fpb t)

(* The preferred block [pref] and the free blocks right after it, at
   most [max] in all, claimed as one span: exactly the blocks (and the
   rotor) [max] successive pref hits of {!alloc_block} would take. *)
let claim_pref_run t ~pref ~max =
  if not (block_is_free t pref) then 0
  else begin
    let len = Int.min (Extent_index.run_end t.ext pref + 1) (pref + max) - pref in
    claim_frags t ~pos:(pref * fpb t) ~count:(len * fpb t);
    t.rotor <- (pref + len) mod data_blocks t;
    Obs.Metrics.add metrics "ffs_alloc_pref_hit_total" len;
    len
  end

let alloc_frags t ~pref ~count =
  assert (count >= 1 && count < fpb t);
  if t.nffree < count then None
  else begin
    let start_block =
      match pref with Some f -> f / fpb t mod data_blocks t | None -> t.rotor
    in
    match partial_fit t ~start_block ~count with
    | Some pos ->
        claim_frags t ~pos ~count;
        Some pos
    | None -> (
        (* no fit among partial blocks: break a free block *)
        match alloc_block t ~pref:(Some start_block) with
        | None -> None
        | Some b ->
            let pos = b * fpb t in
            (* give back the surplus fragments of the broken block *)
            free_frags t ~pos:(pos + count) ~count:(fpb t - count);
            Some pos)
  end

(* static label sets: with metrics off a cluster costs no allocation *)
let first_fit_labels = Some [ ("policy", "first_fit") ]
let best_fit_labels = Some [ ("policy", "best_fit") ]

let alloc_cluster t ~policy ~pref ~len =
  assert (len >= 1);
  (* the run summary rejects hopeless requests without a scan — the
     point of cg_clustersum in the real file system *)
  if t.nbfree < len || Option.is_none (Extent_index.shortest_run t.ext ~len) then None
  else begin
    let nblocks = data_blocks t in
    let start = match pref with Some b -> b mod nblocks | None -> 0 in
    let exact_at_pref =
      match pref with
      | Some b when b mod nblocks + len <= nblocks
                    && Bitmap.all_clear t.block_used ~pos:(b mod nblocks) ~len ->
          Some (b mod nblocks)
      | Some _ | None -> None
    in
    let found =
      match exact_at_pref with
      | Some _ as r -> r
      | None -> (
          match policy with
          | `First_fit -> cluster_first_fit t ~start ~len
          | `Best_fit -> cluster_best_fit t ~len)
    in
    match found with
    | None -> None
    | Some b ->
        claim_frags t ~pos:(b * fpb t) ~count:(len * fpb t);
        Obs.Metrics.inc metrics
          ?labels:(match policy with `First_fit -> first_fit_labels | `Best_fit -> best_fit_labels)
          "ffs_alloc_clusters_total";
        Some b
  end

let longest_free_run t = Extent_index.longest_run t.ext

let free_run_histogram t ~max = Extent_index.run_histogram t.ext ~max

let extent_histogram t = Extent_index.histogram t.ext

(* The search starts at the low-water slot: every slot below it is in
   use, so the first clear bit from there is the lowest free slot. *)
let alloc_inode t =
  if t.nifree = 0 then None
  else
    match Bitmap.find_clear t.inode_used ~start:t.ilow with
    | None -> None
    | Some i ->
        Bitmap.set t.inode_used i;
        t.nifree <- t.nifree - 1;
        t.ilow <- i + 1;
        Some i

let free_inode t i =
  assert (Bitmap.get t.inode_used i);
  Bitmap.clear t.inode_used i;
  t.nifree <- t.nifree + 1;
  t.ilow <- Int.min t.ilow i

let inode_is_free t i = not (Bitmap.get t.inode_used i)

let add_dir t =
  touch t;
  t.ndirs <- t.ndirs + 1

let remove_dir t =
  assert (t.ndirs > 0);
  touch t;
  t.ndirs <- t.ndirs - 1

(* --- fsck/repair plumbing ----------------------------------------------- *)

let mark_frags_used t ~pos ~count = claim_frags t ~pos ~count

let mark_inode_used t i =
  assert (not (Bitmap.get t.inode_used i));
  Bitmap.set t.inode_used i;
  t.nifree <- t.nifree - 1

let reset t =
  let nfrags = data_frags t and nblocks = data_blocks t in
  Bitmap.clear_range t.frag_used ~pos:0 ~len:nfrags;
  Bitmap.clear_range t.block_used ~pos:0 ~len:nblocks;
  (* unconditional: the on-store bitmaps may themselves be corrupt
     (device bit rot), so nothing here may be driven by their contents *)
  Extent_index.reset t.ext;
  Bitmap.clear_range t.inode_used ~pos:0 ~len:(Bitmap.length t.inode_used);
  t.nffree <- nfrags;
  t.nbfree <- nblocks;
  t.nifree <- Bitmap.length t.inode_used;
  t.ndirs <- 0;
  t.ilow <- 0

(* --- fault injection ------------------------------------------------------ *)

(* The corrupt_* operations model torn metadata writes: they change one
   on-disk structure without the coordinated updates a live allocator
   performs, so counters, bitmaps and the extent index deliberately fall
   out of sync. Only {!Check.repair} (via {!reset} and
   the mark_* rebuilders) restores consistency; no allocation may run in
   between. *)

let corrupt_clear_frag t f = Bitmap.clear t.frag_used f

let corrupt_set_frag t f = Bitmap.set t.frag_used f

let corrupt_counters t ~nffree ~nbfree =
  touch t;
  t.nffree <- nffree;
  t.nbfree <- nbfree

(* raw single-structure writes for crash-state replay: each mirrors one
   journal step landing on disk with no coordinated updates, so they are
   deliberately tolerant (idempotent, never asserting) — the surrounding
   state is by construction inconsistent until repair *)

let corrupt_set_inode t i = Bitmap.set t.inode_used i
let corrupt_clear_inode t i =
  Bitmap.clear t.inode_used i;
  t.ilow <- Int.min t.ilow i

let corrupt_adjust_dirs t delta =
  touch t;
  t.ndirs <- max 0 (t.ndirs + delta)

let corrupt_index_toggle_free t b = Extent_index.corrupt_toggle_free t.ext b
let corrupt_index_toggle_fit t b ~len = Extent_index.corrupt_toggle_fit t.ext b ~len

(* --- consistency ---------------------------------------------------------- *)

let audit_index t =
  Extent_index.audit t.ext
    ~frag_free:(fun f -> not (Bitmap.get t.frag_used f))
    ~block_free:(fun b -> not (Bitmap.get t.block_used b))

let check_invariants t =
  assert (t.nffree = Bitmap.count_clear t.frag_used);
  assert (t.nbfree = Bitmap.count_clear t.block_used);
  assert (t.nifree = Bitmap.count_clear t.inode_used);
  let fpb = fpb t in
  for b = 0 to data_blocks t - 1 do
    let any_used = not (Bitmap.all_clear t.frag_used ~pos:(b * fpb) ~len:fpb) in
    assert (Bitmap.get t.block_used b = any_used)
  done;
  match audit_index t with
  | [] -> ()
  | msg :: _ -> Error.raise_ (Error.Corrupt msg)

(* --- portable form --------------------------------------------------------- *)

(* The group's canonical serialisation: the persisted bytes (the three
   bitmaps, raw) plus the superblock-level counters and the rotor.
   Derived state — the extent index — is rebuilt from the bitmaps on
   load, exactly as {!Check.repair} rebuilds it, so the form is
   independent of the storage backend.
   Checkpoints, aged images and digests all go through it. *)
type portable = {
  p_index : int;
  p_frag_bits : string;
  p_block_bits : string;
  p_inode_bits : string;
  p_nffree : int;
  p_nbfree : int;
  p_nifree : int;
  p_ndirs : int;
  p_rotor : int;
}

let to_portable t =
  {
    p_index = t.cg_index;
    p_frag_bits = Bitmap.to_string t.frag_used;
    p_block_bits = Bitmap.to_string t.block_used;
    p_inode_bits = Bitmap.to_string t.inode_used;
    p_nffree = t.nffree;
    p_nbfree = t.nbfree;
    p_nifree = t.nifree;
    p_ndirs = t.ndirs;
    p_rotor = t.rotor;
  }

(* Overwrite [t] (fresh from [create_in]) with a portable group's state,
   rebuilding the derived indexes from the loaded bitmaps. *)
let load_portable t p =
  let expect what want got =
    if want <> got then
      Error.raise_
        (Error.Corrupt
           (Fmt.str "cg %d: portable %s is %d bytes, geometry wants %d" p.p_index what
              got want))
  in
  let bytes_for bits = (bits + 7) / 8 in
  expect "fragment bitmap" (bytes_for (data_frags t)) (String.length p.p_frag_bits);
  expect "block bitmap" (bytes_for (data_blocks t)) (String.length p.p_block_bits);
  expect "inode bitmap"
    (bytes_for (Bitmap.length t.inode_used))
    (String.length p.p_inode_bits);
  Bitmap.load t.frag_used p.p_frag_bits;
  Bitmap.load t.block_used p.p_block_bits;
  Bitmap.load t.inode_used p.p_inode_bits;
  sync_index t ~first_block:0 ~last_block:(data_blocks t - 1);
  t.nffree <- p.p_nffree;
  t.nbfree <- p.p_nbfree;
  t.nifree <- p.p_nifree;
  t.ndirs <- p.p_ndirs;
  t.rotor <- p.p_rotor;
  t.ilow <- 0

let of_portable_into ~store ~base params p =
  let t = create_in ~store ~base params ~index:p.p_index in
  load_portable t p;
  t
