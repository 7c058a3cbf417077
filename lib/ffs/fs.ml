type cluster_policy = [ `First_fit | `Best_fit ]
type config = { realloc : bool; cluster_policy : cluster_policy }

type stats = {
  mutable blocks_allocated : int;
  mutable frags_allocated : int;
  mutable contiguous_allocations : int;
  mutable cg_fallbacks : int;
  mutable realloc_attempts : int;
  mutable realloc_moves : int;
  mutable realloc_failures : int;
  mutable indirect_switches : int;
}

(* observability: the global registry, heatmap and tracer are no-ops
   until a harness enables them (one atomic load per call site) *)
let metrics = Obs.Metrics.default
let heat = Obs.Heatmap.global

(* Per-op tables keyed by their real types: names compare with
   [String.equal], not the polymorphic [compare]. [String.hash] and
   [Int.hash] equal [Hashtbl.hash], so bucket and iteration orders are
   those of the generic table. *)
module Names = Hashtbl.Make (String)
module Dirs = Hashtbl.Make (Int)

(* A directory's entries. [copy] shares the states of its source, after
   marking each [shared]; a write goes through [writable_dir], which
   first clones a shared state into the writer's own table, so neither
   side ever writes a state the other can see. The flag is atomic
   because several domains may fork one image at once. *)
type dir_state = {
  dir_inum : int;
  by_name : int Names.t;
  mutable order : string list;  (* reverse insertion order *)
  mutable live_entries : int;
  shared : bool Atomic.t;
}

let new_dir_state inum =
  {
    dir_inum = inum;
    by_name = Names.create 16;
    order = [];
    live_entries = 0;
    shared = Atomic.make false;
  }

(* The address geometry, derived once from [params]: the conversions
   below run several times per allocated block, and each [Params]
   accessor recomputes its figure with a chain of integer divisions. *)
type geometry = { fpg : int; data_off : int; ipg : int; ninodes : int; nfrags : int }

let geometry params =
  let ipg = Params.inodes_per_group params in
  {
    fpg = Params.frags_per_group params;
    data_off = Params.metadata_frags params;
    ipg;
    ninodes = params.Params.ncg * ipg;
    nfrags = Params.total_frags params;
  }

(* One group's share of the superblock-level tables, indexed by inode
   slot within the group (inum mod ipg). A domain pinned to group [g]
   reads and writes only [shards.(g)], so parallel batches share no
   table and need no lock beyond their group pin. Inode allocation takes
   the lowest free slot, so each table only grows to the highest slot
   used; a slot past its end is empty.

   [optimal] and [counted] are the layout-score sums of the group's
   regular files (see {!Inode.optimal_links}): derived state, like the
   extent index, kept by the two writers of inode records and entries
   ([set_inode], [set_entries]), audited by fsck and rebuilt by
   [rebuild_allocation]. *)
type shard = {
  mutable inodes : Inode.t option array;
  mutable parents : (int * string) option array;  (* slot -> (parent dir inum, name) *)
  counts : stats;  (* the counters a domain pinned to this group bumps *)
  mutable optimal : int;  (* links from a run to the run that follows it on disk *)
  mutable counted : int;  (* all links: runs - 1 for every file of >= 2 runs *)
}

type t = {
  params : Params.t;
  geo : geometry;
  store : Store.t;
      (* the volume's persisted metadata bytes (every cg's bitmaps);
         chunk index = cg index *)
  cgs : Cg.t array;
  shards : shard array;  (* one per group; shard of an inum = inum / ipg *)
  dirs : dir_state Dirs.t;
      (* written only unpinned: pinned domains read it, never insert *)
  cfg : config;
  mutable clock : float;
  root_inum : int;
  stats : stats;  (* the counters unpinned callers bump; see [stats] *)
  mutable jrec : Journal.step list ref option;
      (* crash-exploration journal: when set, every metadata write is
         also recorded (reverse order) — see [record_journal] *)
}

(* Record one journal step if a recording is open. *)
let jot t step = match t.jrec with Some r -> r := step :: !r | None -> ()

(* Every path a replay runs per block, entry or file tests this before
   building a step: the step would otherwise be allocated even when
   nothing records. *)
let recording t = Option.is_some t.jrec

let record_journal t f =
  assert (t.jrec = None);
  let r = ref [] in
  t.jrec <- Some r;
  Fun.protect
    ~finally:(fun () -> t.jrec <- None)
    (fun () ->
      let v = f () in
      (v, List.rev !r))

(* an inode-table write: the installed record itself, which no later
   write changes *)
let jot_inode t ino = if recording t then jot t (Journal.Inode_write { ino })

let default_config = { realloc = false; cluster_policy = `First_fit }
let realloc_config = { realloc = true; cluster_policy = `First_fit }

let fresh_stats () =
  {
    blocks_allocated = 0;
    frags_allocated = 0;
    contiguous_allocations = 0;
    cg_fallbacks = 0;
    realloc_attempts = 0;
    realloc_moves = 0;
    realloc_failures = 0;
    indirect_switches = 0;
  }

(* --- address conversion ------------------------------------------------ *)

let fpb t = t.params.Params.frags_per_block
let ipg t = t.geo.ipg

(* [Params.data_base] and [Params.group_of_frag] over the cached geometry *)
let data_base t cg = (cg * t.geo.fpg) + t.geo.data_off

(* global fragment address of local data fragment [f] in group [cg] *)
let global_of_local t ~cg ~frag = data_base t cg + frag

let cg_of_global t addr = addr / t.geo.fpg

let local_of_global t addr =
  let cg = cg_of_global t addr in
  let frag = addr - data_base t cg in
  assert (frag >= 0 && frag < Cg.data_frags t.cgs.(cg));
  (cg, frag)

let cg_of_inum t inum = inum / ipg t

(* --- confinement and the per-group shards -------------------------------- *)

(* A pinned domain may only touch its own group: anything else means
   "needs the whole volume" — defer. *)
let confine pin ~cg =
  match pin with
  | Some p when cg <> p -> Error.raise_ (Error.Cross_cg { cg; pinned = p })
  | Some _ | None -> ()

(* Whole-volume work (directory creation and removal, the repair
   plumbing) writes shared tables, so it never runs pinned. *)
let unpinned_only () =
  match Locks.pinned () with
  | Some p -> Error.raise_ (Error.Cross_cg { cg = -1; pinned = p })
  | None -> ()

let inum_in_range t inum = inum >= 0 && inum < t.geo.ninodes
let shard_of t inum = t.shards.(cg_of_inum t inum)

let slot slots s = if s < Array.length slots then slots.(s) else None

(* [slots] with [v] stored at [s], doubled (up to [ipg]) to reach it *)
let store_slot ~ipg slots s v =
  if s < Array.length slots then begin
    slots.(s) <- v;
    slots
  end
  else if Option.is_none v then slots
  else begin
    let n = Array.length slots in
    let grown = Array.make (min ipg (max (s + 1) (max 16 (2 * n)))) None in
    Array.blit slots 0 grown 0 n;
    grown.(s) <- v;
    grown
  end

let find_inode t inum =
  if inum_in_range t inum then slot (shard_of t inum).inodes (inum mod ipg t) else None

let inode t inum = match find_inode t inum with Some i -> i | None -> raise Not_found

(* add ([sign] = 1) or remove ([sign] = -1) one inode's share of its
   shard's layout sums; directories have no share *)
let add_links sh ino ~sign =
  let entries = ino.Inode.entries in
  let n = Array.length entries in
  if n >= 2 && ino.Inode.kind = Inode.File then begin
    sh.optimal <- sh.optimal + (sign * Inode.optimal_links entries);
    sh.counted <- sh.counted + (sign * (n - 1))
  end

(* Every inode-table write: the record leaving the slot takes its share
   of the layout sums with it, the arriving one brings its own. *)
let set_inode t inum v =
  let sh = shard_of t inum in
  let s = inum mod ipg t in
  (match slot sh.inodes s with Some old -> add_links sh old ~sign:(-1) | None -> ());
  (match v with Some ino -> add_links sh ino ~sign:1 | None -> ());
  sh.inodes <- store_slot ~ipg:(ipg t) sh.inodes s v

let set_entries t ?indirect_addrs ino entries =
  let indirect_addrs = Option.value indirect_addrs ~default:ino.Inode.indirect_addrs in
  set_inode t ino.Inode.inum (Some { ino with Inode.entries; indirect_addrs })

(* A raw inode-table write: the layout sums keep the old record's share. *)
let corrupt_inode t inum f =
  let sh = shard_of t inum in
  sh.inodes <- store_slot ~ipg:(ipg t) sh.inodes (inum mod ipg t) (Some (f (inode t inum)))

let group_layout_counts t cg =
  let sh = t.shards.(cg) in
  (sh.optimal, sh.counted)

let layout_counts t =
  let optimal = ref 0 and counted = ref 0 in
  Array.iter
    (fun sh ->
      optimal := !optimal + sh.optimal;
      counted := !counted + sh.counted)
    t.shards;
  (!optimal, !counted)

(* [(optimal, counted)] of one shard, recounted from its inode table *)
let recount_links sh =
  let fresh = { sh with optimal = 0; counted = 0 } in
  Array.iter (function Some ino -> add_links fresh ino ~sign:1 | None -> ()) sh.inodes;
  (fresh.optimal, fresh.counted)

let group_layout_recount t cg = recount_links t.shards.(cg)

let rebuild_layout_counts t =
  Array.iter
    (fun sh ->
      let optimal, counted = recount_links sh in
      sh.optimal <- optimal;
      sh.counted <- counted)
    t.shards

let find_parent t inum =
  if inum_in_range t inum then slot (shard_of t inum).parents (inum mod ipg t) else None

(* An entry naming an impossible inum (a corrupt directory) has no
   parent slot to record. *)
let set_parent t inum v =
  if inum_in_range t inum then begin
    let sh = shard_of t inum in
    sh.parents <- store_slot ~ipg:(ipg t) sh.parents (inum mod ipg t) v
  end

(* The counters a caller bumps: its group's shard when pinned, the
   unpinned record otherwise. [stats] sums them. *)
let counts t pin = match pin with Some p -> t.shards.(p).counts | None -> t.stats

let new_shard () =
  { inodes = [||]; parents = [||]; counts = fresh_stats (); optimal = 0; counted = 0 }

let add_counts acc s =
  acc.blocks_allocated <- acc.blocks_allocated + s.blocks_allocated;
  acc.frags_allocated <- acc.frags_allocated + s.frags_allocated;
  acc.contiguous_allocations <- acc.contiguous_allocations + s.contiguous_allocations;
  acc.cg_fallbacks <- acc.cg_fallbacks + s.cg_fallbacks;
  acc.realloc_attempts <- acc.realloc_attempts + s.realloc_attempts;
  acc.realloc_moves <- acc.realloc_moves + s.realloc_moves;
  acc.realloc_failures <- acc.realloc_failures + s.realloc_failures;
  acc.indirect_switches <- acc.indirect_switches + s.indirect_switches

let stats t =
  let acc = fresh_stats () in
  add_counts acc t.stats;
  Array.iter (fun sh -> add_counts acc sh.counts) t.shards;
  acc

(* --- inode allocation --------------------------------------------------- *)

let try_inode_cg t c =
  match Cg.alloc_inode t.cgs.(c) with
  | Some local ->
      Obs.Metrics.inc metrics "ffs_alloc_inodes_total";
      let inum = (c * ipg t) + local in
      if recording t then jot t (Journal.Inode_slot_set { inum });
      Some inum
  | None -> None

(* The FFS cylinder-group overflow walk once the preferred group [cg]
   came up empty: quadratic rehash, then brute force. [f] gets a group
   index and returns [None] to mean "nothing here". *)
let rehash t ~cg ~f =
  let ncg = t.params.Params.ncg in
  let rec quadratic c i =
    if i >= ncg then None
    else begin
      let c = (c + i) mod ncg in
      match f c with Some _ as r -> r | None -> quadratic c (i * 2)
    end
  in
  let rec brute c i =
    if i >= ncg then None
    else match f (c mod ncg) with Some _ as r -> r | None -> brute (c + 1) (i + 1)
  in
  match quadratic cg 1 with Some _ as r -> r | None -> brute (cg + 2) 2

let alloc_inode_near t ~cg =
  match Locks.pinned () with
  | Some p ->
      (* pinned domains may only touch their own group; a full group
         means the serial phase must place this inode (the overflow
         search reads every group) *)
      if cg <> p then Error.raise_ (Error.Cross_cg { cg; pinned = p });
      (match try_inode_cg t p with
      | Some _ as r -> r
      | None -> Error.raise_ (Error.Cross_cg { cg = -1; pinned = p }))
  | None -> (
      match try_inode_cg t cg with
      | Some _ as r -> r
      | None -> rehash t ~cg ~f:(try_inode_cg t))

(* --- block and fragment allocation ------------------------------------- *)

(* total free blocks across the file system (27 groups: cheap to sum) *)
let total_free_blocks t = Array.fold_left (fun acc cg -> acc + Cg.free_block_count cg) 0 t.cgs

(* [overflow t ~cg ~f] places a block or fragment once the preferred
   group [cg] came up empty, by {!rehash}, and counts the fallback. A
   pinned domain cannot search other groups, so it defers instead. *)
let overflow t pin ~cg ~f =
  if Option.is_some pin then Error.raise_ (Error.Cross_cg { cg = -1; pinned = cg });
  match rehash t ~cg ~f with
  | Some addr ->
      (* unpinned only: a pinned caller deferred above *)
      t.stats.cg_fallbacks <- t.stats.cg_fallbacks + 1;
      Obs.Metrics.inc metrics "ffs_alloc_cg_fallbacks_total";
      addr
  | None -> Error.raise_ Error.Out_of_space

(* [g]'s fragment index in its group's data area, or -1 when [g] lies
   past the volume or outside its group's data area. *)
let data_local t g =
  if g >= t.geo.nfrags then -1
  else begin
    let cg = cg_of_global t g in
    let local = g - data_base t cg in
    if local < 0 || local >= Cg.data_frags t.cgs.(cg) then -1 else local
  end

(* Preference for the block following global address [prev], as a
   global fragment address: the next block slot, which may fall past
   the end of the group's data area — in which case prefer the start of
   the next group's (group 0's past the end of the volume). One int, so
   a preference allocates no pair. *)
let pref_after_block t prev =
  (* rotdelay leaves a gap of whole blocks between a file's consecutive
     blocks (0 on the paper's system: its drive has a track buffer) *)
  let g = prev + (fpb t * (1 + t.params.Params.rotdelay_blocks)) in
  if data_local t g >= 0 then g
  else if g >= t.geo.nfrags then data_base t 0
  else data_base t ((cg_of_global t g + 1) mod t.params.Params.ncg)

(* block index of global address [pref] in its group [cg] *)
let block_in t ~cg pref = (pref - data_base t cg) / fpb t

let count_block stats ~contig =
  stats.blocks_allocated <- stats.blocks_allocated + 1;
  if contig then stats.contiguous_allocations <- stats.contiguous_allocations + 1

let count_frags stats ~count = stats.frags_allocated <- stats.frags_allocated + count

(* The bookkeeping of one placed block, however it was found: counters,
   journal step, metrics, heatmap and trace, all per block. [cg] is the
   block's group, which the caller knows. *)
let note_block t pin ~pref_cg ~cg ~addr ~contig =
  count_block (counts t pin) ~contig;
  if recording t then jot t (Journal.Data_set { addr; frags = fpb t });
  Obs.Metrics.inc metrics "ffs_alloc_blocks_total";
  if contig then Obs.Metrics.inc metrics "ffs_alloc_contiguous_total";
  Obs.Heatmap.record heat ~cg Obs.Heatmap.Block;
  if cg <> pref_cg then Obs.Heatmap.record heat ~cg Obs.Heatmap.Fallback;
  if Obs.Trace.enabled () then
    Obs.Trace.event "alloc.block"
      [
        Obs.Trace.i "addr" addr;
        Obs.Trace.i "cg" cg;
        Obs.Trace.i "pref_cg" pref_cg;
        Obs.Trace.b "fallback" (cg <> pref_cg);
        Obs.Trace.b "contig" contig;
      ]

(* a file's previous block before it has one *)
let no_prev = -1

(* [addr] directly follows [prev] on disk *)
let follows t ~prev addr = prev <> no_prev && addr = prev + fpb t

(* The preferred group is tried directly; only a miss builds the
   overflow search's closure. *)
let alloc_block t ~pref_cg ~pref_block ~prev =
  let pin = Locks.pinned () in
  confine pin ~cg:pref_cg;
  let b = Cg.alloc_block_i t.cgs.(pref_cg) ~pref:pref_block in
  let addr =
    if b >= 0 then global_of_local t ~cg:pref_cg ~frag:(b * fpb t)
    else
      overflow t pin ~cg:pref_cg ~f:(fun c ->
          let b = Cg.alloc_block_i t.cgs.(c) ~pref:(if c = pref_cg then pref_block else -1) in
          if b < 0 then None else Some (global_of_local t ~cg:c ~frag:(b * fpb t)))
  in
  note_block t pin ~pref_cg ~cg:(cg_of_global t addr) ~addr ~contig:(follows t ~prev addr);
  addr

(* [pref_frag] is a local fragment of [pref_cg], or -1 for none *)
let alloc_frags t ~pref_cg ~pref_frag ~count =
  let pin = Locks.pinned () in
  confine pin ~cg:pref_cg;
  let f = Cg.alloc_frags_i t.cgs.(pref_cg) ~pref:pref_frag ~count in
  let addr =
    if f >= 0 then global_of_local t ~cg:pref_cg ~frag:f
    else
      overflow t pin ~cg:pref_cg ~f:(fun c ->
          let f = Cg.alloc_frags_i t.cgs.(c) ~pref:(if c = pref_cg then pref_frag else -1) ~count in
          if f < 0 then None else Some (global_of_local t ~cg:c ~frag:f))
  in
  count_frags (counts t pin) ~count;
  let cg = cg_of_global t addr in
  if recording t then jot t (Journal.Data_set { addr; frags = count });
  Obs.Metrics.inc metrics "ffs_alloc_frag_runs_total";
  Obs.Metrics.add metrics "ffs_alloc_frags_total" count;
  Obs.Heatmap.record heat ~cg Obs.Heatmap.Frag;
  if cg <> pref_cg then Obs.Heatmap.record heat ~cg Obs.Heatmap.Fallback;
  if Obs.Trace.enabled () then
    Obs.Trace.event "alloc.frags"
      [
        Obs.Trace.i "addr" addr;
        Obs.Trace.i "cg" cg;
        Obs.Trace.i "pref_cg" pref_cg;
        Obs.Trace.i "count" count;
        Obs.Trace.b "fallback" (cg <> pref_cg);
      ];
  addr

(* Return the fragments [addr ..+ frags] of group [cg] to the free
   pool. The pin check and the journal steps are the caller's. *)
let release t ~cg ~addr ~frags =
  let frag = addr - data_base t cg in
  assert (frag >= 0 && frag < Cg.data_frags t.cgs.(cg));
  Obs.Metrics.add metrics "ffs_free_frags_total" frags;
  Cg.free_frags t.cgs.(cg) ~pos:frag ~count:frags

(* Free [entries.(first .. stop - 1)] run-wise: each maximal stretch of
   physically contiguous entries in one group goes to {!Cg.free_frags}
   as one span, so its whole blocks leave the index in one merge. The
   journal still gets one [Data_clear] per entry, in entry order, so
   crash exploration sees the same steps. *)
let free_entry_range t entries ~first ~stop =
  let i = ref first in
  while !i < stop do
    let addr = Inode.addr entries.(!i) in
    let cg = cg_of_global t addr in
    confine (Locks.pinned ()) ~cg;
    let data_end = data_base t cg + Cg.data_frags t.cgs.(cg) in
    let j = ref (!i + 1) and fin = ref (addr + Inode.frags entries.(!i)) in
    while !j < stop && Inode.addr entries.(!j) = !fin && !fin < data_end do
      fin := !fin + Inode.frags entries.(!j);
      incr j
    done;
    if recording t then
      for k = !i to !j - 1 do
        let e = entries.(k) in
        jot t (Journal.Data_clear { addr = Inode.addr e; frags = Inode.frags e })
      done;
    release t ~cg ~addr ~frags:(!fin - addr);
    i := !j
  done

let free_entries t entries = free_entry_range t entries ~first:0 ~stop:(Array.length entries)

(* indirect blocks are rarely adjacent: one span each *)
let free_indirects t addrs =
  Array.iter
    (fun addr ->
      let cg = cg_of_global t addr in
      confine (Locks.pinned ()) ~cg;
      if recording t then jot t (Journal.Data_clear { addr; frags = fpb t });
      release t ~cg ~addr ~frags:(fpb t))
    addrs

(* --- the write walk ----------------------------------------------------- *)

(* Pick the cylinder group for a new indirect-block range: the first
   group after [after_cg] with at least the average number of free
   blocks (the ffs_blkpref policy). *)
let indirect_range_cg t ~after_cg =
  let ncg = t.params.Params.ncg in
  let avg = total_free_blocks t / ncg in
  let rec scan i =
    if i >= ncg then
      (* degenerate: everything below average; take the fullest-free *)
      let best = ref 0 in
      Array.iteri
        (fun i cg -> if Cg.free_block_count cg > Cg.free_block_count t.cgs.(!best) then best := i)
        t.cgs |> ignore;
      !best
    else begin
      let c = (after_cg + 1 + i) mod ncg in
      if Cg.free_block_count t.cgs.(c) >= avg && Cg.free_block_count t.cgs.(c) > 0 then c
      else scan (i + 1)
    end
  in
  scan 0

(* The indirect blocks a file of [nfull] full blocks interposes: one at
   the start of each [nindir]-block range past the direct blocks, plus
   the double-indirect block when the second range starts. *)
let indirects_for params nfull =
  let ndaddr = params.Params.ndaddr and nindir = params.Params.nindir in
  if nfull <= ndaddr then 0
  else ((nfull - ndaddr - 1) / nindir) + 1 + if nfull > ndaddr + nindir then 1 else 0

(* State of the streaming write: the entries and indirect blocks placed
   so far, each in an array of exactly the file's final count, the
   address of the most recently placed block (data or indirect), and
   the open realloc window. *)
type walk = {
  entries : Inode.entry array;
  mutable len : int;  (* entries placed *)
  indirects : int array;
  mutable nind : int;  (* indirect blocks placed *)
  mutable prev : int;  (* [no_prev] before the first block *)
  mutable win_start : int;  (* index into entries of the window start *)
  mutable win_len : int;
  mutable win_cg : int;
}

let unfilled = Inode.entry ~addr:(-1) ~frags:0

let new_walk ~entries ~indirects =
  {
    entries = Array.make entries unfilled;
    len = 0;
    indirects = Array.make indirects 0;
    nind = 0;
    prev = no_prev;
    win_start = 0;
    win_len = 0;
    win_cg = -1;
  }

(* a loop over refs: a local recursion would capture [t] and [walk]
   in a closure per call *)
let window_is_contiguous t walk =
  let i = ref 1 in
  while
    !i < walk.win_len
    && Inode.addr walk.entries.(walk.win_start + !i)
       = Inode.addr walk.entries.(walk.win_start + !i - 1) + fpb t
  do
    incr i
  done;
  !i >= walk.win_len

(* Flush the open realloc window: if its blocks are not already
   physically contiguous, try to move them as one unit into a free
   cluster of the same group (ffs_reallocblks). *)
let flush_window t walk =
  if t.cfg.realloc && walk.win_len >= 2 then begin
    let c = counts t (Locks.pinned ()) in
    c.realloc_attempts <- c.realloc_attempts + 1;
    Obs.Metrics.inc metrics "ffs_realloc_attempts_total";
    if not (window_is_contiguous t walk) then begin
      let cg = walk.win_cg in
      let pref =
        if walk.win_start = 0 then -1
        else begin
          let p = pref_after_block t (Inode.addr walk.entries.(walk.win_start - 1)) in
          if cg_of_global t p = cg then block_in t ~cg p else -1
        end
      in
      let base_block =
        Cg.alloc_cluster_i t.cgs.(cg) ~policy:t.cfg.cluster_policy ~pref ~len:walk.win_len
      in
      if base_block < 0 then begin
        c.realloc_failures <- c.realloc_failures + 1;
        Obs.Metrics.inc metrics "ffs_realloc_failures_total"
      end
      else begin
          c.realloc_moves <- c.realloc_moves + 1;
          Obs.Metrics.inc metrics "ffs_realloc_moves_total";
          Obs.Metrics.add metrics "ffs_realloc_moved_blocks_total" walk.win_len;
          Obs.Heatmap.record heat ~cg Obs.Heatmap.Realloc;
          if Obs.Trace.enabled () then
            Obs.Trace.event "realloc.move"
              [
                Obs.Trace.i "cg" cg;
                Obs.Trace.i "len" walk.win_len;
                Obs.Trace.i "from" (Inode.addr walk.entries.(walk.win_start));
                Obs.Trace.i "to" (global_of_local t ~cg ~frag:(base_block * fpb t));
              ];
          let stop = walk.win_start + walk.win_len in
          free_entry_range t walk.entries ~first:walk.win_start ~stop;
          for k = walk.win_start to stop - 1 do
            let addr = global_of_local t ~cg ~frag:((base_block + k - walk.win_start) * fpb t) in
            walk.entries.(k) <- Inode.entry ~addr ~frags:(Inode.frags walk.entries.(k))
          done;
          walk.prev <- Inode.addr walk.entries.(stop - 1)
      end
    end
  end;
  walk.win_start <- walk.win_start + walk.win_len;
  walk.win_len <- 0;
  walk.win_cg <- -1

(* [cg] is [addr]'s group, which the caller knows *)
let push_block t walk ~cg addr =
  (* a window must stay within one group; close the open one first if
     this block landed elsewhere (win_len does not yet include it) *)
  if walk.win_len > 0 && cg <> walk.win_cg then flush_window t walk;
  walk.entries.(walk.len) <- Inode.entry ~addr ~frags:(fpb t);
  walk.len <- walk.len + 1;
  walk.prev <- addr;
  if walk.win_len = 0 then begin
    walk.win_start <- walk.len - 1;
    walk.win_cg <- cg
  end;
  walk.win_len <- walk.win_len + 1;
  if walk.win_len >= t.params.Params.maxcontig then flush_window t walk

(* How many blocks, from logical block [lbn] on, one preference claim
   in [pref_cg] may take: the blocks a block-at-a-time walk would take
   as consecutive pref hits. It stops at the file's last full block and
   at the next indirect boundary, which switches groups. Under realloc
   it also stops where the open window fills, since that flush may move
   blocks and so change the next preference (a window open in another
   group is flushed before the run's first block lands). A rotational
   gap makes every preference skip a block: one block a claim. *)
let run_cap t walk ~lbn ~nfull ~pref_cg =
  let p = t.params in
  if p.Params.rotdelay_blocks > 0 then 1
  else begin
    let boundary =
      if lbn < p.Params.ndaddr then p.Params.ndaddr
      else lbn + p.Params.nindir - ((lbn - p.Params.ndaddr) mod p.Params.nindir)
    in
    let cap = Int.min nfull boundary - lbn in
    if not t.cfg.realloc then cap
    else begin
      let open_len = if walk.win_len > 0 && walk.win_cg = pref_cg then walk.win_len else 0 in
      Int.min cap (p.Params.maxcontig - open_len)
    end
  end

(* Allocate the data (and indirect blocks) for a file of [size] bytes
   whose inode lives in group [home_cg]. Returns the entry list and
   indirect addresses. On failure, frees everything it had taken and
   raises [Error.Error Out_of_space].

   A free preferred block is claimed together with the free blocks
   behind it ({!Cg.claim_pref_run}, capped by [run_cap]); a taken one
   goes through [alloc_block]'s search. Either way each block gets its
   own bookkeeping, in logical order. *)
let allocate_data t ~home_cg ~size =
  let params = t.params in
  let nfull, tail_frags = Params.blocks_of_size params size in
  let walk =
    new_walk
      ~entries:(nfull + if tail_frags > 0 then 1 else 0)
      ~indirects:(indirects_for params nfull)
  in
  let pin = Locks.pinned () in
  try
    let ndaddr = params.Params.ndaddr in
    let nindir = params.Params.nindir in
    let lbn = ref 0 in
    while !lbn < nfull do
      let at = !lbn in
      (* indirect-block boundary: close the window, move to a new group *)
      if at >= ndaddr && (at - ndaddr) mod nindir = 0 then begin
        (* the range-placement policy reads every group's free count, so
           a pinned domain cannot decide it — defer the whole file *)
        (match pin with
        | Some p -> Error.raise_ (Error.Cross_cg { cg = -1; pinned = p })
        | None -> ());
        flush_window t walk;
        t.stats.indirect_switches <- t.stats.indirect_switches + 1;
        let after_cg = if walk.prev = no_prev then home_cg else cg_of_global t walk.prev in
        let icg = indirect_range_cg t ~after_cg in
        (* the double-indirect block itself, the first time we need it *)
        let n_indirect = if at = ndaddr + nindir then 2 else 1 in
        for _ = 1 to n_indirect do
          let addr = alloc_block t ~pref_cg:icg ~pref_block:0 ~prev:no_prev in
          walk.indirects.(walk.nind) <- addr;
          walk.nind <- walk.nind + 1;
          walk.prev <- addr
        done
      end;
      let pref = if walk.prev = no_prev then data_base t home_cg else pref_after_block t walk.prev in
      let pref_cg = cg_of_global t pref in
      let pref_block = block_in t ~cg:pref_cg pref in
      confine pin ~cg:pref_cg;
      let max = run_cap t walk ~lbn:at ~nfull ~pref_cg in
      let n = Cg.claim_pref_run t.cgs.(pref_cg) ~pref:pref_block ~max in
      if n = 0 then begin
        let addr = alloc_block t ~pref_cg ~pref_block ~prev:walk.prev in
        push_block t walk ~cg:(cg_of_global t addr) addr
      end
      else
        for i = 0 to n - 1 do
          let addr = global_of_local t ~cg:pref_cg ~frag:((pref_block + i) * fpb t) in
          note_block t pin ~pref_cg ~cg:pref_cg ~addr ~contig:(follows t ~prev:walk.prev addr);
          push_block t walk ~cg:pref_cg addr
        done;
      lbn := at + Int.max n 1
    done;
    flush_window t walk;
    if tail_frags > 0 then begin
      (* the tail prefers the fragment right after the last block; when
         that is off the data area, any fragment of the next group (of
         the home group past the volume's end); a file that is only a
         tail, its home group's first fragment *)
      let g = walk.prev + fpb t in
      let pref_frag = if walk.prev = no_prev then 0 else data_local t g in
      let pref_cg =
        if walk.prev = no_prev || g >= t.geo.nfrags then home_cg
        else if pref_frag >= 0 then cg_of_global t g
        else (cg_of_global t g + 1) mod params.Params.ncg
      in
      let addr = alloc_frags t ~pref_cg ~pref_frag ~count:tail_frags in
      walk.entries.(walk.len) <- Inode.entry ~addr ~frags:tail_frags;
      walk.len <- walk.len + 1
    end;
    assert (walk.len = Array.length walk.entries && walk.nind = Array.length walk.indirects);
    (walk.entries, walk.indirects)
  with Error.Error (Error.Out_of_space | Error.Cross_cg _) as exn ->
    (* everything taken so far sits in the pinned group (or, serially,
       wherever it landed) — rollback is always local and safe *)
    free_entry_range t walk.entries ~first:0 ~stop:walk.len;
    free_indirects t (Array.sub walk.indirects 0 walk.nind);
    raise exn

(* --- directories -------------------------------------------------------- *)

let dir_data_frags_for entries = 1 + (entries / 16)

let get_dir t inum =
  match Dirs.find_opt t.dirs inum with
  | Some d -> d
  | None -> Error.raise_ (Error.Not_a_directory { inum })

(* Extend the directory's data by one fragment when its entry count
   crosses a 16-entry boundary (directories never shrink in FFS). *)
let maybe_extend_dir t dir =
  let ino = inode t dir.dir_inum in
  let want = dir_data_frags_for dir.live_entries in
  (* every run holds at least one fragment, so only a run count short
     of [want] can mean too few fragments *)
  if want > Array.length ino.Inode.entries && want > Inode.frag_count ino then begin
    let cg = cg_of_inum t dir.dir_inum in
    let pref =
      match Array.length ino.Inode.entries with
      | 0 -> 0
      | n ->
          let last = ino.Inode.entries.(n - 1) in
          let g = Inode.addr last + Inode.frags last in
          let lcg = if g >= t.geo.nfrags then cg else cg_of_global t g in
          if lcg = cg then g - data_base t cg else -1
    in
    let addr = alloc_frags t ~pref_cg:cg ~pref_frag:pref ~count:1 in
    let ino =
      {
        ino with
        Inode.entries = Array.append ino.Inode.entries [| Inode.entry ~addr ~frags:1 |];
        size = ino.Inode.size + t.params.Params.frag_bytes;
      }
    in
    set_inode t dir.dir_inum (Some ino);
    jot_inode t ino
  end

(* [d], the state of directory [dir], ready for a write: a shared state
   is first cloned into [t.dirs]. Pinned domains never insert into that
   table, so a pinned caller defers instead. *)
let writable_dir t dir d =
  if not (Atomic.get d.shared) then d
  else begin
    unpinned_only ();
    let own = { d with by_name = Names.copy d.by_name; shared = Atomic.make false } in
    Dirs.replace t.dirs dir own;
    own
  end

(* Insert [name] into [d], the state of directory [dir], which the
   caller has already looked up and found without [name]: a create
   probes the directory once. *)
let insert_dir_entry t ~dir d ~name ~inum =
  let d = writable_dir t dir d in
  Names.add d.by_name name inum;
  d.order <- name :: d.order;
  d.live_entries <- d.live_entries + 1;
  set_parent t inum (Some (dir, name));
  (* real write order: the directory grows first, then the new entry's
     block is written — so the extension steps precede the entry step *)
  maybe_extend_dir t d;
  if recording t then jot t (Journal.Dir_add { dir; name; inum })

let add_dir_entry t ~dir ~name ~inum =
  let d = get_dir t dir in
  if Names.mem d.by_name name then Error.raise_ (Error.Name_exists { dir; name });
  insert_dir_entry t ~dir d ~name ~inum

let remove_dir_entry t ~dir ~name =
  let d = get_dir t dir in
  match Names.find_opt d.by_name name with
  | None -> Error.raise_ (Error.No_such_name { dir; name })
  | Some inum ->
      let d = writable_dir t dir d in
      set_parent t inum None;
      Names.remove d.by_name name;
      d.live_entries <- d.live_entries - 1;
      if recording t then jot t (Journal.Dir_remove { dir; name })

(* --- construction ------------------------------------------------------- *)

let make_dir_at t ~cg ~time =
  unpinned_only ();
  match alloc_inode_near t ~cg with
  | None -> Error.raise_ Error.Out_of_space
  | Some inum ->
      (* initial directory data: one fragment in its own group *)
      let addr = alloc_frags t ~pref_cg:(cg_of_inum t inum) ~pref_frag:0 ~count:1 in
      let ino =
        {
          Inode.inum;
          kind = Inode.Dir;
          size = t.params.Params.frag_bytes;
          entries = [| Inode.entry ~addr ~frags:1 |];
          indirect_addrs = [||];
          ctime = time;
          mtime = time;
        }
      in
      set_inode t inum (Some ino);
      Dirs.replace t.dirs inum (new_dir_state inum);
      Cg.add_dir t.cgs.(cg_of_inum t inum);
      jot_inode t ino;
      jot t (Journal.Dir_count { cg = cg_of_inum t inum; delta = 1 });
      inum

let create ?(config = default_config) ?(backend = Store.Heap_backend) params =
  let store = Store.Layout.store_for backend params in
  let regions = Store.Layout.of_params params in
  let t =
    {
      params;
      geo = geometry params;
      store;
      cgs =
        Array.init params.Params.ncg (fun index ->
            Cg.create_in ~store
              ~base:(Store.Layout.region_base regions ~index)
              params ~index);
      shards = Array.init params.Params.ncg (fun _ -> new_shard ());
      dirs = Dirs.create 64;
      cfg = config;
      clock = 0.0;
      root_inum = -1;
      stats = fresh_stats ();
      jrec = None;
    }
  in
  let root = make_dir_at t ~cg:0 ~time:0.0 in
  set_parent t root (Some (root, "/"));
  { t with root_inum = root }

let copy t =
  (* one whole-store blit, then rebind the group views onto the copy.
     The copy is always heap-backed — copies are in-memory twins for
     differential tests and crash exploration, never out-of-core. *)
  let store = Store.heap ~length:(Store.length t.store) in
  Store.blit ~src:t.store ~src_pos:0 ~dst:store ~dst_pos:0 ~len:(Store.length t.store);
  (* both sides keep the directory states, marked shared, until their
     first write of each (see [writable_dir]) *)
  Dirs.iter (fun _ d -> if not (Atomic.get d.shared) then Atomic.set d.shared true) t.dirs;
  {
    t with
    store;
    cgs = Array.map (fun cg -> Cg.rebind cg ~store) t.cgs;
    (* inode records are immutable: the tables are copied, not the records *)
    shards =
      Array.map
        (fun sh ->
          {
            sh with
            inodes = Array.copy sh.inodes;
            parents = Array.copy sh.parents;
            counts = { sh.counts with blocks_allocated = sh.counts.blocks_allocated };
          })
        t.shards;
    dirs = Dirs.copy t.dirs;
    stats = { t.stats with blocks_allocated = t.stats.blocks_allocated };
    jrec = None;
  }

let params t = t.params
let config t = t.cfg
let set_time t time = t.clock <- time
let now t = t.clock
let root t = t.root_inum

(* --- directory API ------------------------------------------------------ *)

(* dirpref: among groups with at least the average number of free
   inodes, the one with the fewest directories. *)
let dirpref t =
  let ncg = t.params.Params.ncg in
  let total_ifree = Array.fold_left (fun acc cg -> acc + Cg.inodes_free cg) 0 t.cgs in
  let avg = total_ifree / ncg in
  let best = ref (-1) in
  for c = 0 to ncg - 1 do
    if Cg.inodes_free t.cgs.(c) >= avg && Cg.inodes_free t.cgs.(c) > 0 then
      if !best < 0 || Cg.dirs t.cgs.(c) < Cg.dirs t.cgs.(!best) then best := c
  done;
  if !best >= 0 then !best
  else begin
    (* everything below average: any group with a free inode *)
    let fallback = ref 0 in
    for c = 0 to ncg - 1 do
      if Cg.inodes_free t.cgs.(c) > Cg.inodes_free t.cgs.(!fallback) then fallback := c
    done;
    !fallback
  end

let mkdir_exn t ~parent ~name =
  let cg = dirpref t in
  let inum = make_dir_at t ~cg ~time:t.clock in
  add_dir_entry t ~dir:parent ~name ~inum;
  inum

let mkdir_in_cg_exn t ~parent ~name ~cg =
  if cg < 0 || cg >= t.params.Params.ncg then
    Error.raise_ (Error.Invalid_cg { cg; ncg = t.params.Params.ncg });
  let inum = make_dir_at t ~cg ~time:t.clock in
  add_dir_entry t ~dir:parent ~name ~inum;
  inum

let lookup t ~dir ~name = Names.find_opt (get_dir t dir).by_name name

let rmdir_exn t ~parent ~name =
  unpinned_only ();
  match lookup t ~dir:parent ~name with
  | None -> Error.raise_ (Error.No_such_name { dir = parent; name })
  | Some inum ->
      let d = get_dir t inum in
      if inum = t.root_inum then Error.raise_ Error.Cannot_remove_root;
      if d.live_entries > 0 then Error.raise_ (Error.Directory_not_empty { inum });
      let ino = inode t inum in
      free_entries t ino.Inode.entries;
      set_inode t inum None;
      Dirs.remove t.dirs inum;
      jot t (Journal.Inode_clear { inum });
      remove_dir_entry t ~dir:parent ~name;
      Cg.remove_dir t.cgs.(cg_of_inum t inum);
      jot t (Journal.Dir_count { cg = cg_of_inum t inum; delta = -1 });
      Cg.free_inode t.cgs.(cg_of_inum t inum) (inum mod ipg t);
      jot t (Journal.Inode_slot_clear { inum })

let dir_entries t inum =
  let d = get_dir t inum in
  (* [order] keeps tombstones of removed names; a name deleted and later
     re-created therefore appears more than once. Deduplicate keeping the
     newest occurrence (the head-most, since [order] is newest-first). *)
  let seen = Names.create 16 in
  d.order
  |> List.filter_map (fun name ->
         if Names.mem seen name then None
         else begin
           Names.add seen name ();
           Names.find_opt d.by_name name |> Option.map (fun inum -> (name, inum))
         end)
  |> List.rev

let parent = find_parent
let dir_of_inum t inum = match find_parent t inum with Some (dir, _) -> dir | None -> raise Not_found

(* --- file API ------------------------------------------------------------ *)

let create_file_at_exn t ~time ~dir ~name ~size =
  let d = get_dir t dir in
  (* the entry table belongs to the directory's group *)
  confine (Locks.pinned ()) ~cg:(cg_of_inum t dir);
  if Names.mem d.by_name name then Error.raise_ (Error.Name_exists { dir; name });
  let home_cg = cg_of_inum t dir in
  match alloc_inode_near t ~cg:home_cg with
  | None -> Error.raise_ Error.Out_of_space
  | Some inum -> (
      let actual_cg = cg_of_inum t inum in
      let allocated = ref None in
      try
        let entries, indirect_addrs = allocate_data t ~home_cg:actual_cg ~size in
        allocated := Some (entries, indirect_addrs);
        let ino =
          { Inode.inum; kind = Inode.File; size; entries; indirect_addrs; ctime = time; mtime = time }
        in
        set_inode t inum (Some ino);
        jot_inode t ino;
        insert_dir_entry t ~dir d ~name ~inum;
        inum
      with Error.Error (Error.Out_of_space | Error.Cross_cg _) as exn ->
        (* unwind exactly the stages reached: the directory entry (the
           dir-extension fragment can fail *after* the entry is in), the
           file data, the inode-table insert, the inode slot.
           [allocate_data] already rolled back its own partial work. The
           entry is looked up afresh: [insert_dir_entry] may have replaced a
           shared [d] with its own clone. *)
        if Names.mem (get_dir t dir).by_name name then remove_dir_entry t ~dir ~name;
        (match !allocated with
        | None -> ()
        | Some (entries, indirects) ->
            free_entries t entries;
            free_indirects t indirects);
        set_inode t inum None;
        Cg.free_inode t.cgs.(actual_cg) (inum mod ipg t);
        jot t (Journal.Inode_slot_clear { inum });
        raise exn)

let create_file_exn t ~dir ~name ~size =
  create_file_at_exn t ~time:t.clock ~dir ~name ~size

let free_file_data t ino =
  free_entries t ino.Inode.entries;
  free_indirects t ino.Inode.indirect_addrs

(* When pinned, refuse (before any mutation) an inode whose data or
   indirect blocks live outside the pinned group — the serial phase owns
   those. Files created by this volume's replay stay in one group, so
   the check only fires on overflow placements. The inum's own group
   was confined before its shard was read. *)
let assert_data_local t ~pin ino =
  let check addr =
    let cg = cg_of_global t addr in
    if cg <> pin then Error.raise_ (Error.Cross_cg { cg; pinned = pin })
  in
  Array.iter (fun e -> check (Inode.addr e)) ino.Inode.entries;
  Array.iter check ino.Inode.indirect_addrs

(* The file inode [inum] names, for [op]. A pinned caller is refused
   an inum of another group before that group's shard is read. *)
let file_inode t ~pin ~op inum =
  confine pin ~cg:(cg_of_inum t inum);
  match find_inode t inum with
  | None -> Error.raise_ (Error.No_such_inode { inum })
  | Some ino ->
      if ino.Inode.kind = Inode.Dir then Error.raise_ (Error.Is_a_directory { inum; op });
      (match pin with Some pin -> assert_data_local t ~pin ino | None -> ());
      ino

let delete_inum_exn t inum =
  let pin = Locks.pinned () in
  let ino = file_inode t ~pin ~op:"delete_inum" inum in
  let parent = find_parent t inum in
  (* the entry to remove lives in its directory's group, and a shared
     directory defers a pinned caller: both before any mutation *)
  (match parent with
  | Some (dir, _) ->
      confine pin ~cg:(cg_of_inum t dir);
      if Option.is_some pin then
        Option.iter (fun d -> ignore (writable_dir t dir d)) (Dirs.find_opt t.dirs dir)
  | None -> ());
  free_file_data t ino;
  set_inode t inum None;
  if recording t then jot t (Journal.Inode_clear { inum });
  (match parent with Some (dir, name) -> remove_dir_entry t ~dir ~name | None -> ());
  Cg.free_inode t.cgs.(cg_of_inum t inum) (inum mod ipg t);
  if recording t then jot t (Journal.Inode_slot_clear { inum })

let delete_file_exn t ~dir ~name =
  match lookup t ~dir ~name with
  | None -> Error.raise_ (Error.No_such_name { dir; name })
  | Some inum -> delete_inum_exn t inum

let rewrite_file_at_exn t ~time ~inum ~size =
  (* pinned: refused before freeing anything if the old data strays
     outside the group. (Allocation below may still defer after the
     free — that partial state is deterministic, and the serial retry
     simply allocates for the now-empty file.) *)
  let ino = file_inode t ~pin:(Locks.pinned ()) ~op:"rewrite_file" inum in
  free_file_data t ino;
  let entries, indirect_addrs =
    try allocate_data t ~home_cg:(cg_of_inum t inum) ~size
    with Error.Error _ as exn ->
      (* the truncation stands: the file is left empty *)
      set_inode t inum (Some { ino with Inode.size = 0; entries = [||]; indirect_addrs = [||] });
      raise exn
  in
  let ino = { ino with Inode.size; entries; indirect_addrs; mtime = time } in
  set_inode t inum (Some ino);
  jot_inode t ino

let rewrite_file_exn t ~inum ~size = rewrite_file_at_exn t ~time:t.clock ~inum ~size

let file_exists t inum =
  match find_inode t inum with Some i -> i.Inode.kind = Inode.File | None -> false

(* shards in ascending group order, slots ascending: inum order *)
let iter_all_inodes t f =
  Array.iter (fun sh -> Array.iter (function Some ino -> f ino | None -> ()) sh.inodes) t.shards

let iter_files t f = iter_all_inodes t (fun ino -> if ino.Inode.kind = Inode.File then f ino)

let fold_files t ~init ~f =
  let acc = ref init in
  iter_files t (fun ino -> acc := f !acc ino);
  !acc

let file_count t = fold_files t ~init:0 ~f:(fun acc _ -> acc + 1)
let dir_inums t = Dirs.fold (fun inum _ acc -> inum :: acc) t.dirs []

(* --- space accounting ---------------------------------------------------- *)

let total_data_frags t = Array.fold_left (fun acc cg -> acc + Cg.data_frags cg) 0 t.cgs
let free_data_frags t = Array.fold_left (fun acc cg -> acc + Cg.free_frag_count cg) 0 t.cgs
let used_data_frags t = total_data_frags t - free_data_frags t
let utilization t = float_of_int (used_data_frags t) /. float_of_int (total_data_frags t)
let cg_states t = t.cgs

(* --- repair plumbing ------------------------------------------------------ *)

let detach_entry_exn t ~dir ~name =
  unpinned_only ();
  remove_dir_entry t ~dir ~name

let attach_entry_exn t ~dir ~name ~inum =
  unpinned_only ();
  add_dir_entry t ~dir ~name ~inum

let forget_inode_exn t inum =
  unpinned_only ();
  match find_inode t inum with
  | None -> Error.raise_ (Error.No_such_inode { inum })
  | Some ino ->
      if ino.Inode.kind = Inode.Dir then
        Error.raise_ (Error.Is_a_directory { inum; op = "forget_inode" });
      set_inode t inum None

let rebuild_allocation t =
  Array.iter Cg.reset t.cgs;
  iter_all_inodes t (fun ino ->
      let inum = ino.Inode.inum in
      let cg = cg_of_inum t inum in
      Cg.mark_inode_used t.cgs.(cg) (inum mod ipg t);
      let mark addr frags =
        let cg, frag = local_of_global t addr in
        Cg.mark_frags_used t.cgs.(cg) ~pos:frag ~count:frags
      in
      Array.iter (fun e -> mark (Inode.addr e) (Inode.frags e)) ino.Inode.entries;
      Array.iter (fun a -> mark a (fpb t)) ino.Inode.indirect_addrs);
  Dirs.iter
    (fun inum _ ->
      if Option.is_some (find_inode t inum) then
        Cg.add_dir t.cgs.(cg_of_inum t inum))
    t.dirs;
  rebuild_layout_counts t

(* --- portable form --------------------------------------------------------- *)

(* The fs's canonical serialisation: geometry, config, clock, counters,
   each group's {!Cg.portable} (raw bitmap bytes + counters, no derived
   indexes), and the logical tables flattened to sorted association
   lists. The form is independent of the storage backend and of
   hashtable internals, so a digest of it is canonical; checkpoints and
   aged images persist exactly this. *)
type portable_dir = {
  pd_inum : int;
  pd_names : (string * int) list;  (* sorted by name *)
  pd_order : string list;
  pd_live : int;
}

(* A run and an inode as the portable form keeps them: the records
   they were before runs were packed into ints, field for field, so
   images, checkpoints and digest parts marshal to the same bytes. *)
type portable_run = { addr : int; frags : int }

type portable_inode = {
  pi_inum : int;
  pi_kind : Inode.kind;
  pi_size : int;
  pi_entries : portable_run array;
  pi_indirect_addrs : int array;
  pi_ctime : float;
  pi_mtime : float;
}

type portable = {
  pf_params : Params.t;
  pf_config : config;
  pf_clock : float;
  pf_root : int;
  pf_stats : stats;
  pf_cgs : Cg.portable array;
  pf_inodes : (int * portable_inode) list;  (* sorted by inum *)
  pf_dirs : (int * portable_dir) list;  (* sorted by inum *)
  pf_parents : (int * (int * string)) list;  (* sorted by inum *)
}

let sorted_keys h = Dirs.fold (fun k _ acc -> k :: acc) h [] |> List.sort Int.compare

(* every filled slot of one table across the shards, as (inum, value)
   pairs in inum order *)
let shard_bindings t table =
  let acc = ref [] in
  for g = Array.length t.shards - 1 downto 0 do
    let slots = table t.shards.(g) in
    for s = Array.length slots - 1 downto 0 do
      match slots.(s) with Some v -> acc := ((g * ipg t) + s, v) :: !acc | None -> ()
    done
  done;
  !acc

(* The float fields are copied as the pointers they are, so a record
   whose two times share one box keeps sharing it, as Marshal saw it. *)
let portable_inode (ino : Inode.t) =
  {
    pi_inum = ino.inum;
    pi_kind = ino.kind;
    pi_size = ino.size;
    pi_entries =
      Array.map (fun e -> { addr = Inode.addr e; frags = Inode.frags e }) ino.entries;
    pi_indirect_addrs = ino.indirect_addrs;
    pi_ctime = ino.ctime;
    pi_mtime = ino.mtime;
  }

let inode_of_portable pi =
  let entry r =
    if r.frags < 0 || r.frags > 15 then
      Error.raise_
        (Error.Corrupt
           (Fmt.str "portable image: inode %d has a run of %d fragments" pi.pi_inum r.frags));
    let e = Inode.entry ~addr:r.addr ~frags:r.frags in
    if Inode.addr e <> r.addr then
      Error.raise_
        (Error.Corrupt
           (Fmt.str "portable image: inode %d has a run address %d out of range" pi.pi_inum
              r.addr));
    e
  in
  {
    Inode.inum = pi.pi_inum;
    kind = pi.pi_kind;
    size = pi.pi_size;
    entries = Array.map entry pi.pi_entries;
    indirect_addrs = pi.pi_indirect_addrs;
    ctime = pi.pi_ctime;
    mtime = pi.pi_mtime;
  }

let to_portable t =
  {
    pf_params = t.params;
    pf_config = t.cfg;
    pf_clock = t.clock;
    pf_root = t.root_inum;
    pf_stats = stats t;
    pf_cgs = Array.map Cg.to_portable t.cgs;
    pf_inodes =
      List.map (fun (inum, ino) -> (inum, portable_inode ino)) (shard_bindings t (fun sh -> sh.inodes));
    pf_dirs =
      List.map
        (fun dnum ->
          let d = Dirs.find t.dirs dnum in
          let names =
            Names.fold (fun name inum acc -> (name, inum) :: acc) d.by_name []
            |> List.sort compare
          in
          ( dnum,
            { pd_inum = d.dir_inum; pd_names = names; pd_order = d.order; pd_live = d.live_entries } ))
        (sorted_keys t.dirs);
    pf_parents = shard_bindings t (fun sh -> sh.parents);
  }

let of_portable ?(backend = Store.Heap_backend) p =
  let params = p.pf_params in
  let store = Store.Layout.store_for backend params in
  let regions = Store.Layout.of_params params in
  let cgs =
    Array.map
      (fun cp ->
        Cg.of_portable_into ~store
          ~base:(Store.Layout.region_base regions ~index:cp.Cg.p_index)
          params cp)
      p.pf_cgs
  in
  let dirs = Dirs.create (max 64 (List.length p.pf_dirs)) in
  List.iter
    (fun (dnum, pd) ->
      let by_name = Names.create 16 in
      List.iter (fun (name, inum) -> Names.replace by_name name inum) pd.pd_names;
      Dirs.replace dirs dnum
        {
          dir_inum = pd.pd_inum;
          by_name;
          order = pd.pd_order;
          live_entries = pd.pd_live;
          shared = Atomic.make false;
        })
    p.pf_dirs;
  (* loading wrote every byte, so a checksummed store's dirty map is
     all-set: the next sync acknowledges every chunk *)
  let t =
    {
      params;
      geo = geometry params;
      store;
      cgs;
      shards = Array.init params.Params.ncg (fun _ -> new_shard ());
      dirs;
      cfg = p.pf_config;
      clock = p.pf_clock;
      root_inum = p.pf_root;
      stats = { p.pf_stats with blocks_allocated = p.pf_stats.blocks_allocated };
      jrec = None;
    }
  in
  let in_range what inum =
    if not (inum_in_range t inum) then
      Error.raise_ (Error.Corrupt (Fmt.str "portable image: %s %d out of range" what inum))
  in
  List.iter
    (fun (inum, pi) ->
      in_range "inode" inum;
      set_inode t inum (Some (inode_of_portable pi)))
    p.pf_inodes;
  List.iter
    (fun (inum, v) ->
      in_range "parent of inode" inum;
      set_parent t inum (Some v))
    p.pf_parents;
  t

(* --- canonical digest ------------------------------------------------------ *)

(* A digest of the fs's logical content that is independent of hashtable
   internals and of the storage backend: two file systems that agree on
   every inode, directory, group image and counter hash identically even
   when their tables were populated in different orders (exactly what
   parallel aging produces) or their bytes live in different backends
   (exactly what the backend differential suite pins). Raw [Marshal] of
   [t] would have neither property. Each part hashes its items'
   marshalled bytes in place, from one growable buffer allocated per
   call: digests run on several pool domains at once, and a buffer kept
   between calls would pin the largest part's bytes for the life of the
   process. *)
let digest_parts_of_portable p =
  let buf = ref (Bytes.create (1 lsl 16)) in
  let part name fill =
    let len = ref 0 in
    let rec add v =
      match Marshal.to_buffer !buf !len (Bytes.length !buf - !len) v [] with
      | n -> len := !len + n
      | exception Failure _ ->
          let bigger = Bytes.create (2 * Bytes.length !buf) in
          Bytes.blit !buf 0 bigger 0 !len;
          buf := bigger;
          add v
    in
    fill add;
    (name, Digest.to_hex (Digest.subbytes !buf 0 !len))
  in
  [
    part "header" (fun add -> add (p.pf_params, p.pf_config, p.pf_clock, p.pf_root));
    part "stats" (fun add ->
        add
          ( p.pf_stats.blocks_allocated,
            p.pf_stats.frags_allocated,
            p.pf_stats.contiguous_allocations,
            p.pf_stats.cg_fallbacks,
            p.pf_stats.realloc_attempts,
            p.pf_stats.realloc_moves,
            p.pf_stats.realloc_failures,
            p.pf_stats.indirect_switches ));
    part "cgs" (fun add -> Array.iter add p.pf_cgs);
    part "inodes" (fun add -> List.iter add p.pf_inodes);
    part "dirs" (fun add ->
        List.iter
          (fun (_, d) -> add (d.pd_inum, d.pd_names, d.pd_order, d.pd_live))
          p.pf_dirs);
    part "parents" (fun add -> add p.pf_parents);
  ]

let digest_of_parts parts =
  Digest.to_hex (Digest.string (String.concat ";" (List.map (fun (_, d) -> d) parts)))

let digest_parts t = digest_parts_of_portable (to_portable t)
let digest_portable p = digest_of_parts (digest_parts_of_portable p)
let digest t = digest_of_parts (digest_parts t)

(* --- storage backend ------------------------------------------------------- *)

let store t = t.store
let backend_name t = Store.repr_name t.store
let sync t = Store.sync t.store

(* --- crash-state materialisation ------------------------------------------ *)

(* Replay one recorded write onto an image as the raw disk write it
   models: single-structure, no coordinated bookkeeping, tolerant of the
   inconsistent surroundings a torn operation leaves (Check.repair
   rebuilds all bitmaps and counters from the inode table's claims, so
   the bitmap/counter halves only need to land, not to balance). *)
let apply_step t step =
  match step with
  | Journal.Data_set { addr; frags } ->
      let cg, frag = local_of_global t addr in
      for i = 0 to frags - 1 do
        Cg.corrupt_set_frag t.cgs.(cg) (frag + i)
      done
  | Journal.Data_clear { addr; frags } ->
      let cg, frag = local_of_global t addr in
      for i = 0 to frags - 1 do
        Cg.corrupt_clear_frag t.cgs.(cg) (frag + i)
      done
  | Journal.Inode_slot_set { inum } ->
      Cg.corrupt_set_inode t.cgs.(cg_of_inum t inum) (inum mod ipg t)
  | Journal.Inode_slot_clear { inum } ->
      Cg.corrupt_clear_inode t.cgs.(cg_of_inum t inum) (inum mod ipg t)
  | Journal.Inode_write { ino } ->
      (* many crash states install the same recorded record: it is
         immutable, so they may share it *)
      set_inode t ino.Inode.inum (Some ino);
      if ino.Inode.kind = Inode.Dir && not (Dirs.mem t.dirs ino.Inode.inum) then
        Dirs.replace t.dirs ino.Inode.inum (new_dir_state ino.Inode.inum)
  | Journal.Inode_clear { inum } ->
      set_inode t inum None;
      Dirs.remove t.dirs inum
  | Journal.Dir_add { dir; name; inum } -> (
      match Dirs.find_opt t.dirs dir with
      | None -> ()  (* the directory's own inode write was lost *)
      | Some d ->
          if not (Names.mem d.by_name name) then begin
            let d = writable_dir t dir d in
            Names.replace d.by_name name inum;
            d.order <- name :: d.order;
            d.live_entries <- d.live_entries + 1
          end;
          set_parent t inum (Some (dir, name)))
  | Journal.Dir_remove { dir; name } -> (
      match Dirs.find_opt t.dirs dir with
      | None -> ()
      | Some d -> (
          match Names.find_opt d.by_name name with
          | None -> ()
          | Some inum ->
              let d = writable_dir t dir d in
              Names.remove d.by_name name;
              d.live_entries <- d.live_entries - 1;
              set_parent t inum None))
  | Journal.Dir_count { cg; delta } -> Cg.corrupt_adjust_dirs t.cgs.(cg) delta

let apply_journal t steps = List.iter (apply_step t) steps

(* --- result-returning primaries ------------------------------------------ *)

let create_file t ~dir ~name ~size =
  Error.guard (fun () -> create_file_exn t ~dir ~name ~size)

let delete_file t ~dir ~name = Error.guard (fun () -> delete_file_exn t ~dir ~name)
let rewrite_file t ~inum ~size = Error.guard (fun () -> rewrite_file_exn t ~inum ~size)
