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

type dir_state = {
  dir_inum : int;
  by_name : (string, int) Hashtbl.t;
  mutable order : string list;  (* reverse insertion order *)
  mutable live_entries : int;
}

type t = {
  params : Params.t;
  store : Store.t;
      (* the volume's persisted metadata bytes (every cg's bitmaps);
         chunk index = cg index, so [Store.dirty_chunks] is the delta
         checkpoint's work list *)
  cgs : Cg.t array;
  inodes : (int, Inode.t) Hashtbl.t;
  dirs : (int, dir_state) Hashtbl.t;
  parents : (int, int * string) Hashtbl.t;  (* inum -> (parent dir inum, name) *)
  mutable cfg : config;
  mutable clock : float;
  root_inum : int;
  stats : stats;
  mutable jrec : Journal.step list ref option;
      (* crash-exploration journal: when set, every metadata write is
         also recorded (reverse order) — see [record_journal] *)
}

(* Record one journal step if a recording is open (one option check per
   metadata write otherwise — the aging hot path stays unaffected). *)
let jot t step = match t.jrec with Some r -> r := step :: !r | None -> ()

let record_journal t f =
  assert (t.jrec = None);
  let r = ref [] in
  t.jrec <- Some r;
  Fun.protect
    ~finally:(fun () -> t.jrec <- None)
    (fun () ->
      let v = f () in
      (v, List.rev !r))

(* Deep snapshot: journal steps outlive the operation, and the live
   inode's arrays keep mutating after the step is recorded. *)
let snapshot_inode ino =
  {
    ino with
    Inode.entries = Array.copy ino.Inode.entries;
    indirect_addrs = Array.copy ino.Inode.indirect_addrs;
  }

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
let ipg t = Params.inodes_per_group t.params

(* global fragment address of local data fragment [f] in group [cg] *)
let global_of_local t ~cg ~frag = Params.data_base t.params cg + frag

let cg_of_global t addr = Params.group_of_frag t.params addr

let local_of_global t addr =
  let cg = cg_of_global t addr in
  let frag = addr - Params.data_base t.params cg in
  assert (frag >= 0 && frag < Cg.data_frags t.cgs.(cg));
  (cg, frag)

let cg_of_inum t inum = inum / ipg t

(* --- inode allocation --------------------------------------------------- *)

let alloc_inode_near t ~cg =
  let ncg = t.params.Params.ncg in
  let try_cg c =
    match Cg.alloc_inode t.cgs.(c) with
    | Some local ->
        Obs.Metrics.inc metrics "ffs_alloc_inodes_total";
        let inum = (c * ipg t) + local in
        jot t (Journal.Inode_slot_set { inum });
        Some inum
    | None -> None
  in
  match Locks.pinned () with
  | Some p ->
      (* pinned domains may only touch their own group; a full group
         means the serial phase must place this inode (the overflow
         search reads every group) *)
      if cg <> p then Error.raise_ (Error.Cross_cg { cg; pinned = p });
      (match try_cg p with
      | Some _ as r -> r
      | None -> Error.raise_ (Error.Cross_cg { cg = -1; pinned = p }))
  | None -> (
      let rec quadratic c i =
        if i >= ncg then None
        else begin
          let c = (c + i) mod ncg in
          match try_cg c with Some _ as r -> r | None -> quadratic c (i * 2)
        end
      in
      let rec brute c i =
        if i >= ncg then None
        else
          match try_cg (c mod ncg) with Some _ as r -> r | None -> brute (c + 1) (i + 1)
      in
      match try_cg cg with
      | Some _ as r -> r
      | None -> (
          match quadratic cg 1 with Some _ as r -> r | None -> brute (cg + 2) 2))

(* --- block and fragment allocation ------------------------------------- *)

(* total free blocks across the file system (27 groups: cheap to sum) *)
let total_free_blocks t = Array.fold_left (fun acc cg -> acc + Cg.free_block_count cg) 0 t.cgs

(* [hashalloc t ~cg ~f] is the FFS cylinder-group overflow discipline:
   the preferred group, then quadratic rehash, then brute force. [f] gets
   the group index and must return [None] to mean "nothing here". *)
let hashalloc t ~cg ~f =
  (match Locks.pinned () with
  | Some p ->
      (* confine the search to the pinned group: a foreign preference or
         an overflow both mean "needs the whole volume" — defer *)
      if cg <> p then Error.raise_ (Error.Cross_cg { cg; pinned = p })
  | None -> ());
  let ncg = t.params.Params.ncg in
  match f cg with
  | Some _ as r -> r
  | None when Locks.pinned () <> None ->
      Error.raise_ (Error.Cross_cg { cg = -1; pinned = cg })
  | None ->
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
      let result =
        match quadratic cg 1 with Some _ as r -> r | None -> brute (cg + 2) 2
      in
      (match result with
      | Some _ ->
          t.stats.cg_fallbacks <- t.stats.cg_fallbacks + 1;
          Obs.Metrics.inc metrics "ffs_alloc_cg_fallbacks_total"
      | None -> ());
      result

(* Preference for the block following global address [prev]: the next
   block slot, which may fall past the end of the group's data area — in
   which case prefer the start of the next group. *)
let pref_after_block t prev =
  (* rotdelay leaves a gap of whole blocks between a file's consecutive
     blocks (0 on the paper's system: its drive has a track buffer) *)
  let g = prev + (fpb t * (1 + t.params.Params.rotdelay_blocks)) in
  if g >= Params.total_frags t.params then (0, Some 0)
  else begin
    let cg = cg_of_global t g in
    let local = g - Params.data_base t.params cg in
    if local < 0 || local >= Cg.data_frags t.cgs.(cg) then ((cg + 1) mod t.params.Params.ncg, Some 0)
    else (cg, Some (local / fpb t))
  end

let alloc_block t ~pref_cg ~pref_block ~prev =
  let alloc c =
    let pref = if c = pref_cg then pref_block else None in
    Cg.alloc_block t.cgs.(c) ~pref
    |> Option.map (fun b -> global_of_local t ~cg:c ~frag:(b * fpb t))
  in
  match hashalloc t ~cg:pref_cg ~f:alloc with
  | None -> Error.raise_ Error.Out_of_space
  | Some addr ->
      let contig =
        match prev with Some p -> addr = p + fpb t | None -> false
      in
      (* fs-wide counters are superblock state: global-lock leaf when a
         pinned domain is running, a plain store otherwise *)
      Locks.globally (fun () ->
          t.stats.blocks_allocated <- t.stats.blocks_allocated + 1;
          if contig then
            t.stats.contiguous_allocations <- t.stats.contiguous_allocations + 1);
      let cg = cg_of_global t addr in
      jot t (Journal.Data_set { addr; frags = fpb t });
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
          ];
      addr

let alloc_frags t ~pref_cg ~pref_frag ~count =
  let alloc c =
    let pref = if c = pref_cg then pref_frag else None in
    Cg.alloc_frags t.cgs.(c) ~pref ~count
    |> Option.map (fun f -> global_of_local t ~cg:c ~frag:f)
  in
  match hashalloc t ~cg:pref_cg ~f:alloc with
  | None -> Error.raise_ Error.Out_of_space
  | Some addr ->
      Locks.globally (fun () ->
          t.stats.frags_allocated <- t.stats.frags_allocated + count);
      let cg = cg_of_global t addr in
      jot t (Journal.Data_set { addr; frags = count });
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

let free_run t ~addr ~frags =
  let cg, frag = local_of_global t addr in
  (match Locks.pinned () with
  | Some p when cg <> p -> Error.raise_ (Error.Cross_cg { cg; pinned = p })
  | _ -> ());
  jot t (Journal.Data_clear { addr; frags });
  Obs.Metrics.add metrics "ffs_free_frags_total" frags;
  Cg.free_frags t.cgs.(cg) ~pos:frag ~count:frags

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

(* State of the streaming write: entries so far, the address of the most
   recently placed block (data or indirect), and the open realloc
   window. *)
type walk = {
  entries : Inode.entry Util.Vec.t;
  indirects : int Util.Vec.t;
  mutable prev : int option;
  mutable win_start : int;  (* index into entries of the window start *)
  mutable win_len : int;
  mutable win_cg : int;
}

let new_walk () =
  {
    entries = Util.Vec.create ();
    indirects = Util.Vec.create ();
    prev = None;
    win_start = 0;
    win_len = 0;
    win_cg = -1;
  }

let window_is_contiguous t walk =
  let rec loop i =
    if i >= walk.win_len then true
    else begin
      let a = (Util.Vec.get walk.entries (walk.win_start + i - 1)).Inode.addr in
      let b = (Util.Vec.get walk.entries (walk.win_start + i)).Inode.addr in
      b = a + fpb t && loop (i + 1)
    end
  in
  loop 1

(* Flush the open realloc window: if its blocks are not already
   physically contiguous, try to move them as one unit into a free
   cluster of the same group (ffs_reallocblks). *)
let flush_window t walk =
  if t.cfg.realloc && walk.win_len >= 2 then begin
    Locks.globally (fun () ->
        t.stats.realloc_attempts <- t.stats.realloc_attempts + 1);
    Obs.Metrics.inc metrics "ffs_realloc_attempts_total";
    if not (window_is_contiguous t walk) then begin
      let cg = walk.win_cg in
      let pref =
        if walk.win_start = 0 then None
        else begin
          let before = (Util.Vec.get walk.entries (walk.win_start - 1)).Inode.addr in
          let pcg, pblock = pref_after_block t before in
          if pcg = cg then pblock else None
        end
      in
      match
        Cg.alloc_cluster t.cgs.(cg) ~policy:t.cfg.cluster_policy ~pref ~len:walk.win_len
      with
      | None ->
          Locks.globally (fun () ->
              t.stats.realloc_failures <- t.stats.realloc_failures + 1);
          Obs.Metrics.inc metrics "ffs_realloc_failures_total"
      | Some base_block ->
          Locks.globally (fun () ->
              t.stats.realloc_moves <- t.stats.realloc_moves + 1);
          Obs.Metrics.inc metrics "ffs_realloc_moves_total";
          Obs.Metrics.add metrics "ffs_realloc_moved_blocks_total" walk.win_len;
          Obs.Heatmap.record heat ~cg Obs.Heatmap.Realloc;
          if Obs.Trace.enabled () then
            Obs.Trace.event "realloc.move"
              [
                Obs.Trace.i "cg" cg;
                Obs.Trace.i "len" walk.win_len;
                Obs.Trace.i "from"
                  (Util.Vec.get walk.entries walk.win_start).Inode.addr;
                Obs.Trace.i "to" (global_of_local t ~cg ~frag:(base_block * fpb t));
              ];
          for i = 0 to walk.win_len - 1 do
            let idx = walk.win_start + i in
            let old = Util.Vec.get walk.entries idx in
            free_run t ~addr:old.Inode.addr ~frags:old.Inode.frags;
            let addr = global_of_local t ~cg ~frag:((base_block + i) * fpb t) in
            Util.Vec.set walk.entries idx { old with Inode.addr }
          done;
          let last = Util.Vec.get walk.entries (walk.win_start + walk.win_len - 1) in
          walk.prev <- Some last.Inode.addr
    end
  end;
  walk.win_start <- walk.win_start + walk.win_len;
  walk.win_len <- 0;
  walk.win_cg <- -1

let push_block t walk addr =
  let cg = cg_of_global t addr in
  (* a window must stay within one group; close the open one first if
     this block landed elsewhere (win_len does not yet include it) *)
  if walk.win_len > 0 && cg <> walk.win_cg then flush_window t walk;
  Util.Vec.push walk.entries { Inode.addr; frags = fpb t };
  walk.prev <- Some addr;
  if walk.win_len = 0 then begin
    walk.win_start <- Util.Vec.length walk.entries - 1;
    walk.win_cg <- cg
  end;
  walk.win_len <- walk.win_len + 1;
  if walk.win_len >= t.params.Params.maxcontig then flush_window t walk

(* Allocate the data (and indirect blocks) for a file of [size] bytes
   whose inode lives in group [home_cg]. Returns the entry list and
   indirect addresses. On failure, frees everything it had taken and
   raises [Error.Error Out_of_space]. *)
let allocate_data t ~home_cg ~size =
  let params = t.params in
  let nfull, tail_frags = Params.blocks_of_size params size in
  let walk = new_walk () in
  let rollback () =
    Util.Vec.iter (fun e -> free_run t ~addr:e.Inode.addr ~frags:e.Inode.frags) walk.entries;
    Util.Vec.iter (fun a -> free_run t ~addr:a ~frags:(fpb t)) walk.indirects
  in
  try
    let ndaddr = params.Params.ndaddr in
    let nindir = params.Params.nindir in
    for lbn = 0 to nfull - 1 do
      (* indirect-block boundary: close the window, move to a new group *)
      if lbn >= ndaddr && (lbn - ndaddr) mod nindir = 0 then begin
        (* the range-placement policy reads every group's free count, so
           a pinned domain cannot decide it — defer the whole file *)
        (match Locks.pinned () with
        | Some p -> Error.raise_ (Error.Cross_cg { cg = -1; pinned = p })
        | None -> ());
        flush_window t walk;
        t.stats.indirect_switches <- t.stats.indirect_switches + 1;
        let after_cg =
          match walk.prev with Some p -> cg_of_global t p | None -> home_cg
        in
        let icg = indirect_range_cg t ~after_cg in
        (* the double-indirect block itself, the first time we need it *)
        let n_indirect = if lbn = ndaddr + nindir then 2 else 1 in
        for _ = 1 to n_indirect do
          let addr = alloc_block t ~pref_cg:icg ~pref_block:(Some 0) ~prev:None in
          Util.Vec.push walk.indirects addr;
          walk.prev <- Some addr
        done
      end;
      let pref_cg, pref_block =
        match walk.prev with
        | Some p -> pref_after_block t p
        | None -> (home_cg, Some 0)
      in
      let addr = alloc_block t ~pref_cg ~pref_block ~prev:walk.prev in
      push_block t walk addr
    done;
    flush_window t walk;
    if tail_frags > 0 then begin
      let pref_cg, pref_frag =
        match walk.prev with
        | Some p ->
            let g = p + fpb t in
            if g >= Params.total_frags params then (home_cg, None)
            else begin
              let cg = cg_of_global t g in
              let local = g - Params.data_base params cg in
              if local < 0 || local >= Cg.data_frags t.cgs.(cg) then
                ((cg + 1) mod params.Params.ncg, None)
              else (cg, Some local)
            end
        | None -> (home_cg, Some 0)
      in
      let addr = alloc_frags t ~pref_cg ~pref_frag ~count:tail_frags in
      Util.Vec.push walk.entries { Inode.addr; frags = tail_frags }
    end;
    (Util.Vec.to_array walk.entries, Util.Vec.to_array walk.indirects)
  with Error.Error (Error.Out_of_space | Error.Cross_cg _) as exn ->
    (* everything taken so far sits in the pinned group (or, serially,
       wherever it landed) — rollback is always local and safe *)
    rollback ();
    raise exn

(* --- directories -------------------------------------------------------- *)

let dir_data_frags_for entries = 1 + (entries / 16)

let get_dir t inum =
  match Hashtbl.find_opt t.dirs inum with
  | Some d -> d
  | None -> Error.raise_ (Error.Not_a_directory { inum })

(* Extend the directory's data by one fragment when its entry count
   crosses a 16-entry boundary (directories never shrink in FFS). *)
let maybe_extend_dir t dir =
  let ino = Locks.globally (fun () -> Hashtbl.find t.inodes dir.dir_inum) in
  let have = Inode.frag_count ino in
  let want = dir_data_frags_for dir.live_entries in
  if want > have then begin
    let cg = cg_of_inum t dir.dir_inum in
    let pref =
      match Array.length ino.Inode.entries with
      | 0 -> Some 0
      | n ->
          let last = ino.Inode.entries.(n - 1) in
          let g = last.Inode.addr + last.Inode.frags in
          let lcg = if g >= Params.total_frags t.params then cg else cg_of_global t g in
          if lcg = cg then Some (g - Params.data_base t.params cg) else None
    in
    let addr = alloc_frags t ~pref_cg:cg ~pref_frag:pref ~count:1 in
    ino.Inode.entries <- Array.append ino.Inode.entries [| { Inode.addr; frags = 1 } |];
    ino.Inode.size <- ino.Inode.size + t.params.Params.frag_bytes;
    jot t (Journal.Inode_write { ino = snapshot_inode ino })
  end

let add_dir_entry t ~dir ~name ~inum =
  let d = get_dir t dir in
  if Hashtbl.mem d.by_name name then Error.raise_ (Error.Name_exists { dir; name });
  Hashtbl.replace d.by_name name inum;
  d.order <- name :: d.order;
  d.live_entries <- d.live_entries + 1;
  (* [t.parents] is shared across groups (the per-dir tables are not:
     each directory belongs to exactly one group's batch) *)
  Locks.globally (fun () -> Hashtbl.replace t.parents inum (dir, name));
  (* real write order: the directory grows first, then the new entry's
     block is written — so the extension steps precede the entry step *)
  maybe_extend_dir t d;
  jot t (Journal.Dir_add { dir; name; inum })

let remove_dir_entry t ~dir ~name =
  let d = get_dir t dir in
  (match Hashtbl.find_opt d.by_name name with
  | None -> Error.raise_ (Error.No_such_name { dir; name })
  | Some inum -> Locks.globally (fun () -> Hashtbl.remove t.parents inum));
  Hashtbl.remove d.by_name name;
  d.live_entries <- d.live_entries - 1;
  jot t (Journal.Dir_remove { dir; name })

(* --- construction ------------------------------------------------------- *)

let make_dir_at t ~cg ~time =
  match alloc_inode_near t ~cg with
  | None -> Error.raise_ Error.Out_of_space
  | Some inum ->
      let ino = Inode.v ~inum ~kind:Inode.Dir ~time in
      (* initial directory data: one fragment in its own group *)
      let addr = alloc_frags t ~pref_cg:(cg_of_inum t inum) ~pref_frag:(Some 0) ~count:1 in
      ino.Inode.entries <- [| { Inode.addr; frags = 1 } |];
      ino.Inode.size <- t.params.Params.frag_bytes;
      Hashtbl.replace t.inodes inum ino;
      Hashtbl.replace t.dirs inum
        { dir_inum = inum; by_name = Hashtbl.create 16; order = []; live_entries = 0 };
      Cg.add_dir t.cgs.(cg_of_inum t inum);
      jot t (Journal.Inode_write { ino = snapshot_inode ino });
      jot t (Journal.Dir_count { cg = cg_of_inum t inum; delta = 1 });
      inum

let create ?(config = default_config) ?(backend = Store.Heap_backend) params =
  let store = Store.Layout.store_for backend params in
  let regions = Store.Layout.of_params params in
  let t =
    {
      params;
      store;
      cgs =
        Array.init params.Params.ncg (fun index ->
            Cg.create_in ~store
              ~base:(Store.Layout.region_base regions ~index)
              params ~index);
      inodes = Hashtbl.create 1024;
      dirs = Hashtbl.create 64;
      parents = Hashtbl.create 1024;
      cfg = config;
      clock = 0.0;
      root_inum = -1;
      stats = fresh_stats ();
      jrec = None;
    }
  in
  let root = make_dir_at t ~cg:0 ~time:0.0 in
  Hashtbl.replace t.parents root (root, "/");
  { t with root_inum = root }

let copy t =
  (* one whole-store blit, then rebind the group views onto the copy.
     The copy is always heap-backed — copies are in-memory twins for
     differential tests and crash exploration, never out-of-core. *)
  let store =
    Store.heap ~length:(Store.length t.store) ~chunk_bytes:(Store.chunk_bytes t.store)
  in
  Store.blit ~src:t.store ~src_pos:0 ~dst:store ~dst_pos:0 ~len:(Store.length t.store);
  Store.copy_dirty ~src:t.store ~dst:store;
  {
    t with
    store;
    cgs = Array.map (fun cg -> Cg.rebind cg ~store) t.cgs;
    inodes =
      (let h = Hashtbl.create (Hashtbl.length t.inodes) in
       Hashtbl.iter (fun k v -> Hashtbl.replace h k { v with Inode.inum = v.Inode.inum }) t.inodes;
       h);
    dirs =
      (let h = Hashtbl.create (Hashtbl.length t.dirs) in
       Hashtbl.iter
         (fun k d -> Hashtbl.replace h k { d with by_name = Hashtbl.copy d.by_name })
         t.dirs;
       h);
    parents = Hashtbl.copy t.parents;
    stats = { t.stats with blocks_allocated = t.stats.blocks_allocated };
    jrec = None;
  }

let params t = t.params
let config t = t.cfg
let set_config t cfg = t.cfg <- cfg
let stats t = t.stats
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

let lookup_opt t ~dir ~name = Hashtbl.find_opt (get_dir t dir).by_name name

let rmdir_exn t ~parent ~name =
  match lookup_opt t ~dir:parent ~name with
  | None -> Error.raise_ (Error.No_such_name { dir = parent; name })
  | Some inum ->
      let d = get_dir t inum in
      if inum = t.root_inum then Error.raise_ Error.Cannot_remove_root;
      if d.live_entries > 0 then Error.raise_ (Error.Directory_not_empty { inum });
      let ino = Hashtbl.find t.inodes inum in
      Array.iter (fun e -> free_run t ~addr:e.Inode.addr ~frags:e.Inode.frags) ino.Inode.entries;
      Hashtbl.remove t.inodes inum;
      Hashtbl.remove t.dirs inum;
      jot t (Journal.Inode_clear { inum });
      remove_dir_entry t ~dir:parent ~name;
      Cg.remove_dir t.cgs.(cg_of_inum t inum);
      jot t (Journal.Dir_count { cg = cg_of_inum t inum; delta = -1 });
      Cg.free_inode t.cgs.(cg_of_inum t inum) (inum mod ipg t);
      jot t (Journal.Inode_slot_clear { inum })

let lookup t ~dir ~name = lookup_opt t ~dir ~name

let dir_entries t inum =
  let d = get_dir t inum in
  (* [order] keeps tombstones of removed names; a name deleted and later
     re-created therefore appears more than once. Deduplicate keeping the
     newest occurrence (the head-most, since [order] is newest-first). *)
  let seen = Hashtbl.create 16 in
  d.order
  |> List.filter_map (fun name ->
         if Hashtbl.mem seen name then None
         else begin
           Hashtbl.add seen name ();
           Hashtbl.find_opt d.by_name name |> Option.map (fun inum -> (name, inum))
         end)
  |> List.rev

let dir_of_inum t inum =
  match Hashtbl.find_opt t.parents inum with
  | Some (dir, _) -> dir
  | None -> raise Not_found

(* --- file API ------------------------------------------------------------ *)

let create_file_at_exn t ~time ~dir ~name ~size =
  let d = get_dir t dir in
  if Hashtbl.mem d.by_name name then Error.raise_ (Error.Name_exists { dir; name });
  let home_cg = cg_of_inum t dir in
  match alloc_inode_near t ~cg:home_cg with
  | None -> Error.raise_ Error.Out_of_space
  | Some inum -> (
      let actual_cg = cg_of_inum t inum in
      let allocated = ref None in
      try
        let entries, indirects = allocate_data t ~home_cg:actual_cg ~size in
        allocated := Some (entries, indirects);
        let ino = Inode.v ~inum ~kind:Inode.File ~time in
        ino.Inode.size <- size;
        ino.Inode.entries <- entries;
        ino.Inode.indirect_addrs <- indirects;
        Locks.globally (fun () -> Hashtbl.replace t.inodes inum ino);
        jot t (Journal.Inode_write { ino = snapshot_inode ino });
        add_dir_entry t ~dir ~name ~inum;
        inum
      with Error.Error (Error.Out_of_space | Error.Cross_cg _) as exn ->
        (* unwind exactly the stages reached: the directory entry (the
           dir-extension fragment can fail *after* the entry is in), the
           file data, the inode-table insert, the inode slot.
           [allocate_data] already rolled back its own partial work. *)
        if Hashtbl.mem d.by_name name then remove_dir_entry t ~dir ~name;
        (match !allocated with
        | None -> ()
        | Some (entries, indirects) ->
            Array.iter
              (fun e -> free_run t ~addr:e.Inode.addr ~frags:e.Inode.frags)
              entries;
            Array.iter (fun a -> free_run t ~addr:a ~frags:(fpb t)) indirects);
        Locks.globally (fun () -> Hashtbl.remove t.inodes inum);
        Cg.free_inode t.cgs.(actual_cg) (inum mod ipg t);
        jot t (Journal.Inode_slot_clear { inum });
        raise exn)

let create_file_exn t ~dir ~name ~size =
  create_file_at_exn t ~time:t.clock ~dir ~name ~size

let free_file_data t ino =
  Array.iter (fun e -> free_run t ~addr:e.Inode.addr ~frags:e.Inode.frags) ino.Inode.entries;
  Array.iter (fun a -> free_run t ~addr:a ~frags:(fpb t)) ino.Inode.indirect_addrs;
  ino.Inode.entries <- [||];
  ino.Inode.indirect_addrs <- [||];
  ino.Inode.size <- 0

(* When pinned, refuse (before any mutation) an inode whose slot, data
   or indirect blocks live outside the pinned group — the serial phase
   owns those. Files created by this volume's replay stay in one group,
   so the check only fires on overflow placements. *)
let assert_inum_local t ~pin inum ino =
  let cg = cg_of_inum t inum in
  if cg <> pin then Error.raise_ (Error.Cross_cg { cg; pinned = pin });
  let check addr =
    let cg = cg_of_global t addr in
    if cg <> pin then Error.raise_ (Error.Cross_cg { cg; pinned = pin })
  in
  Array.iter (fun e -> check e.Inode.addr) ino.Inode.entries;
  Array.iter check ino.Inode.indirect_addrs

let delete_inum_exn t inum =
  match Locks.globally (fun () -> Hashtbl.find_opt t.inodes inum) with
  | None -> Error.raise_ (Error.No_such_inode { inum })
  | Some ino ->
      if ino.Inode.kind = Inode.Dir then
        Error.raise_ (Error.Is_a_directory { inum; op = "delete_inum" });
      (match Locks.pinned () with
      | Some pin -> assert_inum_local t ~pin inum ino
      | None -> ());
      free_file_data t ino;
      Locks.globally (fun () -> Hashtbl.remove t.inodes inum);
      jot t (Journal.Inode_clear { inum });
      (match Locks.globally (fun () -> Hashtbl.find_opt t.parents inum) with
      | Some (dir, name) -> remove_dir_entry t ~dir ~name
      | None -> ());
      Cg.free_inode t.cgs.(cg_of_inum t inum) (inum mod ipg t);
      jot t (Journal.Inode_slot_clear { inum })

let delete_file_exn t ~dir ~name =
  match lookup t ~dir ~name with
  | None -> Error.raise_ (Error.No_such_name { dir; name })
  | Some inum -> delete_inum_exn t inum

let rewrite_file_at_exn t ~time ~inum ~size =
  match Locks.globally (fun () -> Hashtbl.find_opt t.inodes inum) with
  | None -> Error.raise_ (Error.No_such_inode { inum })
  | Some ino ->
      if ino.Inode.kind = Inode.Dir then
        Error.raise_ (Error.Is_a_directory { inum; op = "rewrite_file" });
      (* pinned: refuse before freeing anything if the old data strays
         outside the group. (Allocation below may still defer after the
         free — that partial state is deterministic, and the serial
         retry simply allocates for the now-empty file.) *)
      (match Locks.pinned () with
      | Some pin -> assert_inum_local t ~pin inum ino
      | None -> ());
      free_file_data t ino;
      let home_cg = cg_of_inum t inum in
      let entries, indirects = allocate_data t ~home_cg ~size in
      ino.Inode.size <- size;
      ino.Inode.entries <- entries;
      ino.Inode.indirect_addrs <- indirects;
      ino.Inode.mtime <- time;
      jot t (Journal.Inode_write { ino = snapshot_inode ino })

let rewrite_file_exn t ~inum ~size = rewrite_file_at_exn t ~time:t.clock ~inum ~size

let inode t inum =
  match Locks.globally (fun () -> Hashtbl.find_opt t.inodes inum) with
  | Some i -> i
  | None -> raise Not_found

let file_exists t inum =
  match Locks.globally (fun () -> Hashtbl.find_opt t.inodes inum) with
  | Some i -> i.Inode.kind = Inode.File
  | None -> false

let iter_files t f =
  Hashtbl.iter (fun _ ino -> if ino.Inode.kind = Inode.File then f ino) t.inodes

let fold_files t ~init ~f =
  Hashtbl.fold (fun _ ino acc -> if ino.Inode.kind = Inode.File then f acc ino else acc)
    t.inodes init

let file_count t = fold_files t ~init:0 ~f:(fun acc _ -> acc + 1)
let iter_all_inodes t f = Hashtbl.iter (fun _ ino -> f ino) t.inodes
let dir_inums t = Hashtbl.fold (fun inum _ acc -> inum :: acc) t.dirs []

(* --- space accounting ---------------------------------------------------- *)

let total_data_frags t = Array.fold_left (fun acc cg -> acc + Cg.data_frags cg) 0 t.cgs
let free_data_frags t = Array.fold_left (fun acc cg -> acc + Cg.free_frag_count cg) 0 t.cgs
let used_data_frags t = total_data_frags t - free_data_frags t
let utilization t = float_of_int (used_data_frags t) /. float_of_int (total_data_frags t)
let cg_states t = t.cgs

(* --- repair plumbing ------------------------------------------------------ *)

let detach_entry_exn t ~dir ~name = remove_dir_entry t ~dir ~name

let attach_entry_exn t ~dir ~name ~inum = add_dir_entry t ~dir ~name ~inum

let forget_inode_exn t inum =
  match Hashtbl.find_opt t.inodes inum with
  | None -> Error.raise_ (Error.No_such_inode { inum })
  | Some ino ->
      if ino.Inode.kind = Inode.Dir then
        Error.raise_ (Error.Is_a_directory { inum; op = "forget_inode" });
      Hashtbl.remove t.inodes inum

let rebuild_allocation t =
  Array.iter Cg.reset t.cgs;
  Hashtbl.iter
    (fun inum ino ->
      let cg = cg_of_inum t inum in
      Cg.mark_inode_used t.cgs.(cg) (inum mod ipg t);
      let mark addr frags =
        let cg, frag = local_of_global t addr in
        Cg.mark_frags_used t.cgs.(cg) ~pos:frag ~count:frags
      in
      Array.iter (fun e -> mark e.Inode.addr e.Inode.frags) ino.Inode.entries;
      Array.iter (fun a -> mark a (fpb t)) ino.Inode.indirect_addrs)
    t.inodes;
  Hashtbl.iter
    (fun inum _ ->
      if Hashtbl.mem t.inodes inum then
        Cg.add_dir t.cgs.(cg_of_inum t inum))
    t.dirs

(* --- invariants ----------------------------------------------------------- *)

let check_invariants t =
  Array.iter Cg.check_invariants t.cgs;
  (* rebuild the fragment usage from the inodes and compare *)
  let claimed = Hashtbl.create 4096 in
  let claim addr frags owner =
    for a = addr to addr + frags - 1 do
      match Hashtbl.find_opt claimed a with
      | Some other ->
          Error.raise_
            (Error.Corrupt
               (Fmt.str "fragment %d claimed by inode %d and inode %d" a other owner))
      | None -> Hashtbl.replace claimed a owner
    done
  in
  Hashtbl.iter
    (fun inum ino ->
      Array.iter (fun e -> claim e.Inode.addr e.Inode.frags inum) ino.Inode.entries;
      Array.iter (fun a -> claim a (fpb t) inum) ino.Inode.indirect_addrs)
    t.inodes;
  assert (Hashtbl.length claimed = used_data_frags t);
  Hashtbl.iter
    (fun addr _ ->
      let cg, frag = local_of_global t addr in
      assert (not (Cg.frag_is_free t.cgs.(cg) frag)))
    claimed

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

type portable = {
  pf_params : Params.t;
  pf_config : config;
  pf_clock : float;
  pf_root : int;
  pf_stats : stats;
  pf_cgs : Cg.portable array;
  pf_inodes : (int * Inode.t) list;  (* sorted by inum; deep-copied *)
  pf_dirs : (int * portable_dir) list;  (* sorted by inum *)
  pf_parents : (int * (int * string)) list;  (* sorted by inum *)
}

let sorted_keys h = Hashtbl.fold (fun k _ acc -> k :: acc) h [] |> List.sort compare

let to_portable t =
  {
    pf_params = t.params;
    pf_config = t.cfg;
    pf_clock = t.clock;
    pf_root = t.root_inum;
    pf_stats = { t.stats with blocks_allocated = t.stats.blocks_allocated };
    pf_cgs = Array.map Cg.to_portable t.cgs;
    pf_inodes =
      List.map
        (fun inum -> (inum, snapshot_inode (Hashtbl.find t.inodes inum)))
        (sorted_keys t.inodes);
    pf_dirs =
      List.map
        (fun dnum ->
          let d = Hashtbl.find t.dirs dnum in
          let names =
            Hashtbl.fold (fun name inum acc -> (name, inum) :: acc) d.by_name []
            |> List.sort compare
          in
          ( dnum,
            { pd_inum = d.dir_inum; pd_names = names; pd_order = d.order; pd_live = d.live_entries } ))
        (sorted_keys t.dirs);
    pf_parents =
      List.map (fun inum -> (inum, Hashtbl.find t.parents inum)) (sorted_keys t.parents);
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
  let inodes = Hashtbl.create (max 1024 (List.length p.pf_inodes)) in
  List.iter (fun (inum, ino) -> Hashtbl.replace inodes inum (snapshot_inode ino)) p.pf_inodes;
  let dirs = Hashtbl.create (max 64 (List.length p.pf_dirs)) in
  List.iter
    (fun (dnum, pd) ->
      let by_name = Hashtbl.create 16 in
      List.iter (fun (name, inum) -> Hashtbl.replace by_name name inum) pd.pd_names;
      Hashtbl.replace dirs dnum
        { dir_inum = pd.pd_inum; by_name; order = pd.pd_order; live_entries = pd.pd_live })
    p.pf_dirs;
  let parents = Hashtbl.create (max 1024 (List.length p.pf_parents)) in
  List.iter (fun (inum, v) -> Hashtbl.replace parents inum v) p.pf_parents;
  (* loading wrote every byte, so the dirty map is all-set — the
     conservative truth for a resumed volume (the first checkpoint after
     a resume is a full one anyway) *)
  {
    params;
    store;
    cgs;
    inodes;
    dirs;
    parents;
    cfg = p.pf_config;
    clock = p.pf_clock;
    root_inum = p.pf_root;
    stats = { p.pf_stats with blocks_allocated = p.pf_stats.blocks_allocated };
    jrec = None;
  }

(* --- canonical digest ------------------------------------------------------ *)

(* A digest of the fs's logical content that is independent of hashtable
   internals and of the storage backend: two file systems that agree on
   every inode, directory, group image and counter hash identically even
   when their tables were populated in different orders (exactly what
   parallel aging produces) or their bytes live in different backends
   (exactly what the backend differential suite pins). Raw [Marshal] of
   [t] would have neither property. *)
let digest_parts_of_portable p =
  let part name fill =
    let buf = Buffer.create (1 lsl 12) in
    let add v = Buffer.add_string buf (Marshal.to_string v []) in
    fill add;
    (name, Digest.to_hex (Digest.string (Buffer.contents buf)))
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

let dirty_cgs t =
  (* chunk = cg region under [Store.Layout], so chunk index = cg index *)
  Store.dirty_chunks t.store

let clear_dirty t = Store.clear_dirty t.store
let mark_all_dirty t = Store.mark_all_dirty t.store

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
      (* copy again: many crash states replay the same recorded step, and
         repair mutates inode arrays in place *)
      let ino = snapshot_inode ino in
      Hashtbl.replace t.inodes ino.Inode.inum ino;
      if ino.Inode.kind = Inode.Dir && not (Hashtbl.mem t.dirs ino.Inode.inum) then
        Hashtbl.replace t.dirs ino.Inode.inum
          { dir_inum = ino.Inode.inum; by_name = Hashtbl.create 16; order = []; live_entries = 0 }
  | Journal.Inode_clear { inum } ->
      Hashtbl.remove t.inodes inum;
      Hashtbl.remove t.dirs inum
  | Journal.Dir_add { dir; name; inum } -> (
      match Hashtbl.find_opt t.dirs dir with
      | None -> ()  (* the directory's own inode write was lost *)
      | Some d ->
          if not (Hashtbl.mem d.by_name name) then begin
            Hashtbl.replace d.by_name name inum;
            d.order <- name :: d.order;
            d.live_entries <- d.live_entries + 1
          end;
          Hashtbl.replace t.parents inum (dir, name))
  | Journal.Dir_remove { dir; name } -> (
      match Hashtbl.find_opt t.dirs dir with
      | None -> ()
      | Some d -> (
          match Hashtbl.find_opt d.by_name name with
          | None -> ()
          | Some inum ->
              Hashtbl.remove d.by_name name;
              d.live_entries <- d.live_entries - 1;
              Hashtbl.remove t.parents inum))
  | Journal.Dir_count { cg; delta } -> Cg.corrupt_adjust_dirs t.cgs.(cg) delta

let apply_journal t steps = List.iter (apply_step t) steps

(* --- result-returning primaries ------------------------------------------ *)

let create_file t ~dir ~name ~size =
  Error.guard (fun () -> create_file_exn t ~dir ~name ~size)

let create_file_at t ~time ~dir ~name ~size =
  Error.guard (fun () -> create_file_at_exn t ~time ~dir ~name ~size)

let mkdir t ~parent ~name = Error.guard (fun () -> mkdir_exn t ~parent ~name)

let mkdir_in_cg t ~parent ~name ~cg =
  Error.guard (fun () -> mkdir_in_cg_exn t ~parent ~name ~cg)

let rmdir t ~parent ~name = Error.guard (fun () -> rmdir_exn t ~parent ~name)
let delete_file t ~dir ~name = Error.guard (fun () -> delete_file_exn t ~dir ~name)
let delete_inum t inum = Error.guard (fun () -> delete_inum_exn t inum)
let rewrite_file t ~inum ~size =
  Error.guard (fun () -> rewrite_file_exn t ~inum ~size)

let rewrite_file_at t ~time ~inum ~size =
  Error.guard (fun () -> rewrite_file_at_exn t ~time ~inum ~size)
let detach_entry t ~dir ~name = Error.guard (fun () -> detach_entry_exn t ~dir ~name)

let attach_entry t ~dir ~name ~inum =
  Error.guard (fun () -> attach_entry_exn t ~dir ~name ~inum)

let forget_inode t inum = Error.guard (fun () -> forget_inode_exn t inum)
