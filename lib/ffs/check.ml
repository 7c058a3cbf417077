type problem =
  | Double_claim of { fragment : int; first_owner : int; second_owner : int }
  | Claim_not_allocated of { fragment : int; owner : int }
  | Usage_mismatch of { claimed : int; allocated : int }
  | Group_counter_mismatch of { cg : int; what : string; counter : int; recount : int }
  | Orphan_inode of { inum : int }
  | Dangling_entry of { dir : int; name : string; inum : int }
  | Bad_run of { inum : int; addr : int; frags : int }
  | Index_mismatch of { cg : int; what : string }
  | Inode_bitmap_mismatch of { cg : int; slot : int; live : bool }
  | Layout_counter_mismatch of { cg : int; what : string; counter : int; recount : int }

type report = {
  problems : problem list;
  files : int;
  directories : int;
  fragments_claimed : int;
}

(* --- the shared passes ------------------------------------------------------ *)

(* Is [addr, addr + frags) a run of data-area fragments? [frags] is
   bounded first so that [addr + frags] cannot overflow; the walk then
   takes one step per group the run touches. *)
let run_in_data_area fs =
  let params = Fs.params fs in
  let cgs = Fs.cg_states fs in
  let total = Params.total_frags params in
  let rec from a stop =
    a >= stop
    ||
    let cg = Params.group_of_frag params a in
    cg < Array.length cgs
    &&
    let base = Params.data_base params cg in
    let limit = base + Cg.data_frags cgs.(cg) in
    a >= base && a < limit && from limit stop
  in
  fun addr frags ->
    frags > 0 && frags <= total && addr >= 0 && addr + frags <= total && from addr (addr + frags)

(* [xs] less the elements at the indices [dropped] *)
let without dropped xs =
  if dropped = [] then xs
  else Array.of_list (List.filteri (fun i _ -> not (List.mem i dropped)) (Array.to_list xs))

let unclaimed = -1

(* The claim table: one cell per fragment of the volume, holding the
   inum of the fragment's owner or [unclaimed]. Filled in one pass over
   the inode table in ascending inum order, a file's direct runs before
   its indirect blocks: a run outside the data area goes to [bad], any
   other to [claim], which records what it accepts in the table and
   says whether the run stays. Returns the table and, ascending, each
   inode that lost a run with its surviving entries and indirect
   blocks. Allocates nothing per run or per intact inode. *)
let claim_table fs ~bad ~claim =
  let params = Fs.params fs in
  let fpb = params.Params.frags_per_block in
  let valid = run_in_data_area fs in
  let owner = Array.make (Params.total_frags params) unclaimed in
  let keep inum addr frags =
    if valid addr frags then claim owner inum addr frags
    else begin
      bad inum addr frags;
      false
    end
  in
  let pruned = ref [] in
  Fs.iter_all_inodes fs (fun ino ->
      let inum = ino.Inode.inum in
      let entries = ino.Inode.entries and indirects = ino.Inode.indirect_addrs in
      let dropped_entries = ref [] and dropped_indirects = ref [] in
      for i = 0 to Array.length entries - 1 do
        if not (keep inum entries.(i).Inode.addr entries.(i).Inode.frags) then
          dropped_entries := i :: !dropped_entries
      done;
      for i = 0 to Array.length indirects - 1 do
        if not (keep inum indirects.(i) fpb) then dropped_indirects := i :: !dropped_indirects
      done;
      if !dropped_entries <> [] || !dropped_indirects <> [] then
        pruned :=
          (ino, without !dropped_entries entries, without !dropped_indirects indirects)
          :: !pruned);
  (owner, List.rev !pruned)

(* The claim table against the group bitmaps, one linear walk per group
   in ascending fragment order: [missing fragment owner] for a claimed
   fragment its bitmap marks free, [leaked fragment] for an allocated
   one nothing claims. *)
let reconcile fs owner ~missing ~leaked =
  let params = Fs.params fs in
  Array.iteri
    (fun cg_index cg ->
      let base = Params.data_base params cg_index in
      for f = 0 to Cg.data_frags cg - 1 do
        let o = owner.(base + f) in
        if Cg.frag_is_free cg f then (if o <> unclaimed then missing (base + f) o)
        else if o = unclaimed then leaked (base + f)
      done)
    (Fs.cg_states fs)

(* The live inodes no entry of [dirs] (nor the root's own) names,
   ascending; [dead dir name inum] sees each entry naming no live
   inode, in [dirs] order. *)
let unreferenced fs dirs ~dead =
  let params = Fs.params fs in
  let seen = Bytes.make (params.Params.ncg * Params.inodes_per_group params) '\000' in
  let mark inum = Bytes.set seen inum '\001' in
  mark (Fs.root fs);
  List.iter
    (fun dir ->
      List.iter
        (fun (name, inum) ->
          match Fs.inode fs inum with
          | _ -> mark inum
          | exception Not_found -> dead dir name inum)
        (Fs.dir_entries fs dir))
    dirs;
  let orphans = ref [] in
  Fs.iter_all_inodes fs (fun ino ->
      if Bytes.get seen ino.Inode.inum = '\000' then orphans := ino.Inode.inum :: !orphans);
  List.rev !orphans

(* --- audit ----------------------------------------------------------------- *)

let run fs =
  let params = Fs.params fs in
  let cgs = Fs.cg_states fs in
  let problems = ref [] in
  let add p = problems := p :: !problems in
  (* 1: claim every fragment, flagging invalid runs and overlaps *)
  let files = ref 0 and directories = ref 0 and claimed = ref 0 in
  Fs.iter_all_inodes fs (fun ino ->
      match ino.Inode.kind with Inode.File -> incr files | Inode.Dir -> incr directories);
  let owner, _ =
    claim_table fs
      ~bad:(fun inum addr frags -> add (Bad_run { inum; addr; frags }))
      ~claim:(fun owner inum addr frags ->
        for a = addr to addr + frags - 1 do
          let first_owner = owner.(a) in
          if first_owner <> unclaimed then
            add (Double_claim { fragment = a; first_owner; second_owner = inum })
          else begin
            owner.(a) <- inum;
            incr claimed
          end
        done;
        true)
  in
  (* 2: every claim must be marked allocated in its group's bitmap *)
  reconcile fs owner ~leaked:ignore ~missing:(fun fragment owner ->
      add (Claim_not_allocated { fragment; owner }));
  (* 3: totals — leaked fragments show up here (allocated, unowned) *)
  let claimed = !claimed in
  let allocated = Fs.used_data_frags fs in
  if claimed <> allocated then add (Usage_mismatch { claimed; allocated });
  (* 4: per-group counters vs. a bitmap recount *)
  let counter cg what counter recount =
    if counter <> recount then add (Group_counter_mismatch { cg; what; counter; recount })
  in
  Array.iteri
    (fun cg_index cg ->
      let free_frags = ref 0 and free_blocks = ref 0 in
      for f = 0 to Cg.data_frags cg - 1 do
        if Cg.frag_is_free cg f then incr free_frags
      done;
      for b = 0 to Cg.data_blocks cg - 1 do
        if Cg.block_is_free cg b then incr free_blocks
      done;
      counter cg_index "free fragments" (Cg.free_frag_count cg) !free_frags;
      counter cg_index "free blocks" (Cg.free_block_count cg) !free_blocks)
    cgs;
  (* 4a: the layout counters vs. a recount of the inode table *)
  for cg = 0 to params.Params.ncg - 1 do
    let optimal, counted = Fs.group_layout_counts fs cg in
    let optimal', counted' = Fs.group_layout_recount fs cg in
    let mismatch what counter recount =
      if counter <> recount then add (Layout_counter_mismatch { cg; what; counter; recount })
    in
    mismatch "optimal links" optimal optimal';
    mismatch "counted links" counted counted'
  done;
  (* 4b: the inode bitmap vs. the inode table, bit by bit.  A live
     inode whose bit reads free is the data-loss precursor — the next
     allocation of that slot would silently overwrite the file — and
     device corruption (bit rot, a torn region tail) is exactly how
     such bits change behind the counters' back.  Counters are audited
     too, but bit-level: opposite flips in one group cancel in any
     count. *)
  let ipg = Params.inodes_per_group params in
  Array.iteri
    (fun cg_index cg ->
      let free_inode_recount = ref 0 in
      for slot = 0 to ipg - 1 do
        let bit_free = Cg.inode_is_free cg slot in
        if bit_free then incr free_inode_recount;
        let live =
          match Fs.inode fs ((cg_index * ipg) + slot) with
          | _ -> true
          | exception Not_found -> false
        in
        if live = bit_free then
          add (Inode_bitmap_mismatch { cg = cg_index; slot; live })
      done;
      counter cg_index "free inodes" (Cg.inodes_free cg) !free_inode_recount)
    cgs;
  (* 5: directory tree — every inode referenced, every entry resolvable *)
  unreferenced fs (Fs.dir_inums fs) ~dead:(fun dir name inum ->
      add (Dangling_entry { dir; name; inum }))
  |> List.iter (fun inum -> add (Orphan_inode { inum }));
  (* 6: the derived extent index, run summary included, must agree with
     the bitmaps it summarises *)
  Array.iteri
    (fun cg_index cg ->
      List.iter (fun what -> add (Index_mismatch { cg = cg_index; what }))
        (Cg.audit_index cg))
    cgs;
  {
    problems = List.rev !problems;
    files = !files;
    directories = !directories;
    fragments_claimed = claimed;
  }

let is_clean r = r.problems = []

(* --- repair --------------------------------------------------------------- *)

type repair_log = {
  bad_runs_cleared : int;
  double_claims_resolved : int;
  leaked_frags_reclaimed : int;
  missing_frags_remarked : int;
  groups_rebuilt : int;
  dangling_cleared : int;
  orphans_reattached : int;
  lost_found : int option;
}

let repair_is_noop log =
  log.bad_runs_cleared = 0 && log.double_claims_resolved = 0
  && log.leaked_frags_reclaimed = 0 && log.missing_frags_remarked = 0
  && log.groups_rebuilt = 0 && log.dangling_cleared = 0
  && log.orphans_reattached = 0

let repair_body fs =
  let cgs = Fs.cg_states fs in
  (* pass 1: prune invalid and double-claimed runs from the inode table.
     Deterministic arbitration: inodes in ascending inode-number order, a
     file's direct runs before its indirect blocks — the first claimant of
     a fragment keeps it, every later overlapping run is dropped whole. *)
  let bad_runs = ref 0 and doubles = ref 0 in
  let owner, pruned =
    claim_table fs
      ~bad:(fun _ _ _ -> incr bad_runs)
      ~claim:(fun owner inum addr frags ->
        let a = ref addr in
        while !a < addr + frags && owner.(!a) = unclaimed do
          incr a
        done;
        if !a = addr + frags then begin
          Array.fill owner addr frags inum;
          true
        end
        else begin
          incr doubles;
          false
        end)
  in
  List.iter (fun (ino, entries, indirect_addrs) -> Fs.set_entries fs ~indirect_addrs ino entries)
    pruned;
  (* pass 2: rebuild every group's bitmaps, counters, extent index and
     layout counters from the surviving claims, measuring the divergence
     being erased *)
  let leaked = ref 0 and missing = ref 0 in
  reconcile fs owner ~missing:(fun _ _ -> incr missing) ~leaked:(fun _ -> incr leaked);
  let counters i cg =
    ( (Cg.free_frag_count cg, Cg.free_block_count cg, Cg.inodes_free cg, Cg.dirs cg),
      Fs.group_layout_counts fs i )
  in
  let before = Array.mapi counters cgs in
  Fs.rebuild_allocation fs;
  let groups_rebuilt = ref 0 in
  Array.iteri (fun i cg -> if before.(i) <> counters i cg then incr groups_rebuilt) cgs;
  (* pass 3: clear directory entries that name dead inodes, collecting
     the unreferenced inodes on the way *)
  let dangling = ref 0 in
  let orphans =
    unreferenced fs (List.sort compare (Fs.dir_inums fs)) ~dead:(fun dir name _ ->
        Fs.detach_entry_exn fs ~dir ~name;
        incr dangling)
  in
  (* pass 4: reattach the unreferenced inodes under lost+found
     (allocation is safe again: pass 2 restored consistency) *)
  let lost_found = ref None in
  if orphans <> [] then begin
    let root = Fs.root fs in
    let is_dir inum =
      match Fs.inode fs inum with
      | ino -> ino.Inode.kind = Inode.Dir
      | exception Not_found -> false
    in
    let rec fresh_name dir base k =
      let name = if k = 0 then base else Fmt.str "%s.%d" base k in
      if Fs.lookup fs ~dir ~name = None then name else fresh_name dir base (k + 1)
    in
    let lf =
      match Fs.lookup fs ~dir:root ~name:"lost+found" with
      | Some inum when is_dir inum -> inum
      | Some _ (* a file squats on the name; park the orphans elsewhere *) ->
          Fs.mkdir_exn fs ~parent:root ~name:(fresh_name root "lost+found" 1)
      | None -> Fs.mkdir_exn fs ~parent:root ~name:"lost+found"
    in
    lost_found := Some lf;
    List.iter
      (fun inum ->
        Fs.attach_entry_exn fs ~dir:lf ~name:(fresh_name lf (Fmt.str "#%d" inum) 0) ~inum)
      orphans
  end;
  {
    bad_runs_cleared = !bad_runs;
    double_claims_resolved = !doubles;
    leaked_frags_reclaimed = !leaked;
    missing_frags_remarked = !missing;
    groups_rebuilt = !groups_rebuilt;
    dangling_cleared = !dangling;
    orphans_reattached = List.length orphans;
    lost_found = !lost_found;
  }

let repair_exn fs =
  Obs.Trace.span "fsck.repair" [] @@ fun () ->
  let log = repair_body fs in
  let m = Obs.Metrics.default in
  Obs.Metrics.inc m "fsck_repairs_total";
  let action name n =
    if n > 0 then Obs.Metrics.add m ~labels:[ ("action", name) ] "fsck_repair_actions_total" n
  in
  action "bad_runs_cleared" log.bad_runs_cleared;
  action "double_claims_resolved" log.double_claims_resolved;
  action "leaked_frags_reclaimed" log.leaked_frags_reclaimed;
  action "missing_frags_remarked" log.missing_frags_remarked;
  action "groups_rebuilt" log.groups_rebuilt;
  action "dangling_cleared" log.dangling_cleared;
  action "orphans_reattached" log.orphans_reattached;
  log

let repair fs = Error.guard (fun () -> repair_exn fs)

(* --- scrub: the device-level sweep, escalating to repair ------------------- *)

type scrub_log = {
  store_report : Store.scrub_report;
  problems_found : int;
  repaired : bool;
}

let scrub_is_clean log = log.problems_found = 0 && log.store_report.Store.scrub_mismatched = []

let scrub_exn fs =
  Obs.Trace.span "store.scrub" [] @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let store = Fs.store fs in
  (* pass 1: the store-level walk — sync (which is where a fault plan's
     scheduled damage lands, exactly as a real scrub surfaces latent
     sectors), verify clean chunks against their CRCs, quarantine
     persistently unreadable ones *)
  let sr = Store.scrub store in
  (* pass 2: the logical audit always runs.  Checksums cannot vouch for
     dirty chunks (their CRC is stale by rule) and torn syncs corrupt
     exactly the chunks that were being written, so the cross-view audit
     is the authority on what the bitmaps must say. *)
  let before = run fs in
  let flagged = sr.Store.scrub_mismatched <> [] in
  let repaired =
    if flagged || not (is_clean before) then begin
      let _log = repair_exn fs in
      let after = run fs in
      if not (is_clean after) then
        Error.raise_ (Error.Corrupt "scrub: repair did not converge to a clean audit");
      true
    end
    else false
  in
  (* pass 3: re-bless flagged chunks.  The audit has accepted (or
     rebuilt) their logical content, so their current bytes are the
     truth — without this, rot in region padding (bytes no bitmap
     claims) would trip every future scrub and idempotence would be
     lost. *)
  List.iter (fun c -> Store.refresh_chunk_crc store c) sr.Store.scrub_mismatched;
  let m = Obs.Metrics.default in
  if repaired then
    Obs.Metrics.add m "scrub_repaired_total"
      (max 1 (List.length sr.Store.scrub_mismatched));
  Obs.Metrics.observe m "scrub_seconds" (Unix.gettimeofday () -. t0);
  { store_report = sr; problems_found = List.length before.problems; repaired }

let scrub fs = Error.guard (fun () -> scrub_exn fs)

let pp_scrub ppf log =
  let sr = log.store_report in
  Fmt.pf ppf "scrub: %d chunks (%d verified, %d stale, %d mismatched, %d quarantined); %d logical problem(s)%s"
    sr.Store.scrub_chunks sr.Store.scrub_verified sr.Store.scrub_stale
    (List.length sr.Store.scrub_mismatched)
    (List.length sr.Store.scrub_quarantined)
    log.problems_found
    (if log.repaired then "; repaired" else "")

let pp_problem ppf = function
  | Double_claim { fragment; first_owner; second_owner } ->
      Fmt.pf ppf "fragment %d claimed by both inode %d and inode %d" fragment first_owner
        second_owner
  | Claim_not_allocated { fragment; owner } ->
      Fmt.pf ppf "inode %d claims fragment %d which the bitmap marks free" owner fragment
  | Usage_mismatch { claimed; allocated } ->
      Fmt.pf ppf "inodes claim %d fragments but bitmaps mark %d used" claimed allocated
  | Group_counter_mismatch { cg; what; counter; recount } ->
      Fmt.pf ppf "group %d %s counter says %d, bitmap recount says %d" cg what counter
        recount
  | Orphan_inode { inum } -> Fmt.pf ppf "inode %d is referenced by no directory" inum
  | Dangling_entry { dir; name; inum } ->
      Fmt.pf ppf "directory %d entry %S points to missing inode %d" dir name inum
  | Bad_run { inum; addr; frags } ->
      Fmt.pf ppf "inode %d has an invalid run (addr %d, %d fragments)" inum addr frags
  | Index_mismatch { cg; what } ->
      Fmt.pf ppf "group %d free-space index disagrees with bitmap: %s" cg what
  | Inode_bitmap_mismatch { cg; slot; live } ->
      if live then
        Fmt.pf ppf "group %d inode slot %d holds a live inode but its bitmap bit is free"
          cg slot
      else Fmt.pf ppf "group %d inode slot %d is marked used but holds no inode" cg slot
  | Layout_counter_mismatch { cg; what; counter; recount } ->
      Fmt.pf ppf "group %d layout counter of %s says %d, inode-table recount says %d" cg what
        counter recount

let pp_repair ppf log =
  if repair_is_noop log then Fmt.pf ppf "nothing to repair"
  else begin
    let field name n rest = if n = 0 then rest else (name, n) :: rest in
    let fields =
      field "bad runs cleared" log.bad_runs_cleared
      @@ field "double claims resolved" log.double_claims_resolved
      @@ field "leaked fragments reclaimed" log.leaked_frags_reclaimed
      @@ field "missing fragments remarked" log.missing_frags_remarked
      @@ field "groups rebuilt" log.groups_rebuilt
      @@ field "dangling entries cleared" log.dangling_cleared
      @@ field "orphans reattached" log.orphans_reattached
      @@ []
    in
    Fmt.pf ppf "@[<v>%a%a@]"
      (Fmt.list ~sep:Fmt.cut (fun ppf (name, n) -> Fmt.pf ppf "%s: %d" name n))
      fields
      (Fmt.option (fun ppf inum -> Fmt.pf ppf "@ lost+found: inode %d" inum))
      log.lost_found
  end

let pp ppf r =
  if is_clean r then
    Fmt.pf ppf "clean: %d files, %d directories, %d fragments claimed" r.files
      r.directories r.fragments_claimed
  else
    Fmt.pf ppf "@[<v>%d problem(s):@ %a@]" (List.length r.problems)
      (Fmt.list ~sep:Fmt.cut pp_problem) r.problems

let check_invariants fs =
  Array.iter Cg.check_invariants (Fs.cg_states fs);
  let r = run fs in
  if not (is_clean r) then Error.raise_ (Error.Corrupt (Fmt.str "%a" pp r))
