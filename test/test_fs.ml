(* Tests for the file-system facade: creation, deletion, rewrite,
   directory placement, the realloc pass, indirect-block group switches,
   space accounting, rollback on no-space, and whole-image invariants
   under random workloads. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let params = Ffs.Params.small_test_fs
let fpb = params.Ffs.Params.frags_per_block
let block = params.Ffs.Params.block_bytes

let fresh ?config () = Ffs.Fs.create ?config params

let create fs ~dir ~name ~size = Ffs.Fs.create_file_exn fs ~dir ~name ~size

let entries fs inum = (Ffs.Fs.inode fs inum).Ffs.Inode.entries

let is_contiguous fs inum =
  let e = entries fs inum in
  let ok = ref true in
  for i = 1 to Array.length e - 1 do
    if Ffs.Inode.addr e.(i) <> Ffs.Inode.addr e.(i - 1) + Ffs.Inode.frags e.(i - 1) then
      ok := false
  done;
  !ok

(* --- basics ---------------------------------------------------------------- *)

let test_empty_fs () =
  let fs = fresh () in
  check_int "no files" 0 (Ffs.Fs.file_count fs);
  check_bool "root exists" true (Ffs.Fs.root fs >= 0);
  (* only the root directory's fragment is allocated *)
  check_int "one fragment used" 1 (Ffs.Fs.used_data_frags fs);
  Ffs.Check.check_invariants fs

let test_create_small_file () =
  let fs = fresh () in
  let inum = create fs ~dir:(Ffs.Fs.root fs) ~name:"a" ~size:5000 in
  let ino = Ffs.Fs.inode fs inum in
  check_int "size recorded" 5000 ino.Ffs.Inode.size;
  check_int "one run" 1 (Array.length ino.Ffs.Inode.entries);
  check_int "5 fragments" 5 (Ffs.Inode.frag_count ino);
  check_int "file counted" 1 (Ffs.Fs.file_count fs);
  check_bool "exists" true (Ffs.Fs.file_exists fs inum);
  Ffs.Check.check_invariants fs

let test_create_multi_block_contiguous_on_empty () =
  let fs = fresh () in
  let inum = create fs ~dir:(Ffs.Fs.root fs) ~name:"a" ~size:(5 * block) in
  check_int "five runs" 5 (Array.length (entries fs inum));
  check_bool "contiguous on an empty fs" true (is_contiguous fs inum);
  Ffs.Check.check_invariants fs

let test_tail_fragments () =
  let fs = fresh () in
  let inum = create fs ~dir:(Ffs.Fs.root fs) ~name:"a" ~size:((2 * block) + 3000) in
  let e = entries fs inum in
  check_int "three runs" 3 (Array.length e);
  check_int "tail is 3 frags" 3 (Ffs.Inode.frags e.(2));
  (* FFS prefers an existing partial block for the tail over breaking a
     free one: here the root directory's block has 7 free fragments, so
     the tail lands right after the directory fragment *)
  check_int "tail fills the partial block" (Ffs.Params.data_base params 0 + 1)
    (Ffs.Inode.addr e.(2));
  check_bool "full blocks still contiguous" true
    (Ffs.Inode.addr e.(1) = Ffs.Inode.addr e.(0) + fpb);
  Ffs.Check.check_invariants fs

let test_duplicate_name_rejected () =
  let fs = fresh () in
  ignore (create fs ~dir:(Ffs.Fs.root fs) ~name:"a" ~size:100);
  (match Ffs.Fs.create_file fs ~dir:(Ffs.Fs.root fs) ~name:"a" ~size:100 with
  | Error (Ffs.Error.Name_exists _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Error Name_exists");
  Ffs.Check.check_invariants fs

let test_delete_releases_space () =
  let fs = fresh () in
  let before = Ffs.Fs.free_data_frags fs in
  let inum = create fs ~dir:(Ffs.Fs.root fs) ~name:"a" ~size:(3 * block) in
  check_bool "space consumed" true (Ffs.Fs.free_data_frags fs < before);
  Ffs.Fs.delete_inum_exn fs inum;
  check_int "space restored" before (Ffs.Fs.free_data_frags fs);
  check_bool "gone" false (Ffs.Fs.file_exists fs inum);
  (match Ffs.Fs.inode fs inum with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "inode should be gone");
  Ffs.Check.check_invariants fs

(* a file of two block runs plus a tail fragment: [a b c] occupy
   blocks, [b] is deleted, and the new file's first block takes [b]'s
   slot, its next two continue past [c], and its tail goes to a
   partial block *)
let two_runs_and_tail fs =
  let root = Ffs.Fs.root fs in
  List.iter (fun name -> ignore (create fs ~dir:root ~name ~size:block)) [ "a"; "b"; "c" ];
  Ffs.Fs.delete_file_exn fs ~dir:root ~name:"b";
  let inum = create fs ~dir:root ~name:"d" ~size:((3 * block) + 100) in
  let e = entries fs inum in
  let breaks = ref 0 in
  for i = 1 to Array.length e - 1 do
    if Ffs.Inode.addr e.(i) <> Ffs.Inode.addr e.(i - 1) + Ffs.Inode.frags e.(i - 1) then
      incr breaks
  done;
  check_int "four entries" 4 (Array.length e);
  check_bool "a tail fragment" true (Ffs.Inode.frags e.(3) < fpb);
  check_bool "at least two runs" true (!breaks >= 1);
  check_bool "a multi-entry run" true (!breaks < Array.length e - 1);
  inum

(* deletes free each contiguous run as one span, but the journal still
   records one data-bitmap clear per entry, in entry order *)
let test_delete_journal_per_entry () =
  let fs = fresh () in
  let inum = two_runs_and_tail fs in
  let e = entries fs inum in
  let (), steps = Ffs.Fs.record_journal fs (fun () -> Ffs.Fs.delete_inum_exn fs inum) in
  let clears =
    List.filter_map
      (function Ffs.Journal.Data_clear { addr; frags } -> Some (addr, frags) | _ -> None)
      steps
  in
  Alcotest.(check (list (pair int int)))
    "one Data_clear per entry, in entry order"
    (Array.to_list (Array.map (fun x -> (Ffs.Inode.addr x, Ffs.Inode.frags x)) e))
    clears;
  Ffs.Check.check_invariants fs

(* Minor words allocated by [f], net of the measurement's own. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  f ();
  let w2 = Gc.minor_words () in
  int_of_float (w2 -. w1 -. (w1 -. w0))

(* The delete path is free of per-entry and per-block allocation: a
   200-block file costs no more words to delete than a 2-block one.
   Only meaningful in native code (bytecode boxes differently). *)
let test_delete_allocation_flat () =
  if Sys.backend_type = Sys.Native then begin
    let fs = fresh () in
    let root = Ffs.Fs.root fs in
    let small = create fs ~dir:root ~name:"small" ~size:(2 * block) in
    let large = create fs ~dir:root ~name:"large" ~size:(200 * block) in
    check_int "large file is 200 blocks" 200 (Array.length (entries fs large));
    let w_small = minor_words (fun () -> Ffs.Fs.delete_inum_exn fs small) in
    let w_large = minor_words (fun () -> Ffs.Fs.delete_inum_exn fs large) in
    if w_large > w_small then
      Alcotest.failf "deleting 200 blocks allocated %d words, 2 blocks %d" w_large w_small;
    Ffs.Check.check_invariants fs
  end

let test_delete_by_name () =
  let fs = fresh () in
  ignore (create fs ~dir:(Ffs.Fs.root fs) ~name:"x" ~size:100);
  Ffs.Fs.delete_file_exn fs ~dir:(Ffs.Fs.root fs) ~name:"x";
  Alcotest.(check (option int)) "lookup fails" None
    (Ffs.Fs.lookup fs ~dir:(Ffs.Fs.root fs) ~name:"x");
  check_int "no files" 0 (Ffs.Fs.file_count fs)

let test_rewrite_keeps_inode () =
  let fs = fresh () in
  let inum = create fs ~dir:(Ffs.Fs.root fs) ~name:"a" ~size:(2 * block) in
  Ffs.Fs.set_time fs 99.0;
  Ffs.Fs.rewrite_file_exn fs ~inum ~size:(4 * block);
  let ino = Ffs.Fs.inode fs inum in
  check_int "new size" (4 * block) ino.Ffs.Inode.size;
  check_int "four runs" 4 (Array.length ino.Ffs.Inode.entries);
  Alcotest.(check (float 0.0)) "mtime stamped" 99.0 ino.Ffs.Inode.mtime;
  Ffs.Check.check_invariants fs

(* --- directories -------------------------------------------------------------- *)

let test_mkdir_in_cg_pins_group () =
  let fs = fresh () in
  for cg = 0 to params.Ffs.Params.ncg - 1 do
    let d = Ffs.Fs.mkdir_in_cg_exn fs ~parent:(Ffs.Fs.root fs) ~name:(Fmt.str "d%d" cg) ~cg in
    check_int (Fmt.str "dir in group %d" cg) cg (Ffs.Fs.cg_of_inum fs d)
  done;
  Ffs.Check.check_invariants fs

let test_files_follow_directory_group () =
  let fs = fresh () in
  let d = Ffs.Fs.mkdir_in_cg_exn fs ~parent:(Ffs.Fs.root fs) ~name:"d" ~cg:2 in
  let inum = create fs ~dir:d ~name:"f" ~size:block in
  check_int "inode in dir's group" 2 (Ffs.Fs.cg_of_inum fs inum);
  let e = entries fs inum in
  check_int "data in dir's group" 2
    (Ffs.Params.group_of_frag params (Ffs.Inode.addr e.(0)));
  check_int "parent recorded" d (Ffs.Fs.dir_of_inum fs inum)

let test_dirpref_spreads () =
  let fs = fresh () in
  let cgs =
    List.init 8 (fun i ->
        Ffs.Fs.cg_of_inum fs (Ffs.Fs.mkdir_exn fs ~parent:(Ffs.Fs.root fs) ~name:(Fmt.str "d%d" i)))
  in
  let distinct = List.sort_uniq compare cgs in
  (* 8 fresh directories over 4 groups: dirpref must not pile them up *)
  check_int "uses every group" params.Ffs.Params.ncg (List.length distinct)

let test_dir_entries_order () =
  let fs = fresh () in
  let d = Ffs.Fs.mkdir_exn fs ~parent:(Ffs.Fs.root fs) ~name:"d" in
  let a = create fs ~dir:d ~name:"a" ~size:10 in
  let b = create fs ~dir:d ~name:"b" ~size:10 in
  Alcotest.(check (list (pair string int)))
    "insertion order" [ ("a", a); ("b", b) ] (Ffs.Fs.dir_entries fs d);
  Ffs.Fs.delete_file_exn fs ~dir:d ~name:"a";
  Alcotest.(check (list (pair string int))) "after delete" [ ("b", b) ] (Ffs.Fs.dir_entries fs d)

let test_rmdir () =
  let fs = fresh () in
  let before = Ffs.Fs.free_data_frags fs in
  let d = Ffs.Fs.mkdir_exn fs ~parent:(Ffs.Fs.root fs) ~name:"d" in
  ignore (create fs ~dir:d ~name:"f" ~size:100);
  (match Ffs.Error.guard (fun () -> Ffs.Fs.rmdir_exn fs ~parent:(Ffs.Fs.root fs) ~name:"d") with
  | Error (Ffs.Error.Directory_not_empty _) -> ()
  | Ok () | Error _ -> Alcotest.fail "expected Error Directory_not_empty");
  Ffs.Fs.delete_file_exn fs ~dir:d ~name:"f";
  Ffs.Fs.rmdir_exn fs ~parent:(Ffs.Fs.root fs) ~name:"d";
  check_int "space returned" before (Ffs.Fs.free_data_frags fs);
  Alcotest.(check (option int)) "gone" None (Ffs.Fs.lookup fs ~dir:(Ffs.Fs.root fs) ~name:"d");
  (match Ffs.Error.guard (fun () -> Ffs.Fs.rmdir_exn fs ~parent:(Ffs.Fs.root fs) ~name:"d") with
  | Error (Ffs.Error.No_such_name _) -> ()
  | Ok () | Error _ -> Alcotest.fail "expected Error No_such_name");
  Ffs.Check.check_invariants fs

let test_dir_growth () =
  let fs = fresh () in
  let d = Ffs.Fs.mkdir_exn fs ~parent:(Ffs.Fs.root fs) ~name:"d" in
  let frags_of_dir () = Ffs.Inode.frag_count (Ffs.Fs.inode fs d) in
  check_int "one fragment initially" 1 (frags_of_dir ());
  for i = 0 to 39 do
    ignore (create fs ~dir:d ~name:(Fmt.str "f%d" i) ~size:100)
  done;
  (* 40 entries: 1 + 40/16 = 3 fragments *)
  check_int "grew with entries" 3 (frags_of_dir ());
  Ffs.Check.check_invariants fs

(* --- allocation policy --------------------------------------------------------- *)

(* Fill then free alternating single blocks near the front of a group to
   create a sieve of one-block holes; a multi-block file then shows the
   difference between the two allocators. *)
let make_sieve fs ~dir ~holes =
  let victims = ref [] in
  for i = 0 to (2 * holes) - 1 do
    let inum = create fs ~dir ~name:(Fmt.str "sieve%d" i) ~size:block in
    if i mod 2 = 0 then victims := inum :: !victims
  done;
  List.iter (Ffs.Fs.delete_inum_exn fs) !victims

let test_traditional_fragments_in_sieve () =
  let fs = fresh () in
  let d = Ffs.Fs.mkdir_in_cg_exn fs ~parent:(Ffs.Fs.root fs) ~name:"d" ~cg:1 in
  make_sieve fs ~dir:d ~holes:30;
  let inum = create fs ~dir:d ~name:"big" ~size:(6 * block) in
  (* the traditional allocator fills the one-block holes: fragmented *)
  check_bool "fragmented" false (is_contiguous fs inum);
  Ffs.Check.check_invariants fs

let test_realloc_defragments_in_sieve () =
  let fs = fresh ~config:Ffs.Fs.realloc_config () in
  let d = Ffs.Fs.mkdir_in_cg_exn fs ~parent:(Ffs.Fs.root fs) ~name:"d" ~cg:1 in
  make_sieve fs ~dir:d ~holes:30;
  let inum = create fs ~dir:d ~name:"big" ~size:(6 * block) in
  (* the realloc pass relocates the window into a free cluster *)
  check_bool "contiguous" true (is_contiguous fs inum);
  check_bool "realloc moved something" true
    ((Ffs.Fs.stats fs).Ffs.Fs.realloc_moves >= 1);
  Ffs.Check.check_invariants fs

let test_realloc_not_invoked_below_two_blocks () =
  let fs = fresh ~config:Ffs.Fs.realloc_config () in
  let d = Ffs.Fs.mkdir_in_cg_exn fs ~parent:(Ffs.Fs.root fs) ~name:"d" ~cg:1 in
  make_sieve fs ~dir:d ~holes:10;
  let before = (Ffs.Fs.stats fs).Ffs.Fs.realloc_attempts in
  (* one full block plus a fragment tail: "does not fill the second
     block", so the realloc pass must not run *)
  ignore (create fs ~dir:d ~name:"small" ~size:(block + 3000));
  check_int "no attempt" before (Ffs.Fs.stats fs).Ffs.Fs.realloc_attempts;
  (* two full blocks do trigger it *)
  ignore (create fs ~dir:d ~name:"two" ~size:(2 * block));
  check_bool "attempted" true ((Ffs.Fs.stats fs).Ffs.Fs.realloc_attempts > before)

let test_indirect_block_switches_group () =
  let fs = fresh () in
  let d = Ffs.Fs.mkdir_in_cg_exn fs ~parent:(Ffs.Fs.root fs) ~name:"d" ~cg:0 in
  let size = 16 * block in
  let inum = create fs ~dir:d ~name:"big" ~size in
  let ino = Ffs.Fs.inode fs inum in
  check_int "16 data runs" 16 (Array.length ino.Ffs.Inode.entries);
  check_int "one indirect block" 1 (Array.length ino.Ffs.Inode.indirect_addrs);
  let cg_of a = Ffs.Params.group_of_frag params a in
  let first_cg = cg_of (Ffs.Inode.addr ino.Ffs.Inode.entries.(0)) in
  let ind_cg = cg_of ino.Ffs.Inode.indirect_addrs.(0) in
  let thirteenth_cg = cg_of (Ffs.Inode.addr ino.Ffs.Inode.entries.(12)) in
  check_int "first block in home group" 0 first_cg;
  check_bool "indirect in a different group" true (ind_cg <> first_cg);
  check_int "13th block follows the indirect block" ind_cg thirteenth_cg;
  check_int "space charge includes indirect"
    ((16 * fpb) + fpb)
    (Ffs.Inode.total_frags_with_metadata ino);
  Ffs.Check.check_invariants fs

let test_contiguous_stat () =
  let fs = fresh () in
  ignore (create fs ~dir:(Ffs.Fs.root fs) ~name:"a" ~size:(4 * block));
  let s = Ffs.Fs.stats fs in
  check_int "4 blocks allocated" 4 s.Ffs.Fs.blocks_allocated;
  check_int "3 contiguous continuations" 3 s.Ffs.Fs.contiguous_allocations

let test_rotdelay_spaces_blocks () =
  let params = Ffs.Params.v_exn ~ncg:4 ~rotdelay_blocks:1 ~size_bytes:(16 * 1024 * 1024) () in
  let fs = Ffs.Fs.create params in
  let inum = Ffs.Fs.create_file_exn fs ~dir:(Ffs.Fs.root fs) ~name:"gapped" ~size:(4 * block) in
  let e = (Ffs.Fs.inode fs inum).Ffs.Inode.entries in
  (* every consecutive pair sits one whole block apart *)
  for i = 1 to Array.length e - 1 do
    check_int
      (Fmt.str "gap before block %d" i)
      (Ffs.Inode.addr e.(i - 1) + (2 * fpb))
      (Ffs.Inode.addr e.(i))
  done;
  Ffs.Check.check_invariants fs

(* [f ()] with the default metrics registry on and emptied; its result
   and the registry's snapshot afterwards *)
let with_metrics f =
  let m = Obs.Metrics.default in
  let was_enabled = Obs.Metrics.enabled m in
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.reset m;
      Obs.Metrics.set_enabled m was_enabled)
    (fun () ->
      Obs.Metrics.reset m;
      Obs.Metrics.set_enabled m true;
      let v = f () in
      (v, Obs.Metrics.snapshot m))

(* Free preferred blocks are claimed a run at a time, but everything
   observable stays per block: one Data_set per block in logical order,
   and counters and metrics equal to what a block-at-a-time walk counts
   (a pref hit wherever a block landed on its preference). *)
let test_run_claim_per_block () =
  let fs = fresh () in
  let root = Ffs.Fs.root fs in
  (* a three-block hole, a two-block file, then free space: the walk
     mixes searches (misses) with claimed runs (hits) *)
  ignore (create fs ~dir:root ~name:"a" ~size:(3 * block));
  ignore (create fs ~dir:root ~name:"b" ~size:(2 * block));
  Ffs.Fs.delete_file_exn fs ~dir:root ~name:"a";
  let before = Ffs.Fs.stats fs in
  let nfull = 7 in
  let (inum, steps), snap =
    with_metrics (fun () ->
        Ffs.Fs.record_journal fs (fun () -> create fs ~dir:root ~name:"c" ~size:(nfull * block)))
  in
  let e = entries fs inum in
  let sets =
    List.filter_map
      (function Ffs.Journal.Data_set { addr; frags } -> Some (addr, frags) | _ -> None)
      steps
  in
  Alcotest.(check (list (pair int int)))
    "one Data_set per block, in logical order"
    (Array.to_list (Array.map (fun x -> (Ffs.Inode.addr x, Ffs.Inode.frags x)) e))
    sets;
  let home = Ffs.Params.data_base params (Ffs.Fs.cg_of_inum fs inum) in
  let hits = ref 0 and contig = ref 0 in
  for i = 0 to nfull - 1 do
    let pref = if i = 0 then home else Ffs.Inode.addr e.(i - 1) + fpb in
    if Ffs.Inode.addr e.(i) = pref then incr hits;
    if i > 0 && Ffs.Inode.addr e.(i) = pref then incr contig
  done;
  check_bool "both hits and misses" true (!hits >= 2 && !hits < nfull);
  let after = Ffs.Fs.stats fs in
  check_int "blocks counted" nfull
    (after.Ffs.Fs.blocks_allocated - before.Ffs.Fs.blocks_allocated);
  check_int "contiguous counted" !contig
    (after.Ffs.Fs.contiguous_allocations - before.Ffs.Fs.contiguous_allocations);
  let counter = Obs.Metrics.counter_value snap in
  check_int "ffs_alloc_blocks_total" nfull (counter "ffs_alloc_blocks_total");
  check_int "ffs_alloc_pref_hit_total" !hits (counter "ffs_alloc_pref_hit_total");
  check_int "ffs_alloc_pref_miss_total" (nfull - !hits) (counter "ffs_alloc_pref_miss_total");
  check_int "ffs_alloc_contiguous_total" !contig (counter "ffs_alloc_contiguous_total");
  Ffs.Check.check_invariants fs

(* with a rotational gap the preference is never the next block, so no
   claim may take more than one: every block lands on its own preference,
   two blocks on from the last, and none counts as contiguous *)
let test_rotdelay_claims_singly () =
  let params = Ffs.Params.v_exn ~ncg:4 ~rotdelay_blocks:1 ~size_bytes:(16 * 1024 * 1024) () in
  let fs = Ffs.Fs.create params in
  let n = 6 in
  let inum, snap =
    with_metrics (fun () ->
        Ffs.Fs.create_file_exn fs ~dir:(Ffs.Fs.root fs) ~name:"gapped" ~size:(n * block))
  in
  let e = (Ffs.Fs.inode fs inum).Ffs.Inode.entries in
  for i = 1 to n - 1 do
    check_int (Fmt.str "block %d one block past its predecessor's end" i)
      (Ffs.Inode.addr e.(i - 1) + (2 * fpb))
      (Ffs.Inode.addr e.(i))
  done;
  check_int "every later block a pref hit" (n - 1)
    (Obs.Metrics.counter_value snap "ffs_alloc_pref_hit_total");
  check_int "none contiguous" 0 (Ffs.Fs.stats fs).Ffs.Fs.contiguous_allocations;
  Ffs.Check.check_invariants fs

(* --- capacity and rollback ------------------------------------------------------ *)

let test_out_of_space_rollback () =
  let fs = fresh () in
  let d = Ffs.Fs.root fs in
  (* fill almost everything with one giant file per group *)
  let total = Ffs.Fs.total_data_frags fs in
  let chunk = total / 4 * 1024 / 2 in
  let made = ref 0 in
  (try
     for i = 0 to 20 do
       ignore (create fs ~dir:d ~name:(Fmt.str "filler%d" i) ~size:chunk);
       incr made
     done
   with Ffs.Error.Error Ffs.Error.Out_of_space -> ());
  check_bool "filled some" true (!made >= 2);
  let free_before = Ffs.Fs.free_data_frags fs in
  let files_before = Ffs.Fs.file_count fs in
  (match Ffs.Fs.create_file fs ~dir:d ~name:"toobig" ~size:(total * 1024) with
  | Error Ffs.Error.Out_of_space -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Error Out_of_space");
  check_int "free space unchanged after failed create" free_before
    (Ffs.Fs.free_data_frags fs);
  check_int "file count unchanged" files_before (Ffs.Fs.file_count fs);
  Ffs.Check.check_invariants fs

let test_copy_independence () =
  let fs = fresh () in
  let inum = create fs ~dir:(Ffs.Fs.root fs) ~name:"a" ~size:(2 * block) in
  let dup = Ffs.Fs.copy fs in
  Ffs.Fs.delete_inum_exn fs inum;
  check_bool "copy still has the file" true (Ffs.Fs.file_exists dup inum);
  ignore (create dup ~dir:(Ffs.Fs.root dup) ~name:"b" ~size:block);
  check_int "original unaffected" 0 (Ffs.Fs.file_count fs);
  Ffs.Check.check_invariants fs;
  Ffs.Check.check_invariants dup

(* A fork shares each group's extent index until either side's first
   index write; a fault injected into the fork's index is such a write,
   so it lands in the fork's own clone and the source stays clean. *)
let test_fork_index_faults_stay_private () =
  List.iter
    (fun (what, corrupt) ->
      let fs = fresh () in
      ignore (create fs ~dir:(Ffs.Fs.root fs) ~name:"a" ~size:(2 * block + 1024));
      let dup = Ffs.Fs.copy fs in
      corrupt (Ffs.Fs.cg_states dup).(0);
      Ffs.Check.check_invariants fs;
      match Ffs.Check.check_invariants dup with
      | () -> Alcotest.failf "%s: the fork's audit missed its corrupt index" what
      | exception Ffs.Error.Error (Ffs.Error.Corrupt _) -> ())
    [
      ("free toggle", fun cg -> Ffs.Cg.corrupt_index_toggle_free cg 0);
      ("fit toggle", fun cg -> Ffs.Cg.corrupt_index_toggle_fit cg (Ffs.Cg.data_blocks cg - 1) ~len:3);
    ]

(* A create whose directory-extension fragment fails after the entry
   went in: the volume is full, and the directory's sixteenth entry needs
   a second fragment. The rollback must remove the entry — also on a
   fork, where the directory state is shared with the source until the
   entry's write clones it — and leave the source untouched. *)
let test_dir_extension_rollback () =
  List.iter
    (fun forked ->
      let what = if forked then "fork" else "unforked" in
      let src = fresh () in
      let root = Ffs.Fs.root src in
      let d = Ffs.Fs.mkdir_exn src ~parent:root ~name:"d" in
      for i = 1 to 15 do
        ignore (create src ~dir:d ~name:(Fmt.str "e%d" i) ~size:0)
      done;
      let n = ref 0 in
      let rec fill size =
        if size >= 1 then
          match Ffs.Fs.create_file src ~dir:root ~name:(Fmt.str "fill%d" !n) ~size with
          | Ok _ ->
              incr n;
              fill size
          | Error Ffs.Error.Out_of_space -> fill (size / 2)
          | Error e -> Ffs.Error.raise_ e
      in
      fill (1 lsl 20);
      check_int (what ^ ": volume full") 0 (Ffs.Fs.free_data_frags src);
      let fs = if forked then Ffs.Fs.copy src else src in
      let src_digest = Ffs.Fs.digest src in
      let files = Ffs.Fs.file_count fs in
      (match Ffs.Fs.create_file fs ~dir:d ~name:"x" ~size:0 with
      | Error Ffs.Error.Out_of_space -> ()
      | Ok _ | Error _ -> Alcotest.failf "%s: expected Error Out_of_space" what);
      Alcotest.(check (option int)) (what ^ ": entry gone") None (Ffs.Fs.lookup fs ~dir:d ~name:"x");
      check_int (what ^ ": entries unchanged") 15 (List.length (Ffs.Fs.dir_entries fs d));
      check_int (what ^ ": file count unchanged") files (Ffs.Fs.file_count fs);
      Ffs.Check.check_invariants fs;
      check_bool (what ^ ": fsck clean") true (Ffs.Check.is_clean (Ffs.Check.run fs));
      if forked then
        Alcotest.(check string) "source untouched" src_digest (Ffs.Fs.digest src))
    [ false; true ]

let test_utilization () =
  let fs = fresh () in
  Alcotest.(check bool) "starts near zero" true (Ffs.Fs.utilization fs < 0.001);
  ignore (create fs ~dir:(Ffs.Fs.root fs) ~name:"a" ~size:(Ffs.Params.data_bytes params / 10));
  let u = Ffs.Fs.utilization fs in
  check_bool "about 10%" true (u > 0.09 && u < 0.12)

(* --- property: random workload keeps the image consistent ------------------------ *)

let prop_random_workload_invariants =
  let open QCheck in
  let op_gen =
    Gen.(
      frequency
        [
          (6, map (fun s -> `Create (1 + (s mod 200_000))) (int_bound 1_000_000));
          (3, return `Delete_random);
          (2, map (fun s -> `Rewrite (1 + (s mod 100_000))) (int_bound 1_000_000));
        ])
  in
  Test.make ~name:"random create/delete/rewrite keeps invariants (both allocators)"
    ~count:20
    (pair bool (make Gen.(list_size (int_bound 80) op_gen)))
    (fun (realloc, script) ->
      let config = if realloc then Ffs.Fs.realloc_config else Ffs.Fs.default_config in
      let fs = fresh ~config () in
      let d = Ffs.Fs.mkdir_exn fs ~parent:(Ffs.Fs.root fs) ~name:"w" in
      let live = ref [] in
      let name = ref 0 in
      List.iter
        (fun op ->
          match op with
          | `Create size -> (
              incr name;
              match Ffs.Fs.create_file fs ~dir:d ~name:(Fmt.str "f%d" !name) ~size with
              | Ok inum -> live := inum :: !live
              | Error Ffs.Error.Out_of_space -> ()
              | Error e -> Ffs.Error.raise_ e)
          | `Delete_random -> (
              match !live with
              | inum :: rest ->
                  Ffs.Fs.delete_inum_exn fs inum;
                  live := rest
              | [] -> ())
          | `Rewrite size -> (
              match !live with
              | inum :: _ -> (
                  match Ffs.Fs.rewrite_file fs ~inum ~size with
                  | Ok () | Error Ffs.Error.Out_of_space -> ()
                  | Error e -> Ffs.Error.raise_ e)
              | [] -> ()))
        script;
      Ffs.Check.check_invariants fs;
      true)

(* --- property: a fork and its source never see each other's writes --------- *)

type fork_op =
  | Create of int * int  (* directory pick, size *)
  | Delete of int
  | Rewrite of int * int
  | Mkdir
  | Rmdir of int
  | Reorder of int  (* Fs.set_entries: the same claims, runs reversed *)
  | Repair of int  (* drop a file's last run, then Check.repair reclaims it *)

let sorted_files fs =
  List.rev (Ffs.Fs.fold_files fs ~init:[] ~f:(fun acc i -> i.Ffs.Inode.inum :: acc))
let sorted_dirs fs = List.sort compare (Ffs.Fs.dir_inums fs)
let pick k = function [] -> None | xs -> Some (List.nth xs (k mod List.length xs))

(* One op, its choices drawn from [fs]'s own state, so an image and its
   twin of equal content make the same choice. *)
let apply_fork_op fs ~name op =
  let ignore_full = function
    | Ok _ | Error Ffs.Error.Out_of_space -> ()
    | Error e -> Ffs.Error.raise_ e
  in
  match op with
  | Create (k, size) ->
      Option.iter
        (fun dir -> ignore_full (Ffs.Fs.create_file fs ~dir ~name ~size))
        (pick k (sorted_dirs fs))
  | Delete k -> Option.iter (Ffs.Fs.delete_inum_exn fs) (pick k (sorted_files fs))
  | Rewrite (k, size) ->
      Option.iter
        (fun inum -> ignore_full (Ffs.Fs.rewrite_file fs ~inum ~size))
        (pick k (sorted_files fs))
  | Mkdir ->
      ignore_full (Ffs.Error.guard (fun () -> Ffs.Fs.mkdir_exn fs ~parent:(Ffs.Fs.root fs) ~name))
  | Rmdir k ->
      let empty =
        List.filter
          (fun d -> d <> Ffs.Fs.root fs && Ffs.Fs.dir_entries fs d = [])
          (sorted_dirs fs)
      in
      Option.iter
        (fun d ->
          let parent = Ffs.Fs.dir_of_inum fs d in
          let name, _ = List.find (fun (_, i) -> i = d) (Ffs.Fs.dir_entries fs parent) in
          Ffs.Fs.rmdir_exn fs ~parent ~name)
        (pick k empty)
  | Reorder k ->
      Option.iter
        (fun inum ->
          let ino = Ffs.Fs.inode fs inum in
          let e = ino.Ffs.Inode.entries in
          let n = Array.length e in
          Ffs.Fs.set_entries fs ino (Array.init n (fun i -> e.(n - 1 - i))))
        (pick k (sorted_files fs))
  | Repair k ->
      Option.iter
        (fun inum ->
          let ino = Ffs.Fs.inode fs inum in
          let e = ino.Ffs.Inode.entries in
          if Array.length e > 0 then
            Ffs.Fs.set_entries fs ino (Array.sub e 0 (Array.length e - 1)))
        (pick k (sorted_files fs));
      ignore (Ffs.Check.repair_exn fs)

let prop_fork_independence =
  let open QCheck in
  let op_gen =
    Gen.(
      frequency
        [
          (6, map2 (fun k s -> Create (k, s mod 150_000)) nat (int_bound 1_000_000));
          (3, map (fun k -> Delete k) nat);
          (2, map2 (fun k s -> Rewrite (k, s mod 100_000)) nat (int_bound 1_000_000));
          (1, return Mkdir);
          (1, map (fun k -> Rmdir k) nat);
          (1, map (fun k -> Reorder k) nat);
          (1, map (fun k -> Repair k) nat);
        ])
  in
  (* each step names the side it runs on: 0 the source, 1 its fork, 2
     the fork's fork (made at the midpoint) *)
  let step_gen = Gen.(pair (int_bound 2) op_gen) in
  Test.make ~name:"a fork and its source write independently (both directions)" ~count:40
    (make Gen.(triple (list_size (int_bound 30) op_gen) (list_size (int_bound 40) step_gen)
                 (list_size (int_bound 40) step_gen)))
    (fun (prefix, before, after) ->
      let src = fresh () in
      List.iteri (fun i op -> apply_fork_op src ~name:(Fmt.str "p%d" i) op) prefix;
      let twin fs = Ffs.Fs.of_portable (Ffs.Fs.to_portable fs) in
      (* sides as (image, unforked twin); twins are taken before forking *)
      let s0 = (src, twin src) in
      let s1 =
        let t = twin src in
        (Ffs.Fs.copy src, t)
      in
      (* [Fs.digest] does not cover the derived extent index, which
         forks share until their first write: every side is audited,
         index included, after every step, so a write that reaches
         another side's index fails at once *)
      let run sides steps tag =
        List.iteri
          (fun i (side, op) ->
            let fs, tw = sides.(side mod Array.length sides) in
            let name = Fmt.str "%s%d" tag i in
            apply_fork_op fs ~name op;
            apply_fork_op tw ~name op;
            Array.iter (fun (fs, _) -> Ffs.Check.check_invariants fs) sides)
          steps
      in
      run [| s0; s1 |] before "b";
      let s2 =
        let t = twin (fst s1) in
        (Ffs.Fs.copy (fst s1), t)
      in
      run [| s0; s1; s2 |] after "a";
      List.iter
        (fun (fs, tw) ->
          Ffs.Check.check_invariants fs;
          if Ffs.Fs.digest fs <> Ffs.Fs.digest tw then
            Test.fail_reportf "digest differs from the unforked twin: %a"
              Fmt.(list ~sep:comma (pair ~sep:(any "=") string string))
              (List.filter
                 (fun (k, v) -> List.assoc k (Ffs.Fs.digest_parts tw) <> v)
                 (Ffs.Fs.digest_parts fs)))
        [ s0; s1; s2 ];
      true)

(* --- packed runs ------------------------------------------------------------- *)

(* A run packs into one int and unpacks to what went in, for addresses
   of either sign (fsck's tests plant negative ones) and every legal
   fragment count. *)
let prop_entry_roundtrip =
  let open QCheck in
  Test.make ~name:"Inode.entry/addr/frags round-trip" ~count:1000
    (make
       Gen.(
         pair
           (oneof [ int_range (-1_000_000) 1_000_000; int_range (-(1 lsl 58)) ((1 lsl 58) - 1) ])
           (int_range 0 15)))
    (fun (addr, frags) ->
      let e = Ffs.Inode.entry ~addr ~frags in
      Ffs.Inode.addr e = addr && Ffs.Inode.frags e = frags)

let test_entry_rejects_frags () =
  List.iter
    (fun frags ->
      match Ffs.Inode.entry ~addr:40 ~frags with
      | _ -> Alcotest.failf "frags %d was packed" frags
      | exception Invalid_argument _ -> ())
    [ -1; 16; 17; max_int; min_int ]

(* the portable form refuses a run that cannot pack *)
let test_of_portable_rejects_frags () =
  let fs = fresh () in
  let inum = Ffs.Fs.create_file_exn fs ~dir:(Ffs.Fs.root fs) ~name:"f" ~size:20_000 in
  let p = Ffs.Fs.to_portable fs in
  List.iter
    (fun frags ->
      let bad (i, pi) =
        if i <> inum then (i, pi)
        else
          ( i,
            {
              pi with
              Ffs.Fs.pi_entries =
                Array.map (fun r -> { r with Ffs.Fs.frags }) pi.Ffs.Fs.pi_entries;
            } )
      in
      match Ffs.Fs.of_portable { p with Ffs.Fs.pf_inodes = List.map bad p.Ffs.Fs.pf_inodes } with
      | _ -> Alcotest.failf "an image with a %d-fragment run loaded" frags
      | exception Ffs.Error.Error (Ffs.Error.Corrupt _) -> ())
    [ -1; 16 ];
  (* and the untouched form still loads to the same digest *)
  Alcotest.(check string) "round trip" (Ffs.Fs.digest fs) (Ffs.Fs.digest (Ffs.Fs.of_portable p))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "fs"
    [
      ( "basics",
        [
          tc "empty fs" test_empty_fs;
          tc "small file" test_create_small_file;
          tc "multi-block contiguous" test_create_multi_block_contiguous_on_empty;
          tc "tail fragments" test_tail_fragments;
          tc "duplicate name" test_duplicate_name_rejected;
          tc "delete releases space" test_delete_releases_space;
          tc "delete by name" test_delete_by_name;
          tc "delete journals per entry" test_delete_journal_per_entry;
          tc "delete allocation flat" test_delete_allocation_flat;
          tc "rewrite keeps inode" test_rewrite_keeps_inode;
        ] );
      ( "directories",
        [
          tc "mkdir_in_cg pins" test_mkdir_in_cg_pins_group;
          tc "files follow dir group" test_files_follow_directory_group;
          tc "dirpref spreads" test_dirpref_spreads;
          tc "entry order" test_dir_entries_order;
          tc "rmdir" test_rmdir;
          tc "dir growth" test_dir_growth;
        ] );
      ( "allocation policy",
        [
          tc "traditional fragments in sieve" test_traditional_fragments_in_sieve;
          tc "realloc defragments in sieve" test_realloc_defragments_in_sieve;
          tc "realloc 2-block threshold" test_realloc_not_invoked_below_two_blocks;
          tc "indirect switches group" test_indirect_block_switches_group;
          tc "contiguity stats" test_contiguous_stat;
          tc "rotdelay spaces blocks" test_rotdelay_spaces_blocks;
          tc "run claims count per block" test_run_claim_per_block;
          tc "rotdelay claims singly" test_rotdelay_claims_singly;
        ] );
      ( "capacity",
        [
          tc "out-of-space rollback" test_out_of_space_rollback;
          tc "copy independence" test_copy_independence;
          tc "dir-extension rollback" test_dir_extension_rollback;
          tc "utilization" test_utilization;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_random_workload_invariants;
          tc "fork index faults stay private" test_fork_index_faults_stay_private;
          QCheck_alcotest.to_alcotest prop_fork_independence;
          QCheck_alcotest.to_alcotest prop_entry_roundtrip;
          tc "entry rejects frags outside 0..15" test_entry_rejects_frags;
          tc "of_portable rejects an unpackable run" test_of_portable_rejects_frags;
        ] );
    ]
