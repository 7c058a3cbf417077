(* Tests for the layout-score metric, on hand-built inodes and on real
   file systems. *)

let check_bool = Alcotest.(check bool)
let _ = check_bool
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let params = Ffs.Params.small_test_fs
let block = params.Ffs.Params.block_bytes

let inode_of_runs runs =
  {
    Ffs.Inode.inum = 1;
    kind = Ffs.Inode.File;
    size = 8192 * List.length runs;
    entries = Array.of_list (List.map (fun (addr, frags) -> { Ffs.Inode.addr; frags }) runs);
    indirect_addrs = [||];
    ctime = 0.0;
    mtime = 0.0;
  }

let test_single_run_undefined () =
  Alcotest.(check (option (float 0.0))) "one-block file" None
    (Aging.Layout_score.file_score (inode_of_runs [ (0, 8) ]));
  Alcotest.(check (option (float 0.0))) "empty file" None
    (Aging.Layout_score.file_score (inode_of_runs []))

let test_perfect_file () =
  let ino = inode_of_runs [ (0, 8); (8, 8); (16, 8) ] in
  Alcotest.(check (option (float 1e-9))) "perfect" (Some 1.0)
    (Aging.Layout_score.file_score ino);
  Alcotest.(check (pair int int)) "counts" (2, 2) (Aging.Layout_score.file_counts ino)

let test_fully_fragmented () =
  let ino = inode_of_runs [ (0, 8); (100, 8); (200, 8) ] in
  Alcotest.(check (option (float 1e-9))) "zero" (Some 0.0)
    (Aging.Layout_score.file_score ino)

let test_half_fragmented () =
  let ino = inode_of_runs [ (0, 8); (8, 8); (100, 8) ] in
  Alcotest.(check (option (float 1e-9))) "half" (Some 0.5)
    (Aging.Layout_score.file_score ino)

let test_tail_fragment_counts () =
  (* the tail run counts like a block: contiguous iff it follows the
     previous run's end *)
  let good = inode_of_runs [ (0, 8); (8, 3) ] in
  Alcotest.(check (option (float 1e-9))) "contiguous tail" (Some 1.0)
    (Aging.Layout_score.file_score good);
  let bad = inode_of_runs [ (0, 8); (64, 3) ] in
  Alcotest.(check (option (float 1e-9))) "detached tail" (Some 0.0)
    (Aging.Layout_score.file_score bad)

let test_backward_runs_not_optimal () =
  let ino = inode_of_runs [ (64, 8); (0, 8) ] in
  Alcotest.(check (option (float 1e-9))) "backward jump" (Some 0.0)
    (Aging.Layout_score.file_score ino)

let test_aggregate_empty_fs () =
  let fs = Ffs.Fs.create params in
  check_float "empty fs is unfragmented" 1.0 (Aging.Layout_score.aggregate fs)

let test_aggregate_weighting () =
  (* aggregate weighs by block count, not per-file averaging: one
     perfect 11-block file and one broken 2-block file give 10/11 *)
  let fs = Ffs.Fs.create params in
  let d = Ffs.Fs.root fs in
  ignore (Ffs.Fs.create_file_exn fs ~dir:d ~name:"big" ~size:(11 * block));
  (* fabricate a fragmented file by hand *)
  let inum = Ffs.Fs.create_file_exn fs ~dir:d ~name:"frag" ~size:(2 * block) in
  let ino = Ffs.Fs.inode fs inum in
  (* detach its second block artificially for the metric (no allocator
     involvement; we only test the arithmetic). The write goes through
     the entries setter, which keeps the layout counters in step. *)
  let e = ino.Ffs.Inode.entries in
  let moved = { e.(1) with Ffs.Inode.addr = e.(1).Ffs.Inode.addr + 800 } in
  Ffs.Fs.set_entries fs ino [| e.(0); moved |];
  check_float "10 of 11 optimal" (10.0 /. 11.0) (Aging.Layout_score.aggregate fs)

let test_aggregate_of_subset () =
  let fs = Ffs.Fs.create params in
  let d = Ffs.Fs.root fs in
  let a = Ffs.Fs.create_file_exn fs ~dir:d ~name:"a" ~size:(3 * block) in
  let _b = Ffs.Fs.create_file_exn fs ~dir:d ~name:"b" ~size:(3 * block) in
  check_float "subset of one perfect file" 1.0
    (Aging.Layout_score.aggregate_of fs ~inums:[ a ])

(* The aggregate reads the file system's layout counters; they must
   equal a fold of the per-file counts over the inode table, and fsck
   must find nothing to say about them. *)
let check_counters what fs =
  let optimal, counted =
    Ffs.Fs.fold_files fs ~init:(0, 0) ~f:(fun (o, c) ino ->
        let fo, fc = Aging.Layout_score.file_counts ino in
        (o + fo, c + fc))
  in
  check_bool (what ^ ": has multi-block files") true (counted > 0);
  Alcotest.(check (pair int int)) (what ^ ": counters = fold") (optimal, counted)
    (Ffs.Fs.layout_counts fs);
  Alcotest.(check (float 0.0))
    (what ^ ": aggregate = optimal / counted")
    (float_of_int optimal /. float_of_int counted)
    (Aging.Layout_score.aggregate fs);
  check_bool (what ^ ": no layout counter problem") false
    (List.exists
       (function Ffs.Check.Layout_counter_mismatch _ -> true | _ -> false)
       (Ffs.Check.run fs).Ffs.Check.problems)

let aged_ops days =
  (Workload.Ground_truth.generate params (Workload.Ground_truth.scaled params ~days))
    .Workload.Ground_truth.ops

(* on real aged images of both allocators, and through every path that
   builds or rebuilds the tables: the parallel replay, crash repair,
   the portable form and copies *)
let test_aggregate_matches_file_counts () =
  let days = 5 in
  let ops = aged_ops days in
  List.iter
    (fun (name, config) ->
      let fs = (Aging.Replay.run ~config ~params ~days ops).Aging.Replay.fs in
      check_counters name fs;
      check_counters (name ^ " portable") (Ffs.Fs.of_portable (Ffs.Fs.to_portable fs));
      check_counters (name ^ " copy") (Ffs.Fs.copy fs))
    [ ("traditional", Ffs.Fs.default_config); ("realloc", Ffs.Fs.realloc_config) ]

let test_counters_parallel_and_crashes () =
  let days = 5 in
  let ops = aged_ops days in
  Par.Pool.with_pool ~jobs:2 (fun pool ->
      check_counters "jobs-2 run_parallel"
        (Aging.Replay.run_parallel ~pool ~params ~days ops).Aging.Replay.fs);
  let c = Aging.Replay.run_with_crashes ~params ~days ~crashes:2 ~fault_seed:7 ops in
  check_counters "run_with_crashes" c.Aging.Replay.result.Aging.Replay.fs

(* a raw inode-table write that bypasses the setter leaves the counters
   stale: fsck reports it, and repair recounts *)
let test_stale_counters_repaired () =
  let fs = Ffs.Fs.create params in
  let d = Ffs.Fs.root fs in
  ignore (Ffs.Fs.create_file_exn fs ~dir:d ~name:"big" ~size:(11 * block));
  let inum = Ffs.Fs.create_file_exn fs ~dir:d ~name:"frag" ~size:(3 * block) in
  (* the same claims in another order: only the links change *)
  Ffs.Fs.corrupt_inode fs inum (fun ino ->
      let e = ino.Ffs.Inode.entries in
      { ino with Ffs.Inode.entries = [| e.(1); e.(0); e.(2) |] });
  let stale r =
    List.exists
      (function Ffs.Check.Layout_counter_mismatch _ -> true | _ -> false)
      r.Ffs.Check.problems
  in
  check_bool "audit flags the stale counters" true (stale (Ffs.Check.run fs));
  let log = Ffs.Check.repair_exn fs in
  check_int "repair rebuilt the one group" 1 log.Ffs.Check.groups_rebuilt;
  check_int "no space moved" 0
    (log.Ffs.Check.leaked_frags_reclaimed + log.Ffs.Check.missing_frags_remarked);
  check_bool "repair clears the mismatch" true (Ffs.Check.is_clean (Ffs.Check.run fs));
  Alcotest.(check (pair int int)) "recounted" (10, 12) (Ffs.Fs.layout_counts fs)

let test_by_size_buckets () =
  let fs = Ffs.Fs.create params in
  let d = Ffs.Fs.root fs in
  ignore (Ffs.Fs.create_file_exn fs ~dir:d ~name:"s" ~size:(16 * 1024));
  ignore (Ffs.Fs.create_file_exn fs ~dir:d ~name:"m" ~size:(100 * 1024));
  ignore (Ffs.Fs.create_file_exn fs ~dir:d ~name:"tiny" ~size:1000);
  (* one-block file excluded *)
  let buckets = Aging.Layout_score.by_size fs ~inums:None in
  check_int "two populated buckets" 2 (List.length buckets);
  let b16 = List.find (fun b -> b.Aging.Layout_score.max_bytes = 16 * 1024) buckets in
  check_int "one file in 16K bucket" 1 b16.Aging.Layout_score.files;
  check_int "one counted block" 1 b16.Aging.Layout_score.counted_blocks;
  let b128 = List.find (fun b -> b.Aging.Layout_score.max_bytes = 128 * 1024) buckets in
  check_int "100KB file in 128K bucket" 1 b128.Aging.Layout_score.files

let test_by_size_overflow_bucket () =
  let fs = Ffs.Fs.create params in
  let d = Ffs.Fs.root fs in
  ignore (Ffs.Fs.create_file_exn fs ~dir:d ~name:"big" ~size:(3 * 1024 * 1024));
  let buckets =
    Aging.Layout_score.by_size ~bucket_lo:(16 * 1024) ~bucket_hi:(1024 * 1024) fs
      ~inums:None
  in
  check_int "lands in the last bucket" (1024 * 1024)
    (List.fold_left (fun acc b -> max acc b.Aging.Layout_score.max_bytes) 0 buckets)

let prop_score_in_unit_interval =
  QCheck.Test.make ~name:"file score always within [0,1]" ~count:500
    QCheck.(list_of_size Gen.(int_range 2 20) (pair (int_bound 10_000) (int_range 1 8)))
    (fun runs ->
      let ino = inode_of_runs runs in
      match Aging.Layout_score.file_score ino with
      | None -> false
      | Some s -> s >= 0.0 && s <= 1.0)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "layout_score"
    [
      ( "file scores",
        [
          tc "single run undefined" test_single_run_undefined;
          tc "perfect" test_perfect_file;
          tc "fully fragmented" test_fully_fragmented;
          tc "half" test_half_fragmented;
          tc "tail fragment" test_tail_fragment_counts;
          tc "backward" test_backward_runs_not_optimal;
        ] );
      ( "aggregate",
        [
          tc "empty fs" test_aggregate_empty_fs;
          tc "block weighting" test_aggregate_weighting;
          tc "subset" test_aggregate_of_subset;
          tc "matches file counts when aged" test_aggregate_matches_file_counts;
          tc "counters after parallel and crashes" test_counters_parallel_and_crashes;
          tc "stale counters repaired" test_stale_counters_repaired;
          tc "by-size buckets" test_by_size_buckets;
          tc "overflow bucket" test_by_size_overflow_bucket;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_score_in_unit_interval ]);
    ]
