(* Tests for intra-volume parallel aging: the per-cylinder-group lock
   table's discipline (pinning, ordered multi-group acquisition, the
   deadlock canary), Cross_cg confinement, concurrent per-group
   alloc/free/realloc safety from real domains, and the headline
   determinism property — run_parallel is bit-identical (image digest,
   score series, allocation counters) at every jobs level. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let exact_scores = Alcotest.(check (array (float 0.0)))
let params = Ffs.Params.small_test_fs
let days = 10

let workload ?(seed = 31337) () =
  let profile =
    { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed = seed }
  in
  (Workload.Ground_truth.generate params profile).Workload.Ground_truth.ops

let assert_fsck_clean fs =
  let report = Ffs.Check.run fs in
  if not (Ffs.Check.is_clean report) then
    Alcotest.failf "parallel-aged image fails fsck: %a" Ffs.Check.pp report

(* --- lock table basics ------------------------------------------------------ *)

let test_pin_visible () =
  let locks = Ffs.Locks.create ~ncg:4 in
  check_bool "unpinned outside" true (Ffs.Locks.pinned () = None);
  Ffs.Locks.with_pin locks ~cg:2 (fun () ->
      check_bool "pinned inside" true (Ffs.Locks.pinned () = Some 2));
  check_bool "unpinned after" true (Ffs.Locks.pinned () = None)

let test_pin_cleared_on_raise () =
  let locks = Ffs.Locks.create ~ncg:4 in
  (try Ffs.Locks.with_pin locks ~cg:1 (fun () -> failwith "boom") with Failure _ -> ());
  check_bool "pin cleared after exception" true (Ffs.Locks.pinned () = None);
  (* the lock must have been released too: re-pinning must not block *)
  Ffs.Locks.with_pin locks ~cg:1 (fun () -> ())

let test_pin_no_nesting () =
  let locks = Ffs.Locks.create ~ncg:4 in
  Alcotest.check_raises "nested pin rejected"
    (Invalid_argument "Locks.with_pin: domain already pinned") (fun () ->
      Ffs.Locks.with_pin locks ~cg:0 (fun () ->
          Ffs.Locks.with_pin locks ~cg:1 (fun () -> ())))

let test_stats_counted () =
  let locks = Ffs.Locks.create ~ncg:4 in
  let before = Ffs.Locks.stats locks in
  Ffs.Locks.with_pin locks ~cg:0 (fun () -> ());
  Ffs.Locks.with_cgs locks [ 2; 1 ] (fun () -> ());
  let d = Ffs.Locks.diff ~before ~after:(Ffs.Locks.stats locks) in
  check_int "three acquisitions" 3 d.Ffs.Locks.acquisitions;
  check_int "uncontended" 0 d.Ffs.Locks.contended

(* Two domains take the same pair of group locks, each writing the pair
   in the opposite order; with_cgs sorts before acquiring, so this must
   complete. A watchdog bounds the wait so a regression shows up as a
   test failure rather than a hung suite. *)
let test_deadlock_canary () =
  let locks = Ffs.Locks.create ~ncg:4 in
  let iterations = 2000 in
  let finished = Atomic.make 0 in
  let spin order () =
    for _ = 1 to iterations do
      Ffs.Locks.with_cgs locks order (fun () -> ())
    done;
    Atomic.incr finished
  in
  let d1 = Domain.spawn (spin [ 0; 3 ]) in
  let d2 = Domain.spawn (spin [ 3; 0 ]) in
  let deadline = Unix.gettimeofday () +. 20.0 in
  while Atomic.get finished < 2 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  if Atomic.get finished < 2 then
    Alcotest.fail "deadlock canary: opposite-order with_cgs did not finish in 20s";
  Domain.join d1;
  Domain.join d2

(* --- Cross_cg confinement --------------------------------------------------- *)

(* a fs with one directory per group, the engine's layout *)
let fs_with_group_dirs () =
  let fs = Ffs.Fs.create params in
  let dirs =
    Array.init params.Ffs.Params.ncg (fun cg ->
        Ffs.Fs.mkdir_in_cg_exn fs ~parent:(Ffs.Fs.root fs) ~name:(Fmt.str "cg%03d" cg) ~cg)
  in
  (fs, dirs)

let test_cross_cg_refused () =
  let fs, dirs = fs_with_group_dirs () in
  let locks = Ffs.Locks.create ~ncg:params.Ffs.Params.ncg in
  Ffs.Locks.with_pin locks ~cg:0 (fun () ->
      match Ffs.Fs.create_file_at fs ~time:1.0 ~dir:dirs.(1) ~name:"foreign" ~size:8192 with
      | Error (Ffs.Error.Cross_cg { cg = 1; pinned = 0 }) -> ()
      | Error e -> Alcotest.failf "expected Cross_cg, got %a" Ffs.Error.pp e
      | Ok _ -> Alcotest.fail "create in a foreign group succeeded while pinned");
  (* the refusal must be a full rollback: the fs still checks out *)
  Ffs.Fs.check_invariants fs;
  assert_fsck_clean fs

let test_cross_cg_rollback_restores_state () =
  let fs, dirs = fs_with_group_dirs () in
  let locks = Ffs.Locks.create ~ncg:params.Ffs.Params.ncg in
  let free_counts () =
    Array.map
      (fun g -> (Ffs.Cg.free_frag_count g, Ffs.Cg.free_block_count g, Ffs.Cg.inodes_free g))
      (Ffs.Fs.cg_states fs)
  in
  let files_before = Ffs.Fs.file_count fs in
  let free_before = free_counts () in
  (* a file big enough to cross the indirect boundary defers even in its
     own group — and must leave no trace behind (heuristic state such as
     allocation rotors and cumulative stats may move; space must not) *)
  let huge = 20 * 1024 * 1024 in
  Ffs.Locks.with_pin locks ~cg:2 (fun () ->
      match Ffs.Fs.create_file_at fs ~time:1.0 ~dir:dirs.(2) ~name:"huge" ~size:huge with
      | Error (Ffs.Error.Cross_cg _) -> ()
      | Error e -> Alcotest.failf "expected Cross_cg, got %a" Ffs.Error.pp e
      | Ok _ -> Alcotest.fail "indirect-boundary create succeeded while pinned");
  check_int "no file left behind" files_before (Ffs.Fs.file_count fs);
  Array.iteri
    (fun i (ff, fb, ni) ->
      let ff', fb', ni' = free_before.(i) in
      check_int (Fmt.str "cg %d free frags restored" i) ff' ff;
      check_int (Fmt.str "cg %d free blocks restored" i) fb' fb;
      check_int (Fmt.str "cg %d free inodes restored" i) ni' ni)
    (free_counts ());
  Ffs.Fs.check_invariants fs;
  assert_fsck_clean fs

(* --- concurrent per-group operations from real domains ---------------------- *)

(* N domains hammer create/modify/delete in their own pinned groups;
   the combined image must have no double-claims (check_invariants
   cross-checks every fragment) and pass the full fsck audit. *)
let test_concurrent_group_ops_safe () =
  let fs, dirs = fs_with_group_dirs () in
  let ncg = params.Ffs.Params.ncg in
  let locks = Ffs.Locks.create ~ncg in
  let worker cg () =
    let rng = Util.Prng.create ~seed:(7000 + cg) in
    for i = 1 to 150 do
      Ffs.Locks.with_pin locks ~cg (fun () ->
          let name = Fmt.str "f%d_%d" cg i in
          let size = 1024 + Util.Prng.int rng (96 * 1024) in
          match
            Ffs.Fs.create_file_at fs ~time:(float_of_int i) ~dir:dirs.(cg) ~name ~size
          with
          | Error (Ffs.Error.Cross_cg _ | Ffs.Error.Out_of_space) -> ()
          | Error e -> Ffs.Error.raise_ e
          | Ok inum ->
              if Util.Prng.int rng 3 = 0 then
                match Ffs.Fs.delete_inum fs inum with
                | Ok () | Error (Ffs.Error.Cross_cg _) -> ()
                | Error e -> Ffs.Error.raise_ e
              else if Util.Prng.int rng 3 = 1 then
                match
                  Ffs.Fs.rewrite_file_at fs ~time:(float_of_int i) ~inum
                    ~size:(1024 + Util.Prng.int rng (32 * 1024))
                with
                | Ok () | Error (Ffs.Error.Cross_cg _ | Ffs.Error.Out_of_space) -> ()
                | Error e -> Ffs.Error.raise_ e)
    done
  in
  let domains = List.init (min 4 ncg) (fun cg -> Domain.spawn (worker cg)) in
  List.iter Domain.join domains;
  Ffs.Fs.check_invariants fs;
  assert_fsck_clean fs

(* --- run_parallel determinism ----------------------------------------------- *)

let run_parallel_at ~jobs ops =
  Obs.Metrics.reset Obs.Metrics.default;
  Obs.Metrics.set_enabled Obs.Metrics.default true;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled Obs.Metrics.default false)
    (fun () ->
      let r =
        Par.Pool.with_pool ~jobs (fun pool ->
            Aging.Replay.run_parallel ~pool ~params ~days ops)
      in
      let blocks =
        Obs.Metrics.counter_value (Obs.Metrics.snapshot Obs.Metrics.default)
          "ffs_alloc_blocks_total"
      in
      (r, blocks))

let test_jobs_levels_bit_identical () =
  let ops = workload () in
  let (r1, b1) = run_parallel_at ~jobs:1 ops in
  let (r2, b2) = run_parallel_at ~jobs:2 ops in
  let (r4, b4) = run_parallel_at ~jobs:4 ops in
  let d1 = Ffs.Fs.digest r1.Aging.Replay.fs in
  check_string "digest jobs 1 = jobs 2" d1 (Ffs.Fs.digest r2.Aging.Replay.fs);
  check_string "digest jobs 1 = jobs 4" d1 (Ffs.Fs.digest r4.Aging.Replay.fs);
  exact_scores "scores jobs 1 = jobs 2" r1.Aging.Replay.daily_scores r2.Aging.Replay.daily_scores;
  exact_scores "scores jobs 1 = jobs 4" r1.Aging.Replay.daily_scores r4.Aging.Replay.daily_scores;
  check_int "blocks_allocated equal (stats)"
    (Ffs.Fs.stats r1.Aging.Replay.fs).Ffs.Fs.blocks_allocated
    (Ffs.Fs.stats r4.Aging.Replay.fs).Ffs.Fs.blocks_allocated;
  check_int "ffs_alloc_blocks_total jobs 1 = jobs 2" b1 b2;
  check_int "ffs_alloc_blocks_total jobs 1 = jobs 4" b1 b4;
  check_int "skips equal" r1.Aging.Replay.skipped_ops r4.Aging.Replay.skipped_ops;
  Ffs.Fs.check_invariants r4.Aging.Replay.fs;
  assert_fsck_clean r4.Aging.Replay.fs

(* The serial and parallel engines order a day's operations differently
   (deferred ops run at day end), so under space pressure their skip
   decisions — and hence live sets — may legitimately diverge. On a
   lightly-loaded volume neither engine skips anything, and then the
   live set (names, sizes, file count) must agree exactly. *)
let test_parallel_matches_serial_live_set () =
  let days = 3 in
  let profile =
    { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed = 4242 }
  in
  let ops = (Workload.Ground_truth.generate params profile).Workload.Ground_truth.ops in
  let serial = Aging.Replay.run ~params ~days ops in
  let par =
    Par.Pool.with_pool ~jobs:4 (fun pool ->
        Aging.Replay.run_parallel ~pool ~params ~days ops)
  in
  check_int "serial engine skips nothing" 0 serial.Aging.Replay.skipped_ops;
  check_int "parallel engine skips nothing" 0 par.Aging.Replay.skipped_ops;
  check_int "file count matches serial engine"
    (Ffs.Fs.file_count serial.Aging.Replay.fs)
    (Ffs.Fs.file_count par.Aging.Replay.fs);
  check_int "ino map matches serial engine"
    (Hashtbl.length serial.Aging.Replay.ino_map)
    (Hashtbl.length par.Aging.Replay.ino_map);
  assert_fsck_clean par.Aging.Replay.fs

let test_day_stats_reported () =
  let ops = workload () in
  let stats = ref [] in
  let _r =
    Par.Pool.with_pool ~jobs:2 (fun pool ->
        Aging.Replay.run_parallel ~pool
          ~on_day_stats:(fun s -> stats := s :: !stats)
          ~params ~days ops)
  in
  let stats = List.rev !stats in
  check_int "one day_stats per day" days (List.length stats);
  List.iteri
    (fun i (s : Aging.Replay.day_stats) ->
      check_int (Fmt.str "day %d in order" i) i s.Aging.Replay.day;
      check_bool "deferred <= ops" true (s.Aging.Replay.deferred <= s.Aging.Replay.day_ops);
      check_bool "lock acquisitions at least batches" true
        (s.Aging.Replay.lock_stats.Ffs.Locks.acquisitions >= s.Aging.Replay.batches))
    stats;
  let total_ops = List.fold_left (fun a s -> a + s.Aging.Replay.day_ops) 0 stats in
  check_bool "day slices cover the workload" true (total_ops <= Array.length ops)

(* the QCheck sweep: any seed's workload ages to the same image at jobs
   1 and jobs 4, and the image is always audit-clean (no double claims,
   consistent bitmaps/counters). The audit runs before the digest
   comparison on purpose: an audit only reads, so the digest must come
   out the same either way. *)
let qcheck_jobs_identity =
  QCheck.Test.make ~name:"run_parallel jobs-independence over random workloads" ~count:5
    QCheck.(int_bound 100_000)
    (fun seed ->
      let ops = workload ~seed () in
      let (r1, b1) = run_parallel_at ~jobs:1 ops in
      let (r4, b4) = run_parallel_at ~jobs:4 ops in
      Ffs.Fs.check_invariants r4.Aging.Replay.fs;
      assert_fsck_clean r4.Aging.Replay.fs;
      Ffs.Fs.digest r1.Aging.Replay.fs = Ffs.Fs.digest r4.Aging.Replay.fs
      && r1.Aging.Replay.daily_scores = r4.Aging.Replay.daily_scores
      && b1 = b4)

let () =
  Alcotest.run "parallel_aging"
    [
      ( "locks",
        [
          Alcotest.test_case "pin visible" `Quick test_pin_visible;
          Alcotest.test_case "pin cleared on raise" `Quick test_pin_cleared_on_raise;
          Alcotest.test_case "no nested pin" `Quick test_pin_no_nesting;
          Alcotest.test_case "stats counted" `Quick test_stats_counted;
          Alcotest.test_case "deadlock canary (opposite order)" `Quick test_deadlock_canary;
        ] );
      ( "cross_cg",
        [
          Alcotest.test_case "foreign group refused" `Quick test_cross_cg_refused;
          Alcotest.test_case "rollback restores image" `Quick
            test_cross_cg_rollback_restores_state;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "concurrent group ops safe" `Quick
            test_concurrent_group_ops_safe;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1/2/4 bit-identical" `Quick
            test_jobs_levels_bit_identical;
          Alcotest.test_case "matches serial live set" `Quick
            test_parallel_matches_serial_live_set;
          Alcotest.test_case "day stats reported" `Quick test_day_stats_reported;
          QCheck_alcotest.to_alcotest qcheck_jobs_identity;
        ] );
    ]
