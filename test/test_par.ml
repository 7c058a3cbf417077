(* Tests for the domain pool: parallel_map agrees with a serial map for
   arbitrary inputs and job counts, exceptions propagate without wedging
   the pool, pools survive reuse and nesting, timings are recorded, and
   the seeded experiment drivers are bit-identical at every job count
   (the --jobs 1 vs --jobs N acceptance criterion). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* exact float equality: the determinism guarantee is bit-identical
   results, not approximate ones *)
let exact_scores = Alcotest.(array (float 0.0))

(* --- unit: basics ---------------------------------------------------------- *)

let test_default_jobs () =
  check_bool "at least one job" true (Par.Pool.default_jobs () >= 1)

let test_jobs_clamped () =
  Par.Pool.with_pool ~jobs:0 (fun p -> check_int "clamped to 1" 1 (Par.Pool.jobs p));
  Par.Pool.with_pool ~jobs:(-3) (fun p -> check_int "negative clamped" 1 (Par.Pool.jobs p))

let test_empty_input () =
  Par.Pool.with_pool ~jobs:3 (fun p ->
      check_int "empty array" 0 (Array.length (Par.Pool.parallel_map p succ [||]));
      check_int "empty list" 0 (List.length (Par.Pool.parallel_list_map p succ [])))

let test_shutdown_idempotent () =
  let p = Par.Pool.create ~jobs:3 () in
  check_int "sum" 10 (Array.fold_left ( + ) 0 (Par.Pool.parallel_map p succ [| 0; 1; 2; 3 |]));
  Par.Pool.shutdown p;
  Par.Pool.shutdown p

let test_nested_fanout () =
  (* a pooled task fans out again on the same pool; the caller-participation
     design means this must complete rather than deadlock *)
  Par.Pool.with_pool ~jobs:2 (fun p ->
      let r =
        Par.Pool.parallel_map p
          (fun i ->
            Array.fold_left ( + ) 0
              (Par.Pool.parallel_map p (fun j -> (10 * i) + j) (Array.init 4 Fun.id)))
          (Array.init 3 Fun.id)
      in
      Alcotest.(check (array int)) "nested sums" [| 6; 46; 86 |] r)

let test_timings_recorded () =
  let timings = Par.Timings.create () in
  Par.Pool.with_pool ~jobs:2 (fun p ->
      ignore
        (Par.Pool.parallel_map ~timings ~label:(fun i -> Fmt.str "job %d" i) p
           (fun i -> i * i)
           (Array.init 5 Fun.id)));
  let entries = Par.Timings.entries timings in
  check_int "one entry per task" 5 (List.length entries);
  List.iter
    (fun (e : Par.Timings.entry) ->
      check_bool "labelled" true (String.length e.Par.Timings.label > 0);
      check_bool "elapsed non-negative" true (e.Par.Timings.elapsed >= 0.0))
    entries;
  check_bool "total covers all tasks" true (Par.Timings.total timings >= 0.0);
  check_bool "report renders" true (String.length (Par.Timings.report timings) > 20);
  check_bool "not empty" false (Par.Timings.is_empty timings)

(* --- unit: exceptions ------------------------------------------------------ *)

exception Task_failed of int

let test_exception_propagates_pool_survives () =
  Par.Pool.with_pool ~jobs:3 (fun p ->
      (match
         Par.Pool.parallel_map p
           (fun i -> if i = 7 then raise (Task_failed i) else i)
           (Array.init 16 Fun.id)
       with
      | _ -> Alcotest.fail "expected Task_failed"
      | exception Task_failed 7 -> ());
      (* the pool is still fully usable afterwards *)
      for n = 0 to 5 do
        let xs = List.init (3 * n) Fun.id in
        Alcotest.(check (list int))
          (Fmt.str "reuse after failure, batch %d" n)
          (List.map succ xs)
          (Par.Pool.parallel_list_map p succ xs)
      done)

let test_first_failure_wins () =
  (* two tasks raise; the lowest-index exception is the one reported *)
  Par.Pool.with_pool ~jobs:4 (fun p ->
      match
        Par.Pool.parallel_map p
          (fun i -> if i = 3 || i = 11 then raise (Task_failed i) else i)
          (Array.init 16 Fun.id)
      with
      | _ -> Alcotest.fail "expected Task_failed"
      | exception Task_failed i -> check_int "lowest index reported" 3 i)

(* --- properties ------------------------------------------------------------ *)

let prop_map_matches_serial =
  QCheck.Test.make ~name:"parallel_map agrees with serial map (any f, size, jobs)"
    ~count:40
    QCheck.(triple (int_range 1 4) (list small_int) small_int)
    (fun (jobs, xs, k) ->
      let f x = ((x * 31) lxor k) + (x mod 7) in
      let arr = Array.of_list xs in
      Par.Pool.with_pool ~jobs (fun p ->
          Par.Pool.parallel_map p f arr = Array.map f arr
          && Par.Pool.parallel_list_map p f xs = List.map f xs))

let prop_pool_reuse =
  QCheck.Test.make ~name:"one pool serves many successive batches" ~count:20
    QCheck.(list (list small_int))
    (fun batches ->
      Par.Pool.with_pool ~jobs:3 (fun p ->
          List.for_all
            (fun xs -> Par.Pool.parallel_list_map p succ xs = List.map succ xs)
            batches))

let prop_exception_does_not_wedge =
  QCheck.Test.make ~name:"a raising task neither wedges nor corrupts the pool"
    ~count:25
    QCheck.(pair (int_range 1 4) (int_range 0 19))
    (fun (jobs, bad) ->
      Par.Pool.with_pool ~jobs (fun p ->
          let raised =
            match
              Par.Pool.parallel_map p
                (fun i -> if i = bad then raise Exit else i)
                (Array.init 20 Fun.id)
            with
            | _ -> false
            | exception Exit -> true
          in
          raised && Par.Pool.parallel_list_map p succ [ 1; 2; 3 ] = [ 2; 3; 4 ]))

let prop_derive_splits_cleanly =
  QCheck.Test.make ~name:"Prng.derive: deterministic, non-negative, index-distinct"
    ~count:100
    QCheck.(pair small_int (int_range 2 64))
    (fun (seed, n) ->
      let children = List.init n (fun index -> Util.Prng.derive ~seed ~index) in
      children = List.init n (fun index -> Util.Prng.derive ~seed ~index)
      && List.for_all (fun s -> s >= 0) children
      && List.length (List.sort_uniq compare children) = n)

(* --- determinism across job counts (the acceptance criterion) -------------- *)

let params = Ffs.Params.small_test_fs

let test_build_identical_across_jobs () =
  (* the same seed must produce bit-identical daily layout scores and
     seqio sweeps whether the replays and the sweep's points run serially
     (--jobs 1) or fanned out (--jobs 4). A pooled sweep forks one aged
     image from several domains at once, and every fork marks the
     image's shared directory states: the image must come out of its
     sweep with the digest it went in with. *)
  let build jobs =
    Par.Pool.with_pool ~jobs (fun pool ->
        let ctx = Benchlib.Experiments.build ~params ~days:4 ~seed:77 ~pool () in
        let sweep which aged =
          let fs = (aged ctx).Aging.Replay.fs in
          let before = Ffs.Fs.digest fs in
          let points = Benchlib.Experiments.seqio_points ctx which in
          Alcotest.(check string) "aged image unchanged by its sweep" before (Ffs.Fs.digest fs);
          points
        in
        ( ctx,
          sweep `Traditional Benchlib.Experiments.aged_traditional,
          sweep `Realloc Benchlib.Experiments.aged_realloc ))
  in
  let scores ctx =
    ( (Benchlib.Experiments.aged_traditional ctx).Aging.Replay.daily_scores,
      (Benchlib.Experiments.aged_realloc ctx).Aging.Replay.daily_scores )
  in
  let c1, st1, sr1 = build 1 in
  let c4, st4, sr4 = build 4 in
  let t1, r1 = scores c1 in
  let t4, r4 = scores c4 in
  Alcotest.check exact_scores "traditional scores identical (jobs 1 vs 4)" t1 t4;
  Alcotest.check exact_scores "realloc scores identical (jobs 1 vs 4)" r1 r4;
  check_bool "sweep has points" true (List.length st1 > 1);
  check_bool "traditional seqio sweep identical (jobs 1 vs 4)" true (st1 = st4);
  check_bool "realloc seqio sweep identical (jobs 1 vs 4)" true (sr1 = sr4)

let home_workload ~days seed = Workload.Profiles.build params Workload.Profiles.Home ~days ~seed

let test_build_seeds_identical_across_jobs () =
  let seeds = Benchlib.Experiments.default_seeds ~seed:960117 ~n:3 in
  check_int "distinct child seeds" 3 (List.length (List.sort_uniq compare seeds));
  let summary jobs =
    Par.Pool.with_pool ~jobs (fun pool ->
        Benchlib.Experiments.build_seeds ~params ~days:3 ~pool
          ~workload:(home_workload ~days:3) ~seeds ())
  in
  let a = summary 1 and b = summary 4 in
  check_int "same number of runs" (List.length a.Benchlib.Experiments.runs)
    (List.length b.Benchlib.Experiments.runs);
  List.iter2
    (fun (ra : Benchlib.Experiments.seed_run) (rb : Benchlib.Experiments.seed_run) ->
      check_int "same seed" ra.Benchlib.Experiments.seed rb.Benchlib.Experiments.seed;
      Alcotest.check exact_scores "traditional identical"
        ra.Benchlib.Experiments.trad_scores rb.Benchlib.Experiments.trad_scores;
      Alcotest.check exact_scores "realloc identical"
        ra.Benchlib.Experiments.realloc_scores rb.Benchlib.Experiments.realloc_scores)
    a.Benchlib.Experiments.runs b.Benchlib.Experiments.runs;
  Alcotest.(check (float 0.0))
    "mean identical" a.Benchlib.Experiments.mean_trad b.Benchlib.Experiments.mean_trad;
  Alcotest.(check (float 0.0))
    "stddev identical" a.Benchlib.Experiments.stddev_reduction_pct
    b.Benchlib.Experiments.stddev_reduction_pct;
  check_bool "report renders" true
    (String.length (Benchlib.Experiments.seed_report a) > 100)

let test_build_seeds_records_timings () =
  let timings = Par.Timings.create () in
  let seeds = Benchlib.Experiments.default_seeds ~seed:5 ~n:2 in
  ignore
    (Par.Pool.with_pool ~jobs:2 (fun pool ->
         Benchlib.Experiments.build_seeds ~params ~days:2 ~pool ~timings
           ~workload:(home_workload ~days:2) ~seeds ()));
  (* one workload build per seed plus a (seed x allocator) replay grid *)
  check_int "workloads + replays timed" 6 (List.length (Par.Timings.entries timings))

(* --- graceful stop --------------------------------------------------------- *)

let expect_interrupted name f =
  match f () with
  | exception Par.Pool.Interrupted { completed; total } -> (completed, total)
  | _ -> Alcotest.fail (name ^ ": expected Par.Pool.Interrupted")

let test_stop_before_batch_skips_everything () =
  Par.Pool.with_pool ~jobs:2 (fun pool ->
      Par.Pool.request_stop pool;
      check_bool "stop observed" true (Par.Pool.stop_requested pool);
      let completed, total =
        expect_interrupted "pre-stopped batch" (fun () ->
            Par.Pool.parallel_map pool (fun x -> x * 2) [| 1; 2; 3 |])
      in
      check_int "nothing completed" 0 completed;
      check_int "total reported" 3 total)

let test_stop_drains_in_flight_and_flushes_timings () =
  (* jobs:1 makes the schedule deterministic: the caller runs tasks in
     submission order, so a stop requested inside task 2 lets 0..2
     finish and skips 3 and 4 *)
  let timings = Par.Timings.create () in
  Par.Pool.with_pool ~jobs:1 (fun pool ->
      let completed, total =
        expect_interrupted "stopped mid-batch" (fun () ->
            Par.Pool.parallel_map ~timings
              ~label:(fun i -> Fmt.str "t%d" i)
              pool
              (fun i ->
                if i = 2 then Par.Pool.request_stop pool;
                i)
              [| 0; 1; 2; 3; 4 |])
      in
      check_int "tasks before the stop drained" 3 completed;
      check_int "total reported" 5 total;
      (* the drained tasks' timings were recorded, the skipped ones' not *)
      check_int "timings flushed for completed tasks" 3
        (List.length (Par.Timings.entries timings));
      (* the stop flag is sticky: a later batch on the same pool stops too *)
      let sticky_completed, _ =
        expect_interrupted "sticky stop" (fun () ->
            Par.Pool.parallel_map pool (fun x -> x) [| 1 |])
      in
      check_int "sticky: nothing completed" 0 sticky_completed)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "par"
    [
      ( "pool",
        [
          tc "default jobs" test_default_jobs;
          tc "jobs clamped" test_jobs_clamped;
          tc "empty input" test_empty_input;
          tc "shutdown idempotent" test_shutdown_idempotent;
          tc "nested fan-out" test_nested_fanout;
          tc "timings recorded" test_timings_recorded;
        ] );
      ( "exceptions",
        [
          tc "propagates, pool survives" test_exception_propagates_pool_survives;
          tc "first failure wins" test_first_failure_wins;
        ] );
      ( "graceful stop",
        [
          tc "pre-stopped batch skips everything" test_stop_before_batch_skips_everything;
          tc "drains in-flight, flushes timings" test_stop_drains_in_flight_and_flushes_timings;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_map_matches_serial;
          QCheck_alcotest.to_alcotest prop_pool_reuse;
          QCheck_alcotest.to_alcotest prop_exception_does_not_wedge;
          QCheck_alcotest.to_alcotest prop_derive_splits_cleanly;
        ] );
      ( "determinism",
        [
          slow "build: jobs 1 = jobs 4" test_build_identical_across_jobs;
          slow "build_seeds: jobs 1 = jobs 4" test_build_seeds_identical_across_jobs;
          tc "build_seeds records timings" test_build_seeds_records_timings;
        ] );
    ]
