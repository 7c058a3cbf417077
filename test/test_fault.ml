(* Tests for the fault layer and fsck-with-repair: every fault class
   produces its audit problem class and is repaired back to a clean,
   invariant-passing image; repair is idempotent; the property holds
   for random fault plans; crash-consistent replay recovers after every
   crash and stays close to the crash-free score series. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let params = Ffs.Params.small_test_fs
let days = 10

(* one aged base image, shared (copied) by every corruption test *)
let base =
  lazy
    (let profile =
       { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed = 31337 }
     in
     let gt = Workload.Ground_truth.generate params profile in
     let result = Aging.Replay.run ~params ~days gt.Workload.Ground_truth.ops in
     (result, gt.Workload.Ground_truth.ops))

let fresh_fs () = Ffs.Fs.copy (fst (Lazy.force base)).Aging.Replay.fs
let base_ops () = snd (Lazy.force base)
let final a = a.(Array.length a - 1)

(* --- the fault plan -------------------------------------------------------- *)

let test_plan_gen_counts () =
  let rng = Util.Prng.create ~seed:7 in
  for intensity = 1 to 16 do
    let spec = Fault.Plan.gen ~rng ~intensity in
    check_int (Fmt.str "intensity %d honoured" intensity) intensity (Fault.Plan.count spec)
  done;
  check_int "none is empty" 0 (Fault.Plan.count Fault.Plan.none)

let test_crash_points () =
  let rng = Util.Prng.create ~seed:11 in
  let points = Fault.Plan.crash_points ~rng ~n_ops:100 ~crashes:5 in
  check_int "five points" 5 (List.length points);
  check_int "distinct and sorted" 5 (List.length (List.sort_uniq compare points));
  check_bool "sorted ascending" true (List.sort compare points = points);
  List.iter (fun p -> check_bool "in range" true (p >= 0 && p < 100)) points;
  check_int "no ops, no crashes" 0
    (List.length (Fault.Plan.crash_points ~rng ~n_ops:0 ~crashes:3))

(* --- one test per fault class: inject -> audit -> repair -> clean ---------- *)

let inject_repair_clean ~name ~spec ~classifies () =
  let fs = fresh_fs () in
  let rng = Util.Prng.create ~seed:2024 in
  let events = Fault.Inject.apply fs ~rng spec in
  check_bool (name ^ ": something injected") true (List.length events > 0);
  let report = Ffs.Check.run fs in
  check_bool (name ^ ": audit is dirty") true (not (Ffs.Check.is_clean report));
  check_bool
    (name ^ ": expected problem class reported")
    true
    (List.exists classifies report.Ffs.Check.problems);
  let log = Ffs.Check.repair_exn fs in
  check_bool (name ^ ": repair found work") true (not (Ffs.Check.repair_is_noop log));
  let after = Ffs.Check.run fs in
  if not (Ffs.Check.is_clean after) then
    Alcotest.failf "%s: image still dirty after repair: %a" name Ffs.Check.pp after;
  check_bool
    (name ^ ": second repair is a no-op")
    true
    (Ffs.Check.repair_is_noop (Ffs.Check.repair_exn fs));
  Ffs.Check.check_invariants fs

let class_cases =
  let open Fault.Plan in
  [
    ( "duplicate claims -> Double_claim",
      { none with duplicate_claims = 2 },
      function Ffs.Check.Double_claim _ -> true | _ -> false );
    ( "dropped claims -> Usage_mismatch",
      { none with drop_claims = 2 },
      function Ffs.Check.Usage_mismatch _ -> true | _ -> false );
    ( "forgotten inodes -> Dangling_entry",
      { none with forget_inodes = 2 },
      function Ffs.Check.Dangling_entry _ -> true | _ -> false );
    ( "orphaned files -> Orphan_inode",
      { none with orphan_files = 2 },
      function Ffs.Check.Orphan_inode _ -> true | _ -> false );
    ( "dangling entries -> Dangling_entry",
      { none with dangling_entries = 2 },
      function Ffs.Check.Dangling_entry _ -> true | _ -> false );
    ( "cleared bitmap bits -> Claim_not_allocated",
      { none with clear_bitmap_bits = 2 },
      function Ffs.Check.Claim_not_allocated _ -> true | _ -> false );
    ( "set bitmap bits -> Usage_mismatch",
      { none with set_bitmap_bits = 2 },
      function Ffs.Check.Usage_mismatch _ -> true | _ -> false );
    ( "bad runs -> Bad_run",
      { none with bad_runs = 2 },
      function Ffs.Check.Bad_run _ -> true | _ -> false );
    ( "zeroed counters -> Group_counter_mismatch",
      { none with zero_counter_groups = 1 },
      function Ffs.Check.Group_counter_mismatch _ -> true | _ -> false );
  ]

let test_orphans_land_in_lost_found () =
  let fs = fresh_fs () in
  let rng = Util.Prng.create ~seed:5 in
  let spec = { Fault.Plan.none with Fault.Plan.orphan_files = 3 } in
  let events = Fault.Inject.apply fs ~rng spec in
  let n = List.length events in
  check_bool "orphans injected" true (n > 0);
  let log = Ffs.Check.repair_exn fs in
  check_int "all reattached" n log.Ffs.Check.orphans_reattached;
  match log.Ffs.Check.lost_found with
  | None -> Alcotest.fail "no lost+found reported"
  | Some lf ->
      check_int "entries present" n (List.length (Ffs.Fs.dir_entries fs lf));
      check_bool "repair after reattach is a no-op" true
        (Ffs.Check.repair_is_noop (Ffs.Check.repair_exn fs))

let test_repair_on_clean_image_is_noop () =
  let fs = fresh_fs () in
  let log = Ffs.Check.repair_exn fs in
  check_bool "nothing to fix" true (Ffs.Check.repair_is_noop log);
  check_bool "still clean" true (Ffs.Check.is_clean (Ffs.Check.run fs))

(* --- properties ------------------------------------------------------------ *)

let prop_random_plan_repairs_clean =
  QCheck.Test.make
    ~name:"random fault plan -> repair -> clean audit, invariants, idempotent"
    ~count:25
    QCheck.(pair small_int (int_range 1 12))
    (fun (seed, intensity) ->
      let fs = fresh_fs () in
      let rng = Util.Prng.create ~seed in
      let spec = Fault.Plan.gen ~rng ~intensity in
      ignore (Fault.Inject.apply fs ~rng spec);
      ignore (Ffs.Check.repair_exn fs);
      Ffs.Check.check_invariants fs;
      Ffs.Check.is_clean (Ffs.Check.run fs)
      && Ffs.Check.repair_is_noop (Ffs.Check.repair_exn fs))

(* --- crash-consistent replay ----------------------------------------------- *)

let test_crashes_zero_matches_plain_run () =
  let ops = base_ops () in
  let plain = Aging.Replay.run ~params ~days ops in
  let cr = Aging.Replay.run_with_crashes ~params ~days ~crashes:0 ~fault_seed:1 ops in
  check_int "no recoveries" 0 (List.length cr.Aging.Replay.recoveries);
  Alcotest.(check (array (float 0.0)))
    "identical daily scores" plain.Aging.Replay.daily_scores
    cr.Aging.Replay.result.Aging.Replay.daily_scores

let test_crash_replay_recovers_and_scores_close () =
  let ops = base_ops () in
  List.iter
    (fun (label, config) ->
      let plain = Aging.Replay.run ~config ~params ~days ops in
      let cr =
        Aging.Replay.run_with_crashes ~config ~params ~days ~crashes:3 ~fault_seed:97 ops
      in
      check_int (label ^ ": three recoveries") 3 (List.length cr.Aging.Replay.recoveries);
      List.iter
        (fun (r : Aging.Replay.recovery) ->
          check_bool (label ^ ": crash day in range") true (r.Aging.Replay.day < days))
        cr.Aging.Replay.recoveries;
      let aged = cr.Aging.Replay.result in
      check_bool
        (label ^ ": final image fsck-clean")
        true
        (Ffs.Check.is_clean (Ffs.Check.run aged.Aging.Replay.fs));
      Ffs.Check.check_invariants aged.Aging.Replay.fs;
      let delta =
        abs_float
          (final plain.Aging.Replay.daily_scores -. final aged.Aging.Replay.daily_scores)
      in
      if delta >= 0.02 then
        Alcotest.failf "%s: crashed-run final score drifted %.4f (limit 0.02)" label delta)
    [ ("traditional", Ffs.Fs.default_config); ("realloc", Ffs.Fs.realloc_config) ]

let test_crash_replay_deterministic () =
  let ops = base_ops () in
  let go () = Aging.Replay.run_with_crashes ~params ~days ~crashes:3 ~fault_seed:123 ops in
  let a = go () and b = go () in
  Alcotest.(check (array (float 0.0)))
    "identical scores" a.Aging.Replay.result.Aging.Replay.daily_scores
    b.Aging.Replay.result.Aging.Replay.daily_scores;
  Alcotest.(check (list int))
    "identical crash points"
    (List.map (fun r -> r.Aging.Replay.after_op) a.Aging.Replay.recoveries)
    (List.map (fun r -> r.Aging.Replay.after_op) b.Aging.Replay.recoveries);
  Alcotest.(check (list int))
    "identical problem counts"
    (List.map (fun r -> r.Aging.Replay.problems_found) a.Aging.Replay.recoveries)
    (List.map (fun r -> r.Aging.Replay.problems_found) b.Aging.Replay.recoveries)

(* --- the skip guard -------------------------------------------------------- *)

(* a workload whose every operation must be skipped: modifies of inodes
   that were never created *)
let unsatisfiable_ops n =
  Array.init n (fun i ->
      Workload.Op.Modify { ino = 1_000_000 + i; size = 1024; time = float_of_int i })

let test_skip_guard_raises () =
  let ops = unsatisfiable_ops 20 in
  match Aging.Replay.run ~params ~days:1 ~max_skip_fraction:0.25 ops with
  | _ -> Alcotest.fail "expected Too_many_skips"
  | exception Aging.Replay.Too_many_skips { skipped; total; limit } ->
      check_int "total recorded" 20 total;
      check_int "raised at the first skip past the limit" 6 skipped;
      check_bool "limit echoed" true (limit = 0.25)

let test_on_skip_observes_every_skip () =
  let ops = unsatisfiable_ops 8 in
  let seen = ref 0 in
  let r =
    Aging.Replay.run ~params ~days:1 ~max_skip_fraction:1.0
      ~on_skip:(fun op ~skipped ->
        incr seen;
        check_int "running count" !seen skipped;
        check_bool "op is a modify" true
          (match op with Workload.Op.Modify _ -> true | _ -> false))
      ops
  in
  check_int "all skips observed" 8 !seen;
  check_int "result agrees" 8 r.Aging.Replay.skipped_ops

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "fault"
    [
      ( "plan",
        [ tc "gen honours intensity" test_plan_gen_counts; tc "crash points" test_crash_points ]
      );
      ( "inject-repair",
        List.map
          (fun (name, spec, classifies) ->
            tc name (inject_repair_clean ~name ~spec ~classifies))
          class_cases
        @ [
            tc "orphans land in lost+found" test_orphans_land_in_lost_found;
            tc "repair on clean image is a no-op" test_repair_on_clean_image_is_noop;
          ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_random_plan_repairs_clean ]);
      ( "crash-replay",
        [
          tc "crashes=0 matches plain run" test_crashes_zero_matches_plain_run;
          slow "recovers; scores within 0.02" test_crash_replay_recovers_and_scores_close;
          tc "deterministic under a fault seed" test_crash_replay_deterministic;
        ] );
      ( "skip-guard",
        [
          tc "raises past the limit" test_skip_guard_raises;
          tc "on_skip sees every skip" test_on_skip_observes_every_skip;
        ] );
    ]
