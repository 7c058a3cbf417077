(* Tests for the alternative workload profiles (paper Section 6). *)

let check_bool = Alcotest.(check bool)
let params = Ffs.Params.small_test_fs
let days = 8

let build kind = Workload.Profiles.build params kind ~days ~seed:7

let test_names () =
  List.iter
    (fun kind ->
      Alcotest.(check (option string))
        "name roundtrip"
        (Some (Workload.Profiles.name kind))
        (Option.map Workload.Profiles.name (Workload.Profiles.of_name (Workload.Profiles.name kind))))
    Workload.Profiles.all;
  Alcotest.(check bool) "unknown name" true (Workload.Profiles.of_name "bogus" = None)

let test_all_well_formed () =
  List.iter
    (fun kind ->
      let ops = build kind in
      check_bool (Workload.Profiles.name kind ^ " nonempty") true (Array.length ops > 20);
      match Workload.Op.check_well_formed ops with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Workload.Profiles.name kind ^ ": " ^ e))
    Workload.Profiles.all

let test_all_replayable () =
  List.iter
    (fun kind ->
      let ops = build kind in
      let r = Aging.Replay.run ~params ~days ops in
      check_bool
        (Workload.Profiles.name kind ^ " replays without skips")
        true
        (r.Aging.Replay.skipped_ops = 0);
      Ffs.Check.check_invariants r.Aging.Replay.fs)
    Workload.Profiles.all

let test_deterministic () =
  List.iter
    (fun kind ->
      let a = build kind and b = build kind in
      check_bool (Workload.Profiles.name kind ^ " deterministic") true (a = b))
    Workload.Profiles.all

let test_news_shape () =
  let ops = build Workload.Profiles.News in
  let s = Workload.Op.stats ops in
  (* a spool deletes nearly everything it creates once past retention *)
  check_bool "many deletes" true
    (float_of_int s.Workload.Op.deletes > 0.2 *. float_of_int s.Workload.Op.creates);
  check_bool "no modifies" true (s.Workload.Op.modifies = 0)

let test_database_shape () =
  let ops = build Workload.Profiles.Database in
  let s = Workload.Op.stats ops in
  check_bool "has modifies (checkpoints)" true (s.Workload.Op.modifies > 0);
  (* big extents: the average write is many blocks, scaling with the
     file system (tables are a fixed fraction of the disk) *)
  let writes = s.Workload.Op.creates + s.Workload.Op.modifies in
  check_bool "large average write" true
    (s.Workload.Op.total_bytes_written / max 1 writes
    > 16 * params.Ffs.Params.block_bytes)

let test_personal_shape () =
  let ops = build Workload.Profiles.Personal in
  let s = Workload.Op.stats ops in
  check_bool "documents get re-saved" true (s.Workload.Op.modifies > 0);
  (* most cache files are deleted by session end *)
  check_bool "cache churn" true (s.Workload.Op.deletes > s.Workload.Op.creates / 2)

let test_home_delegates () =
  let ops = build Workload.Profiles.Home in
  let profile =
    { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed = 7 }
  in
  let gt = Workload.Ground_truth.generate params profile in
  check_bool "same as ground truth" true (ops = gt.Workload.Ground_truth.ops)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "profiles"
    [
      ( "profiles",
        [
          tc "names" test_names;
          tc "well-formed" test_all_well_formed;
          tc "replayable" test_all_replayable;
          tc "deterministic" test_deterministic;
          tc "news shape" test_news_shape;
          tc "database shape" test_database_shape;
          tc "personal shape" test_personal_shape;
          tc "home delegates" test_home_delegates;
        ] );
    ]
