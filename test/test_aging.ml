(* Tests for the aging replayer: placement, daily series, determinism,
   allocator comparison on a short run, and the hot-set selection. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let params = Ffs.Params.small_test_fs
let days = 10

let workload () =
  let profile =
    { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed = 31337 }
  in
  Workload.Ground_truth.generate params profile

(* every aged image must pass the fsck-style checker with zero problems *)
let assert_fsck_clean (r : Aging.Replay.result) =
  let report = Ffs.Check.run r.Aging.Replay.fs in
  if not (Ffs.Check.is_clean report) then
    Alcotest.failf "aged image fails fsck: %a" Ffs.Check.pp report

let test_replay_basic () =
  let gt = workload () in
  let r = Aging.Replay.run ~params ~days gt.Workload.Ground_truth.ops in
  check_int "no skipped ops" 0 r.Aging.Replay.skipped_ops;
  check_int "a score per day" days (Array.length r.Aging.Replay.daily_scores);
  Array.iter
    (fun s -> check_bool "score in [0,1]" true (s >= 0.0 && s <= 1.0))
    r.Aging.Replay.daily_scores;
  Array.iter
    (fun u -> check_bool "utilization in [0,1]" true (u >= 0.0 && u <= 1.0))
    r.Aging.Replay.daily_utilization;
  Ffs.Check.check_invariants r.Aging.Replay.fs;
  assert_fsck_clean r

let test_replay_live_set_matches () =
  let gt = workload () in
  let r = Aging.Replay.run ~params ~days gt.Workload.Ground_truth.ops in
  (* count the workload's surviving files *)
  let live = Hashtbl.create 64 in
  Array.iter
    (fun op ->
      match op with
      | Workload.Op.Create { ino; _ } -> Hashtbl.replace live ino ()
      | Workload.Op.Delete { ino; _ } -> Hashtbl.remove live ino
      | Workload.Op.Modify _ -> ())
    gt.Workload.Ground_truth.ops;
  check_int "file count matches survivors" (Hashtbl.length live)
    (Ffs.Fs.file_count r.Aging.Replay.fs);
  check_int "ino map matches" (Hashtbl.length live) (Hashtbl.length r.Aging.Replay.ino_map)

let test_replay_places_by_inode_group () =
  let gt = workload () in
  let r = Aging.Replay.run ~params ~days gt.Workload.Ground_truth.ops in
  let ipg = Ffs.Params.inodes_per_group params in
  Hashtbl.iter
    (fun workload_ino fs_inum ->
      let want = workload_ino / ipg mod params.Ffs.Params.ncg in
      let got = Ffs.Fs.cg_of_inum r.Aging.Replay.fs fs_inum in
      check_int (Fmt.str "ino %d in its group" workload_ino) want got)
    r.Aging.Replay.ino_map

let test_replay_deterministic () =
  let gt = workload () in
  let a = Aging.Replay.run ~params ~days gt.Workload.Ground_truth.ops in
  let b = Aging.Replay.run ~params ~days gt.Workload.Ground_truth.ops in
  Alcotest.(check (array (float 1e-12)))
    "same daily scores" a.Aging.Replay.daily_scores b.Aging.Replay.daily_scores

let test_realloc_beats_traditional () =
  let gt = workload () in
  let trad = Aging.Replay.run ~params ~days gt.Workload.Ground_truth.ops in
  let re =
    Aging.Replay.run ~config:Ffs.Fs.realloc_config ~params ~days
      gt.Workload.Ground_truth.ops
  in
  let last a = a.(Array.length a - 1) in
  check_bool "realloc final score at least as good" true
    (last re.Aging.Replay.daily_scores >= last trad.Aging.Replay.daily_scores);
  check_bool "realloc did work" true
    ((Ffs.Fs.stats re.Aging.Replay.fs).Ffs.Fs.realloc_attempts > 0);
  assert_fsck_clean trad;
  assert_fsck_clean re

let test_progress_callback () =
  let gt = workload () in
  let seen = ref 0 in
  let _ =
    Aging.Replay.run
      ~progress:(fun ~day:_ ~score:_ -> incr seen)
      ~params ~days gt.Workload.Ground_truth.ops
  in
  check_int "called once per day" days !seen

let test_hot_inums () =
  let gt = workload () in
  let r = Aging.Replay.run ~params ~days gt.Workload.Ground_truth.ops in
  let since = float_of_int (days - 3) *. Workload.Op.seconds_per_day in
  let hot = Aging.Replay.hot_inums r ~since in
  check_bool "some hot files" true (List.length hot > 0);
  check_bool "strict subset" true (List.length hot <= Ffs.Fs.file_count r.Aging.Replay.fs);
  List.iter
    (fun inum ->
      let ino = Ffs.Fs.inode r.Aging.Replay.fs inum in
      check_bool "mtime within window" true (ino.Ffs.Inode.mtime >= since))
    hot;
  (* everything is hot from the beginning of time *)
  check_int "all files hot at since=0"
    (Ffs.Fs.file_count r.Aging.Replay.fs)
    (List.length (Aging.Replay.hot_inums r ~since:0.0));
  assert_fsck_clean r

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "aging"
    [
      ( "replay",
        [
          tc "basic run" test_replay_basic;
          tc "live set matches" test_replay_live_set_matches;
          tc "placement by inode group" test_replay_places_by_inode_group;
          tc "deterministic" test_replay_deterministic;
          tc "realloc beats traditional" test_realloc_beats_traditional;
          tc "progress callback" test_progress_callback;
          tc "hot set" test_hot_inums;
        ] );
    ]
