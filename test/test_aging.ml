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

(* --- the workload-inode table ---------------------------------------------------- *)

let sorted_bindings h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare

(* The 10-day workload with a third of its files renumbered past the
   volume's inode count and a seventh further still, so the replay's
   dense table must grow, and grow while files are live; plus deletes
   and modifies of files that never existed (below, inside and beyond
   the table, and negative) and a create of a live file. *)
let grown_ops () =
  let ops = (workload ()).Workload.Ground_truth.ops in
  let slots = params.Ffs.Params.ncg * Ffs.Params.inodes_per_group params in
  let renumber ino =
    if ino mod 3 = 0 then ino + (3 * slots) else if ino mod 7 = 1 then ino + (9 * slots) else ino
  in
  let used = Hashtbl.create 1024 in
  let ops =
    Array.map
      (fun op ->
        Hashtbl.replace used (Workload.Op.ino_of op) ();
        match op with
        | Workload.Op.Create c -> Workload.Op.Create { c with ino = renumber c.ino }
        | Delete d -> Delete { d with ino = renumber d.ino }
        | Modify m -> Modify { m with ino = renumber m.ino })
      ops
  in
  let unused = ref 1 in
  while Hashtbl.mem used !unused do
    incr unused
  done;
  assert (!unused < slots);
  let first =
    Option.get (Array.find_index (function Workload.Op.Create _ -> true | _ -> false) ops)
  in
  let at = Array.length ops / 3 in
  assert (first < at);
  let time = Workload.Op.time_of ops.(at) in
  let never_created =
    [|
      Workload.Op.Delete { ino = 20 * slots; time };
      Modify { ino = !unused; size = 4096; time };
      Delete { ino = !unused; time };
      Modify { ino = (6 * slots) + 1; size = 8192; time };
      Delete { ino = -5; time };
    |]
  in
  Array.concat
    [
      Array.sub ops 0 (first + 1);
      [| ops.(first) |];
      Array.sub ops (first + 1) (at - first - 1);
      never_created;
      Array.sub ops at (Array.length ops - at);
    ]

(* The reference the dense table must match: the replay's placement
   with its inode map in a polymorphic [Hashtbl], the same directories,
   names, clock and calls. Daily scoring only reads the image, so it is
   left out. Returns the image, the sorted map and each skip's
   (ino, cause). *)
let reference_replay ops =
  let fs = Ffs.Fs.create params in
  let ncg = params.Ffs.Params.ncg and ipg = Ffs.Params.inodes_per_group params in
  let dirs =
    Array.init ncg (fun cg ->
        Ffs.Fs.mkdir_in_cg_exn fs ~parent:(Ffs.Fs.root fs) ~name:(Fmt.str "cg%03d" cg) ~cg)
  in
  let map = Hashtbl.create 64 and skips = ref [] in
  let skip ino cause = skips := (ino, cause) :: !skips in
  let full ino = function
    | Ok () -> ()
    | Error Ffs.Error.Out_of_space -> skip ino Aging.Replay.Out_of_space
    | Error e -> Ffs.Error.raise_ e
  in
  Array.iter
    (fun op ->
      Ffs.Fs.set_time fs (Workload.Op.time_of op);
      match op with
      | Workload.Op.Create { ino; size; _ } ->
          if Hashtbl.mem map ino then skip ino Aging.Replay.Already_live
          else
            Ffs.Fs.create_file fs ~dir:dirs.(ino / ipg mod ncg) ~name:("f" ^ string_of_int ino)
              ~size
            |> Result.map (fun inum -> Hashtbl.replace map ino inum)
            |> full ino
      | Delete { ino; _ } -> (
          match Hashtbl.find_opt map ino with
          | None -> skip ino Aging.Replay.No_live_file
          | Some inum ->
              Ffs.Fs.delete_inum_exn fs inum;
              Hashtbl.remove map ino)
      | Modify { ino; size; _ } -> (
          match Hashtbl.find_opt map ino with
          | None -> skip ino Aging.Replay.No_live_file
          | Some inum -> full ino (Ffs.Fs.rewrite_file fs ~inum ~size)))
    ops;
  (fs, sorted_bindings map, List.rev !skips)

let test_ino_table_matches_hashtbl () =
  let ops = grown_ops () in
  let skips = ref [] in
  let r =
    Aging.Replay.run ~params ~days
      ~on_skip:(fun op ~cause ~skipped:_ -> skips := (Workload.Op.ino_of op, cause) :: !skips)
      ops
  in
  let ref_fs, ref_map, ref_skips = reference_replay ops in
  let slots = params.Ffs.Params.ncg * Ffs.Params.inodes_per_group params in
  let map = sorted_bindings r.Aging.Replay.ino_map in
  check_bool "some live file lies past the first growth" true
    (List.exists (fun (ino, _) -> ino >= 9 * slots) map);
  check_bool "same ino_map bindings" true (map = ref_map);
  check_bool "same skips, in order" true (List.rev !skips = ref_skips);
  check_int "skip count" (List.length ref_skips) r.Aging.Replay.skipped_ops;
  check_bool "every cause skipped"
    true
    (List.for_all
       (fun c -> List.exists (fun (_, c') -> c' = c) ref_skips)
       [ Aging.Replay.No_live_file; Aging.Replay.Already_live ]);
  Alcotest.(check string) "same digest" (Ffs.Fs.digest ref_fs) (Ffs.Fs.digest r.Aging.Replay.fs);
  match Aging.Replay.run ~params ~days [| Workload.Op.Create { ino = -1; size = 1; time = 0.0 } |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a create of a negative inode was replayed"

(* A checkpoint carries the inode map; the resumed run ends with the
   straight run's map and image. *)
let test_resume_keeps_ino_map () =
  let ops = grown_ops () in
  let straight = Aging.Replay.run ~params ~days ops in
  let polls = ref 0 in
  let stop_at = Array.length ops / 2 in
  let ck =
    match
      Aging.Replay.run_resumable ~params ~days ~crashes:0 ~fault_seed:0
        ~should_stop:(fun () ->
          incr polls;
          !polls = stop_at)
        ops
    with
    | `Interrupted ck -> ck
    | `Completed _ -> Alcotest.fail "the run was not interrupted"
  in
  let resumed =
    match Aging.Replay.run_resumable ~resume:ck ~params ~days ~crashes:0 ~fault_seed:0 ops with
    | `Completed c -> c.Aging.Replay.result
    | `Interrupted _ -> Alcotest.fail "the resumed run was interrupted"
  in
  check_bool "same sorted ino_map" true
    (sorted_bindings straight.Aging.Replay.ino_map = sorted_bindings resumed.Aging.Replay.ino_map);
  Alcotest.(check string)
    "same digest" (Ffs.Fs.digest straight.Aging.Replay.fs) (Ffs.Fs.digest resumed.Aging.Replay.fs)

(* Regression: crash repair parks orphans under a lost+found directory
   it creates on the spot, and that mkdir can recycle the inum of the
   very file the crash forgot. The replay must then treat the workload's
   mapping to that inum as lost (the inode exists but is a directory
   now), not keep rewriting "the file", which used to blow up with
   [Is_a_directory] two days later. This seed, allocator, crash count
   and fault seed are the run that found it. *)
let test_recycled_inum_after_crash_repair () =
  let days = 2 and crashes = 3 in
  let ops = Workload.Profiles.build params Workload.Profiles.Home ~days ~seed:4020859452334131612 in
  match
    Aging.Replay.run_resumable
      ~config:{ Ffs.Fs.realloc = true; cluster_policy = `Best_fit }
      ~params ~days ~crashes ~fault_seed:576625401 ops
  with
  | `Completed cr ->
      check_int "all crashes recovered" crashes (List.length cr.Aging.Replay.recoveries);
      assert_fsck_clean cr.Aging.Replay.result
  | `Interrupted _ -> Alcotest.fail "the run was unexpectedly interrupted"

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
          tc "recycled inum after crash repair" test_recycled_inum_after_crash_repair;
        ] );
      ( "inode table",
        [
          tc "growth and skips match a Hashtbl replay" test_ino_table_matches_hashtbl;
          tc "checkpoint resume keeps the map" test_resume_keeps_ino_map;
        ] );
    ]
