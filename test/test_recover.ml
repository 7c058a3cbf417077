(* Tests for the durability layer: the self-describing container, the
   checkpoint store, bit-identical checkpoint/resume of an aging run,
   and the exhaustive crash-point explorer. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let params = Ffs.Params.small_test_fs

let expect_corrupt name r =
  match r with
  | Error (Ffs.Error.Corrupt _) -> ()
  | Error e -> Alcotest.failf "%s: expected Corrupt, got %a" name Ffs.Error.pp e
  | Ok _ -> Alcotest.failf "%s: expected Error Corrupt, got Ok" name

let with_temp_file f =
  let path = Filename.temp_file "ffs_recover" ".bin" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let path = Filename.temp_file "ffs_ckpt" ".d" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then rm_rf path)
    (fun () -> f path)

let flip_byte path ~pos ~mask =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let size = (Unix.fstat fd).Unix.st_size in
  let pos = if pos < 0 then size + pos else pos in
  let buf = Bytes.create 1 in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.read fd buf 0 1);
  Bytes.set buf 0 (Char.chr (Char.code (Bytes.get buf 0) lxor mask));
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.write fd buf 0 1);
  Unix.close fd

(* --- CRC-32 ----------------------------------------------------------------- *)

let test_crc32_known_value () =
  (* the standard check value for CRC-32/ISO-HDLC *)
  Alcotest.(check int32) "crc of 123456789" 0xCBF43926l
    (Util.Crc32.string "123456789")

let test_crc32_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let direct = Util.Crc32.string s in
  let split =
    Util.Crc32.(
      finish (update (update empty s ~pos:0 ~len:10) s ~pos:10 ~len:(String.length s - 10)))
  in
  Alcotest.(check int32) "incremental = one-shot" direct split

(* --- container -------------------------------------------------------------- *)

let test_container_roundtrip () =
  with_temp_file (fun path ->
      let payload = String.init 4096 (fun i -> Char.chr (i land 0xff)) in
      Recover.Container.write ~path ~kind:"test-blob" payload;
      (match Recover.Container.read ~path ~kind:"test-blob" with
      | Ok p -> Alcotest.(check string) "payload intact" payload p
      | Error e -> Alcotest.failf "read failed: %a" Ffs.Error.pp e);
      match Recover.Container.inspect ~path with
      | Error e -> Alcotest.failf "inspect failed: %a" Ffs.Error.pp e
      | Ok info ->
          check_int "version" 1 info.Recover.Container.version;
          Alcotest.(check string) "kind" "test-blob" info.Recover.Container.kind;
          check_int "payload bytes" 4096 info.Recover.Container.payload_bytes;
          check_bool "crc ok" true (Recover.Container.crc_ok info))

let test_container_kind_mismatch () =
  with_temp_file (fun path ->
      Recover.Container.write ~path ~kind:"kind-a" "payload";
      expect_corrupt "wrong kind" (Recover.Container.read ~path ~kind:"kind-b"))

let test_container_bad_version () =
  with_temp_file (fun path ->
      Recover.Container.write ~path ~kind:"t" "payload";
      (* the version field is the little-endian u32 right after the
         8-byte magic *)
      flip_byte path ~pos:8 ~mask:0x40;
      expect_corrupt "future version" (Recover.Container.read ~path ~kind:"t"))

let test_container_payload_bitflip () =
  with_temp_file (fun path ->
      Recover.Container.write ~path ~kind:"t" (String.make 1000 'x');
      flip_byte path ~pos:(-200) ~mask:0x01;
      expect_corrupt "payload flip" (Recover.Container.read ~path ~kind:"t");
      match Recover.Container.inspect ~path with
      | Ok info -> check_bool "inspect reports mismatch" false (Recover.Container.crc_ok info)
      | Error e -> Alcotest.failf "inspect failed: %a" Ffs.Error.pp e)

let test_container_truncated () =
  with_temp_file (fun path ->
      Recover.Container.write ~path ~kind:"t" (String.make 1000 'x');
      Unix.truncate path 500;
      expect_corrupt "truncated" (Recover.Container.read ~path ~kind:"t");
      match Recover.Container.inspect ~path with
      | Ok info ->
          check_bool "crc uncheckable" true (info.Recover.Container.crc_computed = None);
          check_bool "not ok" false (Recover.Container.crc_ok info)
      | Error e -> Alcotest.failf "inspect failed: %a" Ffs.Error.pp e)

(* --- metrics restore -------------------------------------------------------- *)

let test_metrics_restore_roundtrip () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.add m "a_total" 7;
  Obs.Metrics.inc m ~labels:[ ("k", "v") ] "a_total";
  Obs.Metrics.set m "g" 2.5;
  Obs.Metrics.observe m "h_seconds" 0.01;
  Obs.Metrics.observe m "h_seconds" 3.0;
  let snap = Obs.Metrics.snapshot m in
  let m2 = Obs.Metrics.create () in
  Obs.Metrics.restore m2 snap;
  Alcotest.(check bool) "snapshot round-trips" true (Obs.Metrics.snapshot m2 = snap)

(* --- checkpoint/resume ------------------------------------------------------ *)

let days = 6

let build_ops ~seed =
  let profile =
    { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed }
  in
  (Workload.Ground_truth.generate params profile).Workload.Ground_truth.ops

let completed = function
  | `Completed cr -> cr
  | `Interrupted _ -> Alcotest.fail "run was unexpectedly interrupted"

let fs_bytes fs = Ffs.Fs.digest fs

(* The headline acceptance test: 6 days straight vs checkpoint-at-3,
   reload from disk, resume — score history, marshalled image bytes and
   allocator counter totals must all be identical. *)
let test_resume_bit_identical () =
  with_temp_dir (fun dir ->
      let ops = build_ops ~seed:77 in
      let m = Obs.Metrics.default in
      let was_enabled = Obs.Metrics.enabled m in
      Fun.protect
        ~finally:(fun () ->
          Obs.Metrics.reset m;
          Obs.Metrics.set_enabled m was_enabled)
        (fun () ->
          Obs.Metrics.set_enabled m true;
          (* uninterrupted reference run *)
          Obs.Metrics.reset m;
          let straight =
            completed
              (Aging.Replay.run_resumable ~params ~days ~crashes:0 ~fault_seed:0 ops)
          in
          let snap_straight = Obs.Metrics.snapshot m in
          (* interrupted run: checkpoint at day 3, then stop *)
          Obs.Metrics.reset m;
          let stop = ref false in
          (match
             Aging.Replay.run_resumable ~params ~days ~crashes:0 ~fault_seed:0
               ~checkpoint_every:3
               ~on_checkpoint:(fun ck ->
                 ignore (Aging.Checkpoint.save ~dir ~keep:3 ck);
                 stop := true)
               ~should_stop:(fun () -> !stop)
               ops
           with
          | `Interrupted _ -> ()
          | `Completed _ -> Alcotest.fail "expected the run to stop after the checkpoint");
          (* resume from the on-disk checkpoint *)
          let path, ck =
            match Aging.Checkpoint.load_latest ~dir with
            | Ok (path, ck) -> (path, ck)
            | Error e -> Alcotest.failf "load_latest failed: %a" Ffs.Error.pp e
          in
          check_bool "checkpoint file exists" true (Sys.file_exists path);
          check_int "checkpointed at day 3" 3 (Aging.Replay.checkpoint_day ck);
          Obs.Metrics.restore m (Aging.Replay.checkpoint_metrics ck);
          let resumed =
            completed
              (Aging.Replay.run_resumable ~params ~days ~crashes:0 ~fault_seed:0
                 ~resume:ck ops)
          in
          let snap_resumed = Obs.Metrics.snapshot m in
          let r1 = straight.Aging.Replay.result and r2 = resumed.Aging.Replay.result in
          Alcotest.(check (array (float 0.0)))
            "score history identical" r1.Aging.Replay.daily_scores
            r2.Aging.Replay.daily_scores;
          Alcotest.(check (array (float 0.0)))
            "utilization history identical" r1.Aging.Replay.daily_utilization
            r2.Aging.Replay.daily_utilization;
          check_int "skipped ops identical" r1.Aging.Replay.skipped_ops
            r2.Aging.Replay.skipped_ops;
          check_bool "fs image bytes identical" true
            (String.equal (fs_bytes r1.Aging.Replay.fs) (fs_bytes r2.Aging.Replay.fs));
          check_int "ffs_alloc_blocks_total identical"
            (Obs.Metrics.counter_value snap_straight "ffs_alloc_blocks_total")
            (Obs.Metrics.counter_value snap_resumed "ffs_alloc_blocks_total");
          check_int "ffs_alloc_frags_total identical"
            (Obs.Metrics.counter_value snap_straight "ffs_alloc_frags_total")
            (Obs.Metrics.counter_value snap_resumed "ffs_alloc_frags_total");
          (* the straight run is the plain replay: ffs_age ages every
             single-seed image on this engine, so it must be [Replay.run]'s *)
          let plain = Aging.Replay.run ~params ~days ops in
          check_bool "straight run is Replay.run's image and scores" true
            (String.equal (fs_bytes r1.Aging.Replay.fs) (fs_bytes plain.Aging.Replay.fs)
            && r1.Aging.Replay.daily_scores = plain.Aging.Replay.daily_scores)))

let test_resume_rejects_other_workload () =
  with_temp_dir (fun dir ->
      let ops = build_ops ~seed:77 in
      let stop = ref false in
      (match
         Aging.Replay.run_resumable ~params ~days ~crashes:0 ~fault_seed:0
           ~checkpoint_every:3
           ~on_checkpoint:(fun ck ->
             ignore (Aging.Checkpoint.save ~dir ~keep:3 ck);
             stop := true)
           ~should_stop:(fun () -> !stop)
           ops
       with
      | `Interrupted _ -> ()
      | `Completed _ -> Alcotest.fail "expected interruption");
      let _, ck =
        match Aging.Checkpoint.load_latest ~dir with
        | Ok v -> v
        | Error e -> Alcotest.failf "load_latest failed: %a" Ffs.Error.pp e
      in
      let other = build_ops ~seed:1234 in
      match
        Aging.Replay.run_resumable ~params ~days ~crashes:0 ~fault_seed:0 ~resume:ck other
      with
      | exception Ffs.Error.Error (Ffs.Error.Corrupt _) -> ()
      | _ -> Alcotest.fail "resume against a different workload must be rejected")

let test_checkpoint_retention_and_fallback () =
  with_temp_dir (fun dir ->
      let ops = build_ops ~seed:77 in
      (* checkpoint every day with keep=3: only the newest three files
         survive *)
      ignore
        (completed
           (Aging.Replay.run_resumable ~params ~days ~crashes:0 ~fault_seed:0
              ~checkpoint_every:1
              ~on_checkpoint:(fun ck -> ignore (Aging.Checkpoint.save ~dir ~keep:3 ck))
              ops));
      let files = Aging.Checkpoint.list ~dir in
      check_int "retention keeps 3" 3 (List.length files);
      let newest = List.hd files in
      let newest_day =
        match Aging.Checkpoint.load ~path:newest with
        | Ok ck -> Aging.Replay.checkpoint_day ck
        | Error e -> Alcotest.failf "newest unreadable: %a" Ffs.Error.pp e
      in
      (* corrupt the newest checkpoint: load_latest must fall back to
         the next one instead of failing *)
      flip_byte newest ~pos:(-100) ~mask:0x08;
      expect_corrupt "corrupted newest" (Aging.Checkpoint.load ~path:newest);
      (match Aging.Checkpoint.load_latest ~dir with
      | Ok (path, ck) ->
          check_bool "fell back past the corrupt file" true (path <> newest);
          check_bool "older checkpoint" true (Aging.Replay.checkpoint_day ck < newest_day)
      | Error e -> Alcotest.failf "fallback failed: %a" Ffs.Error.pp e);
      (* a newest file an older build wrote as a delta checkpoint: a
         valid container of another kind, which load refuses as Corrupt
         and load_latest skips *)
      let delta = Filename.concat dir "ckpt-op999999999-day9999-delta.ffsck" in
      Recover.Container.write ~path:delta ~kind:"aging-checkpoint-delta-1" (String.make 4096 'd');
      check_bool "delta file listed newest" true (List.hd (Aging.Checkpoint.list ~dir) = delta);
      expect_corrupt "delta kind refused" (Aging.Checkpoint.load ~path:delta);
      (match Aging.Checkpoint.load_latest ~dir with
      | Ok (path, ck) ->
          check_bool "fell back past the delta file" true (path <> delta && path <> newest);
          check_bool "older checkpoint" true (Aging.Replay.checkpoint_day ck < newest_day)
      | Error e -> Alcotest.failf "fallback failed: %a" Ffs.Error.pp e);
      (* a newest file of the previous full kind: its payload holds the
         fault stream's generator in another shape, so the kind check
         refuses it and load_latest skips it *)
      let old_kind = Filename.concat dir "ckpt-op999999999-day9999.ffsck" in
      Recover.Container.write ~path:old_kind ~kind:"aging-checkpoint-3" (String.make 4096 'k');
      check_bool "kind-3 file listed newest" true (List.hd (Aging.Checkpoint.list ~dir) = old_kind);
      expect_corrupt "kind-3 refused" (Aging.Checkpoint.load ~path:old_kind);
      (match Aging.Checkpoint.load_latest ~dir with
      | Ok (path, ck) ->
          check_bool "fell back past the kind-3 file" true
            (path <> old_kind && path <> delta && path <> newest);
          check_bool "older checkpoint" true (Aging.Replay.checkpoint_day ck < newest_day)
      | Error e -> Alcotest.failf "fallback failed: %a" Ffs.Error.pp e);
      (* with every file corrupted there is nothing to resume from (a
         fresh mask, so the already-flipped newest is not flipped back) *)
      List.iter (fun p -> flip_byte p ~pos:(-100) ~mask:0x04) (Aging.Checkpoint.list ~dir);
      expect_corrupt "no valid checkpoint" (Aging.Checkpoint.load_latest ~dir))

(* The store acknowledges its CRCs at every sync, and a scrub syncs
   before it walks: on a resilient store every scrub of a checkpointed
   run verifies every chunk, none skipped and none mismatched. *)
let test_checkpoint_acknowledges_crcs () =
  with_temp_dir (fun dir ->
      let ops = build_ops ~seed:77 in
      let saves = ref 0 and scrubs = ref 0 in
      ignore
        (completed
           (Aging.Replay.run_resumable
              ~backend:(Ffs.Store.resilient_spec Ffs.Store.Heap_backend)
              ~params ~days ~crashes:0 ~fault_seed:0 ~checkpoint_every:1
              ~on_checkpoint:(fun ck ->
                ignore (Aging.Checkpoint.save_exn ~dir ~keep:3 ck);
                incr saves)
              ~scrub_every:1
              ~on_scrub:(fun log ->
                incr scrubs;
                let r = log.Ffs.Check.store_report in
                check_bool "store is checksummed (the scrub walked chunks)" true
                  (r.Ffs.Store.scrub_chunks > 0);
                check_int "every chunk verified" r.Ffs.Store.scrub_chunks
                  r.Ffs.Store.scrub_verified;
                check_bool "no chunk mismatched" true (r.Ffs.Store.scrub_mismatched = []))
              ops));
      check_bool "checkpoints were taken" true (!saves >= 2);
      check_bool "scrubs ran" true (!scrubs >= 2))

(* A checkpoint is a value: one held in memory while its run goes on to
   completion still resumes to the straight run's image and scores. *)
let test_held_checkpoint_resumes () =
  let ops = build_ops ~seed:77 in
  let straight =
    (completed (Aging.Replay.run_resumable ~params ~days ~crashes:0 ~fault_seed:0 ops))
      .Aging.Replay.result
  in
  let held = ref None in
  ignore
    (completed
       (Aging.Replay.run_resumable ~params ~days ~crashes:0 ~fault_seed:0
          ~checkpoint_every:2
          ~on_checkpoint:(fun ck -> if !held = None then held := Some ck)
          ops));
  let ck =
    match !held with Some ck -> ck | None -> Alcotest.fail "no checkpoint was taken"
  in
  check_int "held at day 2" 2 (Aging.Replay.checkpoint_day ck);
  let resumed =
    (completed
       (Aging.Replay.run_resumable ~params ~days ~crashes:0 ~fault_seed:0 ~resume:ck ops))
      .Aging.Replay.result
  in
  Alcotest.(check string)
    "digest of the straight run" (fs_bytes straight.Aging.Replay.fs)
    (fs_bytes resumed.Aging.Replay.fs);
  Alcotest.(check (array (float 0.0)))
    "score series of the straight run" straight.Aging.Replay.daily_scores
    resumed.Aging.Replay.daily_scores

(* --- crash-point explorer --------------------------------------------------- *)

let aged_fs () =
  let d = 3 in
  let profile =
    { (Workload.Ground_truth.scaled params ~days:d) with Workload.Ground_truth.seed = 77 }
  in
  let gt = Workload.Ground_truth.generate params profile in
  (Aging.Replay.run ~params ~days:d gt.Workload.Ground_truth.ops).Aging.Replay.fs

let test_explore_all_clean () =
  let fs = aged_fs () in
  let before = fs_bytes fs in
  let report = Recover.Explore.run ~window:3 fs in
  check_bool "input image untouched" true (String.equal before (fs_bytes fs));
  check_bool "some states explored" true (report.Recover.Explore.total_states > 0);
  List.iter
    (fun (c : Recover.Explore.class_report) ->
      let name = Recover.Explore.class_name c.Recover.Explore.cls in
      (match c.Recover.Explore.skipped with
      | Some reason -> Alcotest.failf "class %s skipped: %s" name reason
      | None -> ());
      check_bool (name ^ " journalled writes") true (c.Recover.Explore.steps > 0);
      check_bool (name ^ " explored states") true (c.Recover.Explore.states > 0);
      check_int (name ^ " all clean") c.Recover.Explore.states c.Recover.Explore.clean;
      check_int (name ^ " all preserved") c.Recover.Explore.states c.Recover.Explore.preserved;
      check_bool (name ^ " committed effect visible") true c.Recover.Explore.committed_ok;
      check_bool (name ^ " ok") true (Recover.Explore.class_ok c))
    report.Recover.Explore.per_class;
  check_bool "report ok" true (Recover.Explore.all_ok report);
  check_bool "report renders" true
    (String.length (Fmt.str "%a" Recover.Explore.pp report) > 50)

let test_explore_wider_window_more_states () =
  let fs = aged_fs () in
  let narrow = Recover.Explore.run ~window:1 ~classes:[ Recover.Explore.Delete ] fs in
  let wide = Recover.Explore.run ~window:4 ~classes:[ Recover.Explore.Delete ] fs in
  check_bool "window widens the state space" true
    (wide.Recover.Explore.total_states >= narrow.Recover.Explore.total_states);
  check_bool "narrow clean" true (Recover.Explore.all_ok narrow);
  check_bool "wide clean" true (Recover.Explore.all_ok wide)

(* [data/]'s two checkpoints are the day-3 and day-4 checkpoints of a
   straight [build_ops ~seed:77] run with [checkpoint_every:1] and
   metrics off, written by the build whose inodes held their runs as
   [{addr; frags}] records (commit 63ff6c7). Resuming the day-3 one
   here must write the day-4 one byte for byte and finish at that run's
   digest. *)
let older_day3 = "data/ckpt-op000000751-day0003.ffsck"
let older_day4 = "data/ckpt-op000000852-day0004.ffsck"
let older_final_digest = "fe11598bcd0549328cc152f3e58b1483"
let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_older_checkpoint_resumes () =
  let ck =
    match Aging.Checkpoint.load ~path:older_day3 with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "older checkpoint: %a" Ffs.Error.pp e
  in
  let ops = build_ops ~seed:77 in
  let m = Obs.Metrics.default in
  let was_enabled = Obs.Metrics.enabled m in
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled m was_enabled)
    (fun () ->
      Obs.Metrics.set_enabled m false;
      Obs.Metrics.reset m;
      with_temp_dir (fun dir ->
          let stop = ref false in
          (match
             Aging.Replay.run_resumable ~params ~days ~crashes:0 ~fault_seed:0 ~resume:ck
               ~checkpoint_every:1
               ~on_checkpoint:(fun next ->
                 ignore (Aging.Checkpoint.save_exn ~dir ~keep:0 next);
                 stop := true)
               ~should_stop:(fun () -> !stop)
               ops
           with
          | `Interrupted _ -> ()
          | `Completed _ -> Alcotest.fail "expected the run to stop after the checkpoint");
          let written = Filename.concat dir (Filename.basename older_day4) in
          check_bool "day-4 checkpoint written" true (Sys.file_exists written);
          check_bool "day-4 checkpoint byte for byte" true
            (String.equal (read_file older_day4) (read_file written)));
      let resumed =
        completed (Aging.Replay.run_resumable ~params ~days ~crashes:0 ~fault_seed:0 ~resume:ck ops)
      in
      Alcotest.(check string)
        "resumes to the straight run's digest" older_final_digest
        (Ffs.Fs.digest resumed.Aging.Replay.result.Aging.Replay.fs))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "recover"
    [
      ( "crc32",
        [ tc "known value" test_crc32_known_value; tc "incremental" test_crc32_incremental ] );
      ( "container",
        [
          tc "roundtrip" test_container_roundtrip;
          tc "kind mismatch" test_container_kind_mismatch;
          tc "bad version" test_container_bad_version;
          tc "payload bit flip" test_container_payload_bitflip;
          tc "truncated" test_container_truncated;
        ] );
      ("metrics", [ tc "restore roundtrip" test_metrics_restore_roundtrip ]);
      ( "checkpoint",
        [
          slow "resume is bit-identical" test_resume_bit_identical;
          slow "rejects a different workload" test_resume_rejects_other_workload;
          slow "retention and corrupt-fallback" test_checkpoint_retention_and_fallback;
          slow "save acknowledges store CRCs" test_checkpoint_acknowledges_crcs;
          slow "a held checkpoint resumes to the straight run" test_held_checkpoint_resumes;
          slow "an older checkpoint resumes byte for byte" test_older_checkpoint_resumes;
        ] );
      ( "explore",
        [
          slow "every crash state repairs clean" test_explore_all_clean;
          slow "wider window, more states" test_explore_wider_window_more_states;
        ] );
    ]
