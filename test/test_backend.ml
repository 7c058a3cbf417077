(* Differential tests of the storage backends: every pipeline — aging,
   fault injection + repair, crash exploration, checkpointing, image
   persistence — must produce bit-identical volume state whether the
   image lives on the in-heap Bytes store or the mmap'd file store. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let heap = Ffs.Store.Heap_backend
let mmap = Ffs.Store.Mmap_backend None

let build_ops params ~days ~seed =
  let profile =
    { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed }
  in
  (Workload.Ground_truth.generate params profile).Workload.Ground_truth.ops

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let path = Filename.temp_file "ffs_backend" ".d" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then rm_rf path)
    (fun () -> f path)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* The headline acceptance test: ten days of the paper's geometry and
   workload, replayed once per backend, pinning the image digest, the
   daily score series and the allocator's block counter. *)
let test_paper_aging_differential () =
  let params = Ffs.Params.paper_fs in
  let days = 10 in
  let ops = build_ops params ~days ~seed:960117 in
  let m = Obs.Metrics.default in
  let was_enabled = Obs.Metrics.enabled m in
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.reset m;
      Obs.Metrics.set_enabled m was_enabled)
    (fun () ->
      Obs.Metrics.set_enabled m true;
      let age backend =
        Obs.Metrics.reset m;
        let r = Aging.Replay.run ~backend ~params ~days ops in
        (r, Obs.Metrics.snapshot m)
      in
      let rh, mh = age heap in
      let rm, mm = age mmap in
      check_string "heap store name" "bytes" (Ffs.Fs.backend_name rh.Aging.Replay.fs);
      check_string "mmap store name" "mmap" (Ffs.Fs.backend_name rm.Aging.Replay.fs);
      check_string "image digest identical"
        (Ffs.Fs.digest rh.Aging.Replay.fs)
        (Ffs.Fs.digest rm.Aging.Replay.fs);
      Alcotest.(check (array (float 0.0)))
        "score series identical" rh.Aging.Replay.daily_scores
        rm.Aging.Replay.daily_scores;
      Alcotest.(check (array (float 0.0)))
        "utilization series identical" rh.Aging.Replay.daily_utilization
        rm.Aging.Replay.daily_utilization;
      check_int "skipped ops identical" rh.Aging.Replay.skipped_ops
        rm.Aging.Replay.skipped_ops;
      check_int "ffs_alloc_blocks_total identical"
        (Obs.Metrics.counter_value mh "ffs_alloc_blocks_total")
        (Obs.Metrics.counter_value mm "ffs_alloc_blocks_total");
      check_int "ffs_alloc_frags_total identical"
        (Obs.Metrics.counter_value mh "ffs_alloc_frags_total")
        (Obs.Metrics.counter_value mm "ffs_alloc_frags_total"))

let small = Ffs.Params.small_test_fs

(* fault -> repair on both backends: same seeded plan, same repairs,
   same resulting image *)
let test_fault_repair_differential () =
  let days = 4 in
  let ops = build_ops small ~days ~seed:77 in
  let pipeline backend =
    let fs = (Aging.Replay.run ~backend ~params:small ~days ops).Aging.Replay.fs in
    let rng = Util.Prng.create ~seed:4242 in
    let spec = Fault.Plan.gen ~rng ~intensity:8 in
    let events = Fault.Inject.apply fs ~rng spec in
    ignore (Ffs.Check.repair_exn fs);
    check_bool "repaired clean" true (Ffs.Check.is_clean (Ffs.Check.run fs));
    (List.length events, Ffs.Fs.digest fs)
  in
  let nh, dh = pipeline heap in
  let nm, dm = pipeline mmap in
  check_int "same faults injected" nh nm;
  check_string "repaired image digest identical" dh dm

(* crash-injected replay and the exhaustive crash-state explorer *)
let test_crash_pipeline_differential () =
  let days = 4 in
  let ops = build_ops small ~days ~seed:77 in
  let pipeline backend =
    let cr =
      Aging.Replay.run_with_crashes ~backend ~params:small ~days ~crashes:2
        ~fault_seed:666 ops
    in
    let fs = cr.Aging.Replay.result.Aging.Replay.fs in
    let report = Recover.Explore.run ~window:2 fs in
    check_bool "all crash states repair clean" true (Recover.Explore.all_ok report);
    ( List.length cr.Aging.Replay.recoveries,
      report.Recover.Explore.total_states,
      Ffs.Fs.digest fs )
  in
  let ch, sh, dh = pipeline heap in
  let cm, sm, dm = pipeline mmap in
  check_int "same crashes recovered" ch cm;
  check_int "same crash states explored" sh sm;
  check_string "post-crash image digest identical" dh dm

(* an image saved from an mmap-backed run loads onto either backend,
   bit-identically *)
let test_image_cross_backend () =
  with_temp_dir (fun dir ->
      let ops = build_ops small ~days:4 ~seed:77 in
      let result = Aging.Replay.run ~backend:mmap ~params:small ~days:4 ops in
      let digest = Ffs.Fs.digest result.Aging.Replay.fs in
      let path = Filename.concat dir "aged.img" in
      Aging.Image.save_exn ~path { Aging.Image.days = 4; description = "x"; result };
      let on_heap = Aging.Image.load_exn ~backend:heap ~path in
      let on_mmap = Aging.Image.load_exn ~backend:mmap ~path in
      check_string "heap load digest" digest
        (Ffs.Fs.digest on_heap.Aging.Image.result.Aging.Replay.fs);
      check_string "mmap load digest" digest
        (Ffs.Fs.digest on_mmap.Aging.Image.result.Aging.Replay.fs);
      check_string "heap load backend" "bytes"
        (Ffs.Fs.backend_name on_heap.Aging.Image.result.Aging.Replay.fs);
      check_string "mmap load backend" "mmap"
        (Ffs.Fs.backend_name on_mmap.Aging.Image.result.Aging.Replay.fs);
      (* the mmap-loaded image is live, not a dead snapshot *)
      let fs = on_mmap.Aging.Image.result.Aging.Replay.fs in
      let inum =
        Ffs.Fs.create_file_exn fs ~dir:(Ffs.Fs.root fs) ~name:"post-load" ~size:8192
      in
      check_bool "mmap image writable" true (Ffs.Fs.file_exists fs inum);
      check_bool "mmap image audits clean" true
        (Ffs.Check.is_clean (Ffs.Check.run fs)))

(* a file-backed mmap store persists through sync and names its path *)
let test_mmap_file_backing () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "volume.ffs" in
      let ops = build_ops small ~days:3 ~seed:77 in
      let result =
        Aging.Replay.run
          ~backend:(Ffs.Store.Mmap_backend (Some path))
          ~params:small ~days:3 ops
      in
      let fs = result.Aging.Replay.fs in
      check_string "backend names the file" ("mmap:" ^ path) (Ffs.Fs.backend_name fs);
      Ffs.Fs.sync fs;
      check_bool "backing file exists" true (Sys.file_exists path);
      check_bool "backing file sized to the volume" true
        ((Unix.stat path).Unix.st_size >= Ffs.Store.Layout.total_bytes small))

(* --- named-file mmap error paths ------------------------------------------- *)

(* OS-level failures must surface as typed [Error.Io] carrying the
   offending path — never as a raw [Unix_error] or a segfaulting
   mapping *)

let expect_io name r =
  match r with
  | Error (Ffs.Error.Io { path; message }) ->
      check_bool (name ^ ": error names the path") true (path <> "");
      message
  | Error e -> Alcotest.failf "%s: expected Io, got %a" name Ffs.Error.pp e
  | Ok _ -> Alcotest.failf "%s: expected Error Io, got Ok" name

let test_mmap_missing_directory () =
  with_temp_dir (fun dir ->
      let path = Filename.concat (Filename.concat dir "no-such-dir") "volume.ffs" in
      let r =
        Ffs.Error.guard (fun () ->
            Ffs.Store.mmap ~path ~length:4096 ~chunk_bytes:1024 ())
      in
      ignore (expect_io "missing directory" r))

let test_mmap_path_is_directory () =
  with_temp_dir (fun dir ->
      let r =
        Ffs.Error.guard (fun () ->
            Ffs.Store.mmap ~path:dir ~length:4096 ~chunk_bytes:1024 ())
      in
      ignore (expect_io "path is a directory" r))

let test_mmap_truncated_backing_file () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "volume.ffs" in
      let oc = open_out path in
      output_string oc "short";
      close_out oc;
      let r =
        Ffs.Error.guard (fun () ->
            Ffs.Store.mmap ~path ~length:4096 ~chunk_bytes:1024 ())
      in
      let message = expect_io "truncated backing file" r in
      check_bool "message says the file is too short" true
        (contains ~sub:"truncated" message);
      (* the pre-check must refuse before touching the file: a truncated
         image must not be silently grown over *)
      check_int "backing file untouched" 5 (Unix.stat path).Unix.st_size)

(* the same typed error must come back through the whole stack when the
   CLI-level backend spec names an unusable file *)
let test_mmap_error_through_replay () =
  with_temp_dir (fun dir ->
      let path = Filename.concat (Filename.concat dir "gone") "volume.ffs" in
      let ops = build_ops small ~days:1 ~seed:5 in
      let r =
        Ffs.Error.guard (fun () ->
            ignore
              (Aging.Replay.run
                 ~backend:(Ffs.Store.Mmap_backend (Some path))
                 ~params:small ~days:1 ops))
      in
      ignore (expect_io "replay on a missing directory" r))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "backend"
    [
      ( "differential",
        [
          slow "10-day paper aging, heap = mmap" test_paper_aging_differential;
          slow "fault->repair, heap = mmap" test_fault_repair_differential;
          slow "crash pipeline, heap = mmap" test_crash_pipeline_differential;
        ] );
      ( "image",
        [
          slow "cross-backend image round-trip" test_image_cross_backend;
          tc "file-backed mmap volume" test_mmap_file_backing;
        ] );
      ( "mmap errors",
        [
          tc "missing directory is typed Io" test_mmap_missing_directory;
          tc "path is a directory is typed Io" test_mmap_path_is_directory;
          tc "truncated backing file is typed Io" test_mmap_truncated_backing_file;
          tc "typed Io surfaces through replay" test_mmap_error_through_replay;
        ] );
    ]
