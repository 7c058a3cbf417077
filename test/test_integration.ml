(* Cross-module integration properties: I/O plans must read exactly the
   file's data, allocator dominance must hold across seeds, traces must
   round-trip for every profile, and the drive must serialize time. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let params = Ffs.Params.small_test_fs
let block = params.Ffs.Params.block_bytes

let assert_fsck_clean (r : Aging.Replay.result) =
  let report = Ffs.Check.run r.Aging.Replay.fs in
  if not (Ffs.Check.is_clean report) then
    Alcotest.failf "aged image fails fsck: %a" Ffs.Check.pp report

(* --- the I/O plan reads exactly the data + metadata ---------------------- *)

let test_read_accounts_every_sector () =
  let fs = Ffs.Fs.create params in
  let drive = Disk.Drive.create (Disk.Drive.paper_config ()) in
  let engine = Ffs.Io_engine.create ~fs ~drive () in
  let sizes = [ 1000; block; (2 * block) + 3000; 96 * 1024; 104 * 1024; 900 * 1024 ] in
  List.iteri
    (fun i size ->
      let inum = Ffs.Fs.create_file_exn fs ~dir:(Ffs.Fs.root fs) ~name:(Fmt.str "f%d" i) ~size in
      let ino = Ffs.Fs.inode fs inum in
      Ffs.Io_engine.reset engine;
      Ffs.Io_engine.read_file engine ~inum;
      let data_sectors = Ffs.Inode.frag_count ino * 2 in
      let indirect_sectors = Array.length ino.Ffs.Inode.indirect_addrs * 16 in
      (* dir fragment (2 sectors) + inode block (16 sectors) *)
      let metadata_sectors = 2 + 16 + indirect_sectors in
      check_int
        (Fmt.str "size %d: sectors read" size)
        (data_sectors + metadata_sectors)
        (Disk.Drive.stats drive).Disk.Drive.sectors_read)
    sizes

let test_overwrite_writes_every_data_sector () =
  let fs = Ffs.Fs.create params in
  let drive = Disk.Drive.create (Disk.Drive.paper_config ()) in
  let engine = Ffs.Io_engine.create ~fs ~drive () in
  let inum = Ffs.Fs.create_file_exn fs ~dir:(Ffs.Fs.root fs) ~name:"f" ~size:(50 * block) in
  let ino = Ffs.Fs.inode fs inum in
  Ffs.Io_engine.reset engine;
  Ffs.Io_engine.overwrite_file engine ~inum;
  let data_sectors = Ffs.Inode.frag_count ino * 2 in
  (* plus one inode-block mtime write *)
  check_int "sectors written" (data_sectors + 16)
    (Disk.Drive.stats drive).Disk.Drive.sectors_written

(* --- allocator dominance across seeds --------------------------------------- *)

let test_realloc_dominates_across_seeds () =
  List.iter
    (fun seed ->
      let profile =
        { (Workload.Ground_truth.scaled params ~days:8) with Workload.Ground_truth.seed }
      in
      let gt = Workload.Ground_truth.generate params profile in
      let last (r : Aging.Replay.result) =
        r.Aging.Replay.daily_scores.(Array.length r.Aging.Replay.daily_scores - 1)
      in
      let trad = Aging.Replay.run ~params ~days:8 gt.Workload.Ground_truth.ops in
      let re =
        Aging.Replay.run ~config:Ffs.Fs.realloc_config ~params ~days:8
          gt.Workload.Ground_truth.ops
      in
      check_bool (Fmt.str "seed %d: realloc >= traditional - margin" seed) true
        (last re >= last trad -. 0.01);
      assert_fsck_clean trad;
      assert_fsck_clean re)
    [ 1; 42; 777; 31337 ]

(* --- trace round-trips for every profile -------------------------------------- *)

let test_trace_roundtrip_all_profiles () =
  List.iter
    (fun kind ->
      let ops = Workload.Profiles.build params kind ~days:4 ~seed:5 in
      let ops' = Workload.Trace_file.of_string (Workload.Trace_file.to_string ops) in
      check_bool (Workload.Profiles.name kind ^ " round-trips") true (ops = ops'))
    Workload.Profiles.all

(* --- drive time monotonicity ---------------------------------------------------- *)

let prop_drive_serializes_any_request_stream =
  QCheck.Test.make ~name:"drive completions are monotone for any request stream"
    ~count:100
    QCheck.(make Gen.(list_size (int_bound 40) (triple (int_bound 3_000_000) (int_range 1 128) bool)))
    (fun script ->
      let drive = Disk.Drive.create (Disk.Drive.paper_config ()) in
      let clock = ref 0.0 in
      let ok = ref true in
      List.iter
        (fun (lba, n, w) ->
          let op = if w then Disk.Drive.Write else Disk.Drive.Read in
          let t = Disk.Drive.service drive ~now:!clock op ~lba ~nsectors:n in
          if t <= !clock then ok := false;
          clock := t)
        script;
      !ok)

(* --- layout metric agreement ------------------------------------------------------ *)

let test_metric_matches_manual_count () =
  (* build a file system, compute the aggregate score by hand from the
     inodes, and compare with the library's *)
  let profile =
    { (Workload.Ground_truth.scaled params ~days:5) with Workload.Ground_truth.seed = 9 }
  in
  let gt = Workload.Ground_truth.generate params profile in
  let r = Aging.Replay.run ~params ~days:5 gt.Workload.Ground_truth.ops in
  let optimal = ref 0 and counted = ref 0 in
  Ffs.Fs.iter_files r.Aging.Replay.fs (fun ino ->
      let e = ino.Ffs.Inode.entries in
      if Array.length e >= 2 then
        for i = 1 to Array.length e - 1 do
          incr counted;
          if Ffs.Inode.addr e.(i) = Ffs.Inode.addr e.(i - 1) + Ffs.Inode.frags e.(i - 1)
          then incr optimal
        done);
  let manual = float_of_int !optimal /. float_of_int !counted in
  Alcotest.(check (float 1e-12))
    "aggregate agrees with manual count" manual
    (Aging.Layout_score.aggregate r.Aging.Replay.fs);
  assert_fsck_clean r

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "integration"
    [
      ( "io accounting",
        [
          tc "reads account every sector" test_read_accounts_every_sector;
          tc "overwrites account every sector" test_overwrite_writes_every_data_sector;
        ] );
      ( "cross-seed",
        [ tc "realloc dominates across seeds" test_realloc_dominates_across_seeds ] );
      ("traces", [ tc "roundtrip all profiles" test_trace_roundtrip_all_profiles ]);
      ("metric", [ tc "manual agreement" test_metric_matches_manual_count ]);
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_drive_serializes_any_request_stream ] );
    ]
