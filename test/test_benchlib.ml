(* Integration tests for the benchmark layer: the sequential-I/O and
   hot-file benchmarks on a small aged image, and the experiment
   drivers end-to-end at reduced scale. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let params = Ffs.Params.small_test_fs
let days = 8

let aged = ref None

(* one shared small aging run for the whole file (built lazily) *)
let get_aged () =
  match !aged with
  | Some r -> r
  | None ->
      let profile =
        { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed = 99 }
      in
      let gt = Workload.Ground_truth.generate params profile in
      let trad = Aging.Replay.run ~params ~days gt.Workload.Ground_truth.ops in
      let re =
        Aging.Replay.run ~config:Ffs.Fs.realloc_config ~params ~days
          gt.Workload.Ground_truth.ops
      in
      List.iter
        (fun (r : Aging.Replay.result) ->
          let report = Ffs.Check.run r.Aging.Replay.fs in
          if not (Ffs.Check.is_clean report) then
            Alcotest.failf "aged image fails fsck: %a" Ffs.Check.pp report)
        [ trad; re ];
      aged := Some (trad, re);
      (trad, re)

let fresh_drive () = Disk.Drive.create (Disk.Drive.paper_config ())

(* --- Seqio ------------------------------------------------------------------ *)

let test_seqio_point_sanity () =
  let trad, _ = get_aged () in
  let p =
    Benchlib.Seqio.run_size ~aged:trad.Aging.Replay.fs ~drive:(fresh_drive ())
      ~corpus_bytes:(2 * 1024 * 1024) ~file_bytes:(64 * 1024) ()
  in
  check_int "file count" 32 p.Benchlib.Seqio.files;
  check_bool "write throughput positive" true (p.Benchlib.Seqio.write_throughput > 0.0);
  check_bool "read throughput positive" true (p.Benchlib.Seqio.read_throughput > 0.0);
  check_bool "read beats write (metadata + lost rotations)" true
    (p.Benchlib.Seqio.read_throughput > p.Benchlib.Seqio.write_throughput);
  check_bool "layout in [0,1]" true
    (p.Benchlib.Seqio.layout_score >= 0.0 && p.Benchlib.Seqio.layout_score <= 1.0)

let test_seqio_does_not_disturb_aged_image () =
  let trad, _ = get_aged () in
  let files_before = Ffs.Fs.file_count trad.Aging.Replay.fs in
  let free_before = Ffs.Fs.free_data_frags trad.Aging.Replay.fs in
  ignore
    (Benchlib.Seqio.run_size ~aged:trad.Aging.Replay.fs ~drive:(fresh_drive ())
       ~corpus_bytes:(1024 * 1024) ~file_bytes:(16 * 1024) ());
  check_int "file count unchanged" files_before (Ffs.Fs.file_count trad.Aging.Replay.fs);
  check_int "free space unchanged" free_before
    (Ffs.Fs.free_data_frags trad.Aging.Replay.fs)

(* Words [f] allocates: in the minor heap, plus directly in the major
   heap, net of the measurement's own. The minor collection first
   empties the minor heap, so nothing is promoted while [f] runs. *)
let heap_words f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  Gc.minor ();
  let w0 = words () in
  let w1 = words () in
  let v = f () in
  let w2 = words () in
  ignore (Sys.opaque_identity v);
  int_of_float (w2 -. w1 -. (w1 -. w0))

(* Every seqio point forks the aged image, so a fork's cost is paid per
   point. The fork shares the immutable inode records and, until its
   first write, every directory state; it copies the store, the slot
   tables and each group's extent index, whose run tables are bytes. A
   deep copy of the records, the directory tables and int-array run
   tables allocated 10,326 words on each of these images; the bound is
   half that. Only meaningful in native code (bytecode boxes
   differently). *)
let test_copy_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let trad, re = get_aged () in
    let bound = 10_326 / 2 in
    List.iter
      (fun (what, (r : Aging.Replay.result)) ->
        let words = heap_words (fun () -> Ffs.Fs.copy r.Aging.Replay.fs) in
        if words > bound then
          Alcotest.failf "%s: Fs.copy allocated %d words, bound %d" what words bound)
      [ ("traditional", trad); ("realloc", re) ]
  end

let test_seqio_realloc_layout_wins () =
  let trad, re = get_aged () in
  let run fs =
    Benchlib.Seqio.run_size ~aged:fs ~drive:(fresh_drive ())
      ~corpus_bytes:(2 * 1024 * 1024) ~file_bytes:(32 * 1024) ()
  in
  let pt = run trad.Aging.Replay.fs in
  let pr = run re.Aging.Replay.fs in
  check_bool "realloc layout at least as good" true
    (pr.Benchlib.Seqio.layout_score >= pt.Benchlib.Seqio.layout_score -. 0.02)

let test_seqio_single_file_corpus () =
  let trad, _ = get_aged () in
  let p =
    Benchlib.Seqio.run_size ~aged:trad.Aging.Replay.fs ~drive:(fresh_drive ())
      ~corpus_bytes:(1024 * 1024) ~file_bytes:(4 * 1024 * 1024) ()
  in
  check_int "at least one file" 1 p.Benchlib.Seqio.files

let test_default_sizes_cover_key_points () =
  List.iter
    (fun kb ->
      check_bool (Fmt.str "%dKB present" kb) true
        (List.mem (kb * 1024) Benchlib.Seqio.default_sizes))
    [ 16; 64; 96; 104 ]

(* --- Hotfiles ------------------------------------------------------------------ *)

let test_hot_set_sorted_by_directory () =
  let trad, _ = get_aged () in
  let hot = Benchlib.Hotfiles.hot_set trad ~days in
  check_bool "nonempty" true (hot <> []);
  let dirs = List.map (fun i -> Ffs.Fs.dir_of_inum trad.Aging.Replay.fs i) hot in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  check_bool "directory-sorted" true (nondecreasing dirs)

let test_hotfiles_run () =
  let trad, _ = get_aged () in
  let r = Benchlib.Hotfiles.run ~aged:trad ~drive:(fresh_drive ()) ~days in
  check_bool "files positive" true (r.Benchlib.Hotfiles.files > 0);
  check_bool "bytes positive" true (r.Benchlib.Hotfiles.bytes > 0);
  check_bool "fractions in (0,1]" true
    (r.Benchlib.Hotfiles.fraction_of_files > 0.0
    && r.Benchlib.Hotfiles.fraction_of_files <= 1.0
    && r.Benchlib.Hotfiles.fraction_of_space > 0.0
    && r.Benchlib.Hotfiles.fraction_of_space <= 1.0);
  check_bool "throughputs positive" true
    (r.Benchlib.Hotfiles.read_throughput > 0.0 && r.Benchlib.Hotfiles.write_throughput > 0.0);
  check_bool "reads faster than in-place writes" true
    (r.Benchlib.Hotfiles.read_throughput > r.Benchlib.Hotfiles.write_throughput)

let test_hotfiles_by_size () =
  let trad, _ = get_aged () in
  let buckets = Benchlib.Hotfiles.by_size ~aged:trad ~days in
  check_bool "some buckets" true (buckets <> []);
  List.iter
    (fun b ->
      check_bool "score in range" true
        (b.Aging.Layout_score.score >= 0.0 && b.Aging.Layout_score.score <= 1.0))
    buckets

(* --- Experiments (reduced scale, exercises every driver) ------------------------- *)

let test_experiments_end_to_end () =
  let ctx = Benchlib.Experiments.build ~params ~days ~seed:4321 () in
  check_int "days recorded" days (Benchlib.Experiments.days ctx);
  let csv_dir = Filename.temp_file "ffs_repro" "" in
  Sys.remove csv_dir;
  (* table1 is static *)
  check_bool "table1 mentions the disk" true
    (String.length (Benchlib.Experiments.table1 ()) > 100);
  List.iter
    (fun (name, f) ->
      let report = f ~csv_dir ctx in
      check_bool (name ^ " report nonempty") true (String.length report > 100))
    [
      ("fig1", fun ~csv_dir ctx -> Benchlib.Experiments.fig1 ~csv_dir ctx);
      ("fig2", fun ~csv_dir ctx -> Benchlib.Experiments.fig2 ~csv_dir ctx);
      ("fig3", fun ~csv_dir ctx -> Benchlib.Experiments.fig3 ~csv_dir ctx);
      ("fig5", fun ~csv_dir ctx -> Benchlib.Experiments.fig5 ~csv_dir ctx);
      ("fig6", fun ~csv_dir ctx -> Benchlib.Experiments.fig6 ~csv_dir ctx);
      ("table2", fun ~csv_dir ctx -> Benchlib.Experiments.table2 ~csv_dir ctx);
    ];
  check_bool "csv files written" true
    (Sys.file_exists (Filename.concat csv_dir "fig2_ffs_vs_realloc.csv"));
  (* the shape checks must at least run at small scale *)
  (* the size-specific figure-4 checks are skipped at reduced corpus *)
  let checks = Benchlib.Experiments.shape_checks ctx in
  check_bool "checks produced" true (List.length checks >= 8)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "benchlib"
    [
      ( "seqio",
        [
          tc "point sanity" test_seqio_point_sanity;
          tc "copy isolation" test_seqio_does_not_disturb_aged_image;
          tc "copy allocation" test_copy_allocation;
          tc "realloc layout wins" test_seqio_realloc_layout_wins;
          tc "single-file corpus" test_seqio_single_file_corpus;
          tc "default sizes" test_default_sizes_cover_key_points;
        ] );
      ( "hotfiles",
        [
          tc "sorted by directory" test_hot_set_sorted_by_directory;
          tc "run" test_hotfiles_run;
          tc "by size" test_hotfiles_by_size;
        ] );
      ("experiments", [ slow "end to end (reduced scale)" test_experiments_end_to_end ]);
    ]
