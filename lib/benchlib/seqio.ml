type point = {
  file_bytes : int;
  files : int;
  write_throughput : float;
  read_throughput : float;
  layout_score : float;
}

let default_sizes =
  [
    16 * 1024;
    32 * 1024;
    48 * 1024;
    64 * 1024;
    80 * 1024;
    96 * 1024;
    104 * 1024;
    128 * 1024;
    192 * 1024;
    256 * 1024;
    512 * 1024;
    1024 * 1024;
    2 * 1024 * 1024;
    4 * 1024 * 1024;
    8 * 1024 * 1024;
    16 * 1024 * 1024;
    32 * 1024 * 1024;
  ]

let files_per_dir = 25

let run_size ~aged ~drive ?(corpus_bytes = 32 * 1024 * 1024) ?metadata ~file_bytes () =
  assert (file_bytes > 0);
  let fs = Ffs.Fs.copy aged in
  let engine = Ffs.Io_engine.create ~fs ~drive ?metadata () in
  Ffs.Io_engine.reset engine;
  let nfiles = max 1 (corpus_bytes / file_bytes) in
  let total_bytes = nfiles * file_bytes in
  (* the benchmark's directory tree: fresh directories, <= 25 files each,
     placed by dirpref so the corpus spans many cylinder groups *)
  let ndirs = (nfiles + files_per_dir - 1) / files_per_dir in
  let dir_prefix = Util.Name.numbered "seqio." file_bytes ^ "." in
  let dirs =
    Array.init ndirs (fun i ->
        Ffs.Fs.mkdir_exn fs ~parent:(Ffs.Fs.root fs) ~name:(Util.Name.numbered dir_prefix i))
  in
  let created = Array.make nfiles 0 in
  let write_elapsed =
    Ffs.Io_engine.elapsed_of engine (fun () ->
        for i = 0 to nfiles - 1 do
          created.(i) <-
            Ffs.Io_engine.create_and_write engine ~dir:dirs.(i / files_per_dir)
              ~name:(Util.Name.numbered "f" i) ~size:file_bytes
        done)
  in
  let read_elapsed =
    Ffs.Io_engine.elapsed_of engine (fun () ->
        for i = 0 to nfiles - 1 do
          Ffs.Io_engine.read_file engine ~inum:created.(i)
        done)
  in
  let layout_score =
    Aging.Layout_score.aggregate_of fs ~inums:(Array.to_list created)
  in
  {
    file_bytes;
    files = nfiles;
    write_throughput = float_of_int total_bytes /. write_elapsed;
    read_throughput = float_of_int total_bytes /. read_elapsed;
    layout_score;
  }

let run ?pool ?timings ~aged ~mk_drive ?corpus_bytes ~sizes () =
  (* each size gets a fresh drive, so the points are independent and the
     sweep parallelizes without changing any number *)
  let point file_bytes = run_size ~aged ~drive:(mk_drive ()) ?corpus_bytes ~file_bytes () in
  match pool with
  | None -> List.map point sizes
  | Some pool ->
      Par.Pool.parallel_list_map ?timings
        ~label:(fun size -> Fmt.str "seqio %d KB" (size / 1024))
        pool point sizes
