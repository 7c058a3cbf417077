let default_days = 90
let default_seed = 960117

let heading title = Fmt.str "@.=== Ablation: %s ===@.@." title

let home_workload params ~days ~seed =
  Workload.Profiles.build params Workload.Profiles.Home ~days ~seed

let last a = a.(Array.length a - 1)

let replay ~params ~days ~config ops = Aging.Replay.run ~config ~params ~days ops

(* --- cluster policy -------------------------------------------------------------- *)

let cluster_policy ?(days = default_days) ?(seed = default_seed) () =
  let params = Ffs.Params.paper_fs in
  let ops = home_workload params ~days ~seed in
  let run policy =
    replay ~params ~days ~config:{ Ffs.Fs.realloc = true; cluster_policy = policy } ops
  in
  let first = run `First_fit in
  let best = run `Best_fit in
  let row name (r : Aging.Replay.result) =
    let s = Ffs.Fs.stats r.Aging.Replay.fs in
    [
      name;
      Fmt.str "%.3f" (last r.Aging.Replay.daily_scores);
      string_of_int s.Ffs.Fs.realloc_moves;
      string_of_int s.Ffs.Fs.realloc_failures;
      Fmt.str "%.3f"
        (Aging.Freespace.analyze r.Aging.Replay.fs).Aging.Freespace.cluster_capacity_fraction;
    ]
  in
  heading "realloc cluster-search policy (first fit vs best fit)"
  ^ Util.Chart.table
      ~header:
        [ "policy"; "end layout score"; "windows moved"; "move failures"; "free in clusters" ]
      ~rows:[ row "first-fit" first; row "best-fit" best ]
  ^ "\nFirst fit preserves the chaining preference (a window lands right after\n\
     its predecessor when possible); best fit conserves large runs. The paper\n\
     does not specify the 4.4BSD search order — this quantifies the choice.\n"

(* --- maxcontig -------------------------------------------------------------------- *)

let maxcontig_sweep ?(days = default_days) ?(seed = default_seed) () =
  let rows =
    List.map
      (fun maxcontig ->
        let params = Ffs.Params.v_exn ~maxcontig ~size_bytes:(502 * 1024 * 1024) () in
        let ops = home_workload params ~days ~seed in
        let r = replay ~params ~days ~config:Ffs.Fs.realloc_config ops in
        let s = Ffs.Fs.stats r.Aging.Replay.fs in
        let attempts = max 1 s.Ffs.Fs.realloc_attempts in
        [
          Fmt.str "%d (%d KB)" maxcontig (maxcontig * 8);
          Fmt.str "%.3f" (last r.Aging.Replay.daily_scores);
          Fmt.str "%.1f%%" (100.0 *. float_of_int s.Ffs.Fs.realloc_failures /. float_of_int attempts);
        ])
      [ 2; 4; 7; 14 ]
  in
  heading "maximum cluster size (maxcontig)"
  ^ Util.Chart.table
      ~header:[ "maxcontig"; "end layout score"; "relocation failure rate" ]
      ~rows
  ^ "\nLarger windows ask for larger free runs: better layout while they can be\n\
     found, more failures as free space fragments. The paper configures\n\
     maxcontig to the hardware's 56 KB transfer limit (7 blocks).\n"

(* --- utilization -------------------------------------------------------------------- *)

let utilization_sweep ?(days = default_days) ?(seed = default_seed) () =
  let params = Ffs.Params.paper_fs in
  let rows =
    List.map
      (fun target ->
        let profile =
          {
            (Workload.Ground_truth.scaled params ~days) with
            Workload.Ground_truth.seed;
            utilization_lo = target -. 0.03;
            utilization_hi = target +. 0.03;
          }
        in
        let ops = (Workload.Ground_truth.generate params profile).Workload.Ground_truth.ops in
        let trad = replay ~params ~days ~config:Ffs.Fs.default_config ops in
        let re = replay ~params ~days ~config:Ffs.Fs.realloc_config ops in
        let free = Aging.Freespace.analyze trad.Aging.Replay.fs in
        [
          Fmt.str "%.0f%%" (100.0 *. target);
          Fmt.str "%.3f" (last trad.Aging.Replay.daily_scores);
          Fmt.str "%.3f" (last re.Aging.Replay.daily_scores);
          Fmt.str "%.2f" free.Aging.Freespace.cluster_capacity_fraction;
        ])
      [ 0.5; 0.65; 0.8; 0.92 ]
  in
  heading "steady-state utilization"
  ^ Util.Chart.table
      ~header:
        [ "target util"; "end score (FFS)"; "end score (realloc)"; "free in clusters (FFS)" ]
      ~rows
  ^ "\nFragmentation worsens and realloc's raw material (cluster-sized free\n\
     runs) thins as the disk fills — the \"file systems run nearly full\"\n\
     effect the paper's future work flags.\n"

(* --- cylinder size ------------------------------------------------------------------- *)

let cylinder_size ?(days = default_days) ?(seed = default_seed) () =
  let rows =
    List.map
      (fun cyl ->
        let params =
          Ffs.Params.v_exn ~fs_cylinder_blocks:cyl ~size_bytes:(502 * 1024 * 1024) ()
        in
        let ops = home_workload params ~days ~seed in
        let r = replay ~params ~days ~config:Ffs.Fs.default_config ops in
        [
          Fmt.str "%d blocks (%.1f MB)" cyl (float_of_int (cyl * 8192) /. 1048576.0);
          Fmt.str "%.3f" (last r.Aging.Replay.daily_scores);
        ])
      [ 20; 162; 1024 ]
  in
  heading "traditional allocator's scatter neighbourhood (fs cylinder size)"
  ^ Util.Chart.table ~header:[ "cylinder"; "end layout score (FFS)" ] ~rows
  ^ "\nThe layout score barely moves: the neighbourhood decides how far a\n\
     mis-placed block scatters (a read-time cost), not how often the exact\n\
     next block is free (the contiguity rate). 162 blocks matches the\n\
     paper's synthetic 22x118 geometry.\n"

(* --- hardware sensitivity ---------------------------------------------------------- *)

(* The paper's Section 5.1: "the ratio of seek time to transfer time was
   higher on the PCI-based system, and reducing the seek time resulted
   in larger performance improvements... than were possible on the
   SparcStation." Re-run the 96 KB read benchmark against a model of the
   earlier study's slow-bus I/O system and watch the gain shrink. *)
let hardware_sensitivity ?(days = default_days) ?(seed = default_seed) () =
  let params = Ffs.Params.paper_fs in
  let ops = home_workload params ~days ~seed in
  let trad = replay ~params ~days ~config:Ffs.Fs.default_config ops in
  let re = replay ~params ~days ~config:Ffs.Fs.realloc_config ops in
  let point fs config =
    (Seqio.run_size ~aged:fs ~drive:(Disk.Drive.create config)
       ~corpus_bytes:(8 * 1024 * 1024) ~file_bytes:(96 * 1024) ())
      .Seqio.read_throughput
  in
  let rows =
    List.map
      (fun (name, config) ->
        let t = point trad.Aging.Replay.fs config in
        let r = point re.Aging.Replay.fs config in
        [
          name;
          Fmt.str "%.2f" (t /. 1048576.0);
          Fmt.str "%.2f" (r /. 1048576.0);
          Fmt.str "%+.0f%%" (Util.Stats.pct_change ~from_:t ~to_:r);
        ])
      [
        ("PCI + Fast SCSI (the paper's)", Disk.Drive.paper_config ());
        ("SparcStation-era slow bus", Disk.Drive.sparcstation_config ());
      ]
  in
  heading "I/O system sensitivity (96KB reads; paper Section 5.1's explanation)"
  ^ Util.Chart.table
      ~header:[ "I/O system"; "FFS read MB/s"; "realloc read MB/s"; "realloc gain" ]
      ~rows
  ^ "\nOn a slow bus the transfer dominates every request, so removing seeks\n\
     buys relatively less — the paper's explanation for why its gains exceed\n\
     the <=15% the earlier SparcStation study had led it to expect.\n"

(* --- rotdelay -------------------------------------------------------------------------- *)

let rotdelay ?days:_ ?seed:_ () =
  let rows =
    List.map
      (fun rd ->
        let params = Ffs.Params.v_exn ~rotdelay_blocks:rd ~size_bytes:(502 * 1024 * 1024) () in
        (* rotdelay's effect needs no aging: it spaces even a fresh
           file's blocks *)
        let fs = Ffs.Fs.create params in
        let p =
          Seqio.run_size ~aged:fs ~drive:(Disk.Drive.create (Disk.Drive.paper_config ()))
            ~corpus_bytes:(8 * 1024 * 1024) ~file_bytes:(64 * 1024) ()
        in
        [
          string_of_int rd;
          Fmt.str "%.3f" p.Seqio.layout_score;
          Fmt.str "%.2f" (p.Seqio.read_throughput /. 1048576.0);
          Fmt.str "%.2f" (p.Seqio.write_throughput /. 1048576.0);
        ])
      [ 0; 1; 2 ]
  in
  heading "rotational gap (rotdelay; Table 1 sets it to 0)"
  ^ Util.Chart.table
      ~header:[ "rotdelay blocks"; "layout score"; "read MB/s"; "write MB/s" ]
      ~rows
  ^ "\nThe classic tunable for bufferless drives deliberately breaks\n\
     contiguity. With a track buffer (every drive since the early 90s),\n\
     gaps only hurt: Table 1's 0 is the only sensible setting.\n"

(* --- soft updates -------------------------------------------------------------------------- *)

let soft_updates ?(days = default_days) ?(seed = default_seed) () =
  let params = Ffs.Params.paper_fs in
  let ops = home_workload params ~days ~seed in
  let re = replay ~params ~days ~config:Ffs.Fs.realloc_config ops in
  let rows =
    List.map
      (fun (name, metadata) ->
        let point file_bytes =
          (Seqio.run_size ~aged:re.Aging.Replay.fs
             ~drive:(Disk.Drive.create (Disk.Drive.paper_config ()))
             ~corpus_bytes:(8 * 1024 * 1024) ~metadata ~file_bytes ())
            .Seqio.write_throughput
        in
        [
          name;
          Fmt.str "%.2f" (point (16 * 1024) /. 1048576.0);
          Fmt.str "%.2f" (point (64 * 1024) /. 1048576.0);
          Fmt.str "%.2f" (point (1024 * 1024) /. 1048576.0);
        ])
      [
        ("synchronous (classic FFS)", Ffs.Io_engine.Synchronous);
        ("soft updates (delayed)", Ffs.Io_engine.Soft_updates);
      ]
  in
  heading "synchronous metadata vs soft updates (create throughput)"
  ^ Util.Chart.table
      ~header:[ "metadata"; "16KB files MB/s"; "64KB files MB/s"; "1MB files MB/s" ]
      ~rows
  ^ "\nThe paper blames FFS's synchronous inode and directory writes for its\n\
     flat small-file create curve; batching them (McKusick's later soft\n\
     updates) lifts exactly the small sizes and leaves big files alone.\n"

(* --- seed sensitivity ------------------------------------------------------------------ *)

(* The headline comparison under five different random workloads: is the
   realloc advantage an artifact of one draw? *)
let seed_sensitivity ?(days = default_days) ?(seed = default_seed) () =
  let params = Ffs.Params.paper_fs in
  (* serial: [all] already spreads the studies over its pool, and a
     one-job pool spawns no domains inside that task *)
  let s =
    Par.Pool.with_pool ~jobs:1 (fun pool ->
        Experiments.build_seeds ~params ~days ~pool
          ~workload:(fun seed -> home_workload params ~days ~seed)
          ~seeds:(Experiments.default_seeds ~seed ~n:5)
          ())
  in
  heading "seed sensitivity (five independent workloads)"
  ^ Experiments.seed_table s
  ^ Fmt.str
      "\nreduction in non-optimally allocated blocks: %.0f%% +/- %.0f%% across seeds —\n\
       the paper's ~50%% headline is robust to the workload draw.\n"
      s.mean_reduction_pct s.stddev_reduction_pct

(* --- workload profiles ----------------------------------------------------------------- *)

let workload_profiles ?(days = default_days) ?(seed = default_seed) () =
  let params = Ffs.Params.paper_fs in
  let rows =
    List.map
      (fun kind ->
        let ops = Workload.Profiles.build params kind ~days ~seed in
        let trad = replay ~params ~days ~config:Ffs.Fs.default_config ops in
        let re = replay ~params ~days ~config:Ffs.Fs.realloc_config ops in
        let t = last trad.Aging.Replay.daily_scores in
        let r = last re.Aging.Replay.daily_scores in
        let improvement =
          (* once both allocators are essentially perfect (a database of
             big static files) the ratio is noise *)
          if t > 0.99 then "-"
          else Fmt.str "%.0f%%" (100.0 *. ((1.0 -. t) -. (1.0 -. r)) /. (1.0 -. t))
        in
        [
          Workload.Profiles.name kind;
          string_of_int (Array.length ops);
          Fmt.str "%.1f%%" (100.0 *. Ffs.Fs.utilization trad.Aging.Replay.fs);
          Fmt.str "%.3f" t;
          Fmt.str "%.3f" r;
          improvement;
        ])
      Workload.Profiles.all
  in
  heading "workload profiles (paper Section 6 future work)"
  ^ Util.Chart.table
      ~header:
        [ "profile"; "ops"; "end util"; "FFS score"; "realloc score"; "non-opt reduction" ]
      ~rows

let all ?(days = default_days) ?(seed = default_seed) ?pool ?timings () =
  let studies : (string * (?days:int -> ?seed:int -> unit -> string)) list =
    [
      ("cluster policy", cluster_policy);
      ("maxcontig sweep", maxcontig_sweep);
      ("utilization sweep", utilization_sweep);
      ("cylinder size", cylinder_size);
      ("hardware sensitivity", hardware_sensitivity);
      ("rotdelay", rotdelay);
      ("soft updates", soft_updates);
      ("seed sensitivity", seed_sensitivity);
      ("workload profiles", workload_profiles);
    ]
  in
  (* the studies are independent: fan the grid out on the pool (each
     study derives its randomness from [seed] alone, so the report is
     identical for any job count) *)
  let run_grid p =
    String.concat ""
      (Par.Pool.parallel_list_map ?timings
         ~label:(fun (name, _) -> "ablation: " ^ name)
         p
         (fun (name, study) ->
           Fmt.epr "[bench] ablation: %s...@." name;
           study ?days:(Some days) ?seed:(Some seed) ())
         studies)
  in
  match pool with Some p -> run_grid p | None -> Par.Pool.with_pool run_grid
