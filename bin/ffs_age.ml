(* ffs_age: age a file system with the ten-month workload and save the
   resulting image (the paper's Section 3 tool). *)

open Cmdliner

let run_multi_seed ~params ~days ~seed ~nseeds ~jobs ~quiet ~kind ~profile_kind =
  let seeds = Benchlib.Experiments.default_seeds ~seed ~n:nseeds in
  let workload seed = Common.build_workload ~params ~days ~seed ~kind ~profile_kind in
  let timings = Par.Timings.create () in
  let log msg = if not quiet then Fmt.epr "[age] %s@." msg in
  let outcome =
    try
      `Done
        (Par.Pool.with_pool ~jobs (fun pool ->
             Par.Pool.with_sigint pool (fun () ->
                 Benchlib.Experiments.build_seeds ~params ~days ~pool ~timings ~log
                   ~workload ~seeds ())))
    with Par.Pool.Interrupted { completed; total } -> `Stopped (completed, total)
  in
  (match outcome with
  | `Done summary -> print_string (Benchlib.Experiments.seed_report summary)
  | `Stopped (completed, total) ->
      (* the pool's Interrupted payload becomes the final report: say
         exactly how far the run got and what the interruption cost,
         not just a count *)
      Fmt.pr "@.=== Multi-seed run INTERRUPTED ===@.@.";
      Fmt.pr "%d/%d parallel tasks reached completion before the stop request drained \
              the pool.@." completed total;
      Fmt.pr "Multi-seed aggregates are only reported complete; the finished tasks are \
              discarded.@.";
      Fmt.pr "Re-running with the same --seed and --seeds reproduces the run \
              bit-identically;@.";
      Fmt.pr "for an interruptible run with durable resume, age one seed with \
              --checkpoint-dir.@.");
  Common.print_timings ~quiet timings;
  match outcome with `Stopped _ -> exit 130 | `Done _ -> ()

(* The one single-seed replay: the serial resumable engine beneath
   [Replay.run], crash injection and Figure 2, so one seed
   ages one image whatever the flags. Adds periodic durable checkpoints,
   SIGINT-triggered checkpoint-and-exit when a checkpoint directory is
   known, and resume from the newest valid checkpoint. Exits 130 when
   interrupted, 2 when the resume state is unusable. *)
let replay_checkpointed ~backend ~params ~days ~config ~quiet ~crashes ~fault_seed
    ~checkpoint_every ~checkpoint_dir ~checkpoint_keep ~resume
    ~scrub_every ~on_skip ops =
  let dir = match checkpoint_dir with Some d -> Some d | None -> resume in
  let resume_ck =
    match resume with
    | None -> None
    | Some rdir -> (
        match Aging.Checkpoint.load_latest ~dir:rdir with
        | Error e ->
            Fmt.epr "cannot resume: %a@." Ffs.Error.pp e;
            exit 2
        | Ok (path, ck) ->
            if not quiet then
              Fmt.epr "resuming from %s (day %d, op %d)@." path
                (Aging.Replay.checkpoint_day ck)
                (Aging.Replay.checkpoint_next_op ck);
            (* counters continue where the interrupted run left them, so
               the finished run's totals match an uninterrupted one *)
            Obs.Metrics.restore Obs.Metrics.default (Aging.Replay.checkpoint_metrics ck);
            Some ck)
  in
  let stop = Atomic.make false in
  (* ^C checkpoints and exits only when there is a directory to resume
     from; without one it keeps its default meaning *)
  let with_sigint f =
    match dir with
    | None -> f ()
    | Some _ ->
        let prev_sigint =
          Sys.signal Sys.sigint
            (Sys.Signal_handle
               (fun _ ->
                 if Atomic.get stop then exit 130;
                 Atomic.set stop true;
                 prerr_endline
                   "interrupt: checkpointing at the next operation (^C again to abort)"))
        in
        Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigint prev_sigint) f
  in
  let save_ck ck =
    match dir with
    | None ->
        if not quiet then
          Fmt.epr "WARNING: no --checkpoint-dir; checkpoint dropped@."
    | Some dir -> (
        match Aging.Checkpoint.save ~dir ~keep:checkpoint_keep ck with
        | Error e -> Fmt.epr "WARNING: checkpoint failed: %a@." Ffs.Error.pp e
        | Ok path ->
            if not quiet then
              Fmt.epr "checkpoint written to %s (day %d)@." path
                (Aging.Replay.checkpoint_day ck))
  in
  if not quiet then
    Fmt.epr "workload: %a@." Workload.Op.pp_stats (Workload.Op.stats ops);
  let on_scrub (s : Ffs.Check.scrub_log) =
    if not quiet then Fmt.epr "%a@." Ffs.Check.pp_scrub s
  in
  let outcome =
    with_sigint (fun () ->
        try
          Aging.Replay.run_resumable ~backend ~config
            ~progress:(Common.progress_of ~days ~quiet) ~on_skip
            ?resume:resume_ck
            ~should_stop:(fun () -> Atomic.get stop)
            ~checkpoint_every ~on_checkpoint:save_ck ~scrub_every ~on_scrub ~params
            ~days ~crashes ~fault_seed ops
        with Ffs.Error.Error e ->
          Fmt.epr "%s failed: %a@."
            (if resume_ck = None then "replay" else "resume")
            Ffs.Error.pp e;
          exit 2)
  in
  match outcome with
  | `Interrupted ck ->
      save_ck ck;
      Fmt.epr "interrupted at day %d, op %d; resume with --resume@."
        (Aging.Replay.checkpoint_day ck)
        (Aging.Replay.checkpoint_next_op ck);
      exit 130
  | `Completed cr -> (cr.Aging.Replay.result, cr.Aging.Replay.recoveries)

let run days seed nseeds jobs realloc policy backend store_faults
    scrub_every kind profile_kind quiet params crashes fault_seed checkpoint_every
    checkpoint_dir checkpoint_keep resume trace metrics_out
    image_out csv_out workload_in workload_out =
  (* the --seeds grid ages 2N in-heap images of its own, under
     traditional FFS and Fs.realloc_config: a flag that picks how the
     one single-seed image is aged, or shapes or saves it, has nothing
     to act on there *)
  let single_image_flags =
    List.filter_map
      (fun (flag, given) -> if given then Some flag else None)
      [
        ("--image", image_out <> None);
        ("--csv", csv_out <> None);
        ("--checkpoint-every", checkpoint_every <> 0);
        ("--checkpoint-dir", checkpoint_dir <> None);
        ("--resume", resume <> None);
        ("--crashes", crashes <> 0);
        ("--store-faults", store_faults <> None);
        ("--load-workload", workload_in <> None);
        ("--save-workload", workload_out <> None);
        ("--realloc", realloc);
        ("--cluster-policy", policy <> `First_fit);
        ("--backend", backend <> Ffs.Store.Heap_backend);
        ("--scrub-every", scrub_every > 0);
      ]
  in
  if nseeds > 1 && single_image_flags <> [] then begin
    Fmt.epr "ffs_age: %s only apply to a single-seed run, not to --seeds %d@."
      (String.concat ", " single_image_flags) nseeds;
    exit 2
  end;
  Common.obs_setup ~trace ~metrics_out;
  if nseeds > 1 then begin
    run_multi_seed ~params ~days ~seed ~nseeds ~jobs ~quiet ~kind ~profile_kind;
    Common.obs_finish ~quiet ~trace ~metrics_out
  end
  else begin
  let config = Common.config_of ~realloc ~policy in
  let ops =
    match workload_in with
    | Some path ->
        Fmt.epr "loading workload from %s@." path;
        Workload.Trace_file.load ~path
    | None -> Common.build_workload ~params ~days ~seed ~kind ~profile_kind
  in
  (match workload_out with
  | Some path ->
      Workload.Trace_file.save ~path ops;
      Fmt.pr "workload written to %s@." path
  | None -> ());
  let days =
    match workload_in with
    | None -> days
    | Some _ -> (Workload.Op.stats ops).Workload.Op.days
  in
  let backend = Common.resolve_backend ~backend ~store_faults ~fault_seed in
  (* with device faults the store heals via periodic scrubs, which only
     the serial resumable engine can drive — default to a daily scrub *)
  let scrub_every =
    if scrub_every > 0 then scrub_every else if store_faults <> None then 1 else 0
  in
  (* a resumed run sees only the skips since its checkpoint *)
  let full = ref 0 and missing = ref 0 and live = ref 0 in
  let on_skip _ ~cause ~skipped:_ =
    incr
      (match cause with
      | Aging.Replay.Out_of_space -> full
      | No_live_file -> missing
      | Already_live -> live)
  in
  let result, recoveries =
    replay_checkpointed ~backend ~params ~days ~config ~quiet ~crashes ~fault_seed
      ~checkpoint_every ~checkpoint_dir ~checkpoint_keep ~resume ~scrub_every ~on_skip ops
  in
  let scores = result.Aging.Replay.daily_scores in
  Fmt.pr "allocator: %s@." (if realloc then "FFS + realloc" else "traditional FFS");
  Fmt.pr "aged %d days; %d files live; utilization %.1f%%@." days
    (Ffs.Fs.file_count result.Aging.Replay.fs)
    (100.0 *. Ffs.Fs.utilization result.Aging.Replay.fs);
  Fmt.pr "aggregate layout score: day 1 %.3f -> day %d %.3f@." scores.(0) days
    scores.(Array.length scores - 1);
  Fmt.pr "score history: %s@." (Util.Chart.sparkline scores);
  let skipped = result.Aging.Replay.skipped_ops in
  if skipped > 0 then begin
    let causes =
      List.filter_map
        (fun (k, what) -> if k > 0 then Some (Fmt.str "%d %s" k what) else None)
        [
          (!full, "out of space");
          (!missing, "on files with no live inode");
          (!live, "creating files already live");
          (skipped - !full - !missing - !live, "before the resume");
        ]
    in
    Fmt.pr "WARNING: %d operations skipped (%s)@." skipped (String.concat ", " causes)
  end;
  (* end-state gauges so the snapshot carries the run's outcome, not
     just its event counts *)
  let m = Obs.Metrics.default in
  Obs.Metrics.set m "ffs_utilization_ratio" (Ffs.Fs.utilization result.Aging.Replay.fs);
  Obs.Metrics.set m "ffs_files_live" (float_of_int (Ffs.Fs.file_count result.Aging.Replay.fs));
  Obs.Metrics.set m "replay_final_layout_score" scores.(Array.length scores - 1);
  Common.print_heatmap ~quiet ();
  List.iter
    (fun r ->
      Fmt.pr
        "crash after op %d (day %d): %d faults torn, %d problems found, %d files lost; repaired@."
        r.Aging.Replay.after_op r.Aging.Replay.day r.Aging.Replay.faults_injected
        r.Aging.Replay.problems_found r.Aging.Replay.files_lost)
    recoveries;
  (match csv_out with
  | None -> ()
  | Some path ->
      let csv = Util.Csv.create ~header:[ "day"; "layout_score"; "utilization" ] in
      Array.iteri
        (fun i s ->
          Util.Csv.add_row csv
            (string_of_int (i + 1)
            :: Util.Csv.floats [ s; result.Aging.Replay.daily_utilization.(i) ]))
        scores;
      Util.Csv.save csv ~path;
      Fmt.pr "daily scores written to %s@." path);
  (match image_out with
  | None -> ()
  | Some path ->
      let description =
        Fmt.str "days=%d seed=%d allocator=%s workload=%s" days seed
          (if realloc then "realloc" else "ffs")
          (match kind with Common.Ground_truth -> "ground-truth" | Common.Reconstructed -> "reconstructed")
      in
      (match Aging.Image.save ~path { Aging.Image.days; description; result } with
      | Ok () -> Fmt.pr "aged image written to %s@." path
      | Error e ->
          Fmt.epr "cannot save image: %a@." Ffs.Error.pp e;
          exit 2));
  Common.obs_finish ~quiet ~trace ~metrics_out
  end

let cmd =
  let image_out =
    Arg.(value & opt (some string) None
         & info [ "image" ] ~docv:"PATH" ~doc:"Save the aged image for later benchmarking.")
  in
  let csv_out =
    Common.out_term ~extra_names:[ "csv" ]
      ~doc:"Write the daily layout-score series as CSV." ()
  in
  let workload_in =
    Arg.(value & opt (some string) None
         & info [ "load-workload" ] ~docv:"PATH"
             ~doc:"Replay a previously saved workload trace instead of generating one.")
  in
  let workload_out =
    Arg.(value & opt (some string) None
         & info [ "save-workload" ] ~docv:"PATH" ~doc:"Save the generated workload trace.")
  in
  let seeds =
    Arg.(value & opt int 1
         & info [ "seeds" ] ~docv:"N"
             ~doc:"Age $(docv) independent draws of the $(b,--profile) and \
                   $(b,--workload) workload (child seeds split off $(b,--seed)) \
                   through both allocators in parallel and report mean/stddev \
                   end-of-run layout scores instead of a single image.")
  in
  let jobs =
    Common.jobs_arg
      ~doc:"Size of the $(b,--seeds) grid's domain pool: run up to $(docv) of its \
            (seed, allocator) replays at once (worker domains + the caller). \
            Results are bit-identical for every value. A single-seed run ages its \
            one image on the serial engine whatever $(docv) is. Defaults to the \
            machine's recommended domain count."
  in
  let checkpoint_every =
    Arg.(value & opt int 0
         & info [ "checkpoint-every" ] ~docv:"DAYS"
             ~doc:"Write a durable checkpoint every $(docv) simulated days \
                   (0 disables periodic checkpoints). Single-seed runs only.")
  in
  let checkpoint_dir =
    Arg.(value & opt (some string) None
         & info [ "checkpoint-dir" ] ~docv:"DIR"
             ~doc:"Directory for checkpoint files (created if missing). Enables \
                   graceful SIGINT handling: the first $(b,^C) checkpoints and \
                   exits 130, a second aborts immediately.")
  in
  let checkpoint_keep =
    Arg.(value & opt int 3
         & info [ "checkpoint-keep" ] ~docv:"M"
             ~doc:"Retain the $(docv) newest checkpoints (0 keeps all); resume \
                   falls back past a corrupted newest file.")
  in
  let resume =
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"DIR"
             ~doc:"Resume from the newest valid checkpoint in $(docv); the run's \
                   result is bit-identical to one never interrupted. Also used \
                   as the checkpoint directory unless $(b,--checkpoint-dir) is \
                   given.")
  in
  let term =
    Term.(
      const run $ Common.days_term $ Common.seed_term $ seeds $ jobs
      $ Common.realloc_term $ Common.policy_term $ Common.backend_term
      $ Common.store_faults_term $ Common.scrub_every_term
      $ Common.workload_kind_term $ Common.profile_kind_term $ Common.quiet_term
      $ Common.params_term $ Common.crashes_term $ Common.fault_seed_term
      $ checkpoint_every $ checkpoint_dir $ checkpoint_keep
      $ resume $ Common.trace_term $ Common.metrics_out_term $ image_out $ csv_out
      $ workload_in $ workload_out)
  in
  Cmd.v
    (Cmd.info "ffs_age" ~doc:"Artificially age an FFS file system by replaying a ten-month workload")
    term

let () = exit (Cmd.eval cmd)
