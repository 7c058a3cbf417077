(* ffs_age: age a file system with the ten-month workload and save the
   resulting image (the paper's Section 3 tool). *)

open Cmdliner

let run_multi_seed ~days ~seed ~nseeds ~jobs ~quiet =
  let seeds = Benchlib.Experiments.default_seeds ~seed ~n:nseeds in
  let timings = Par.Timings.create () in
  let log msg = if not quiet then Fmt.epr "[age] %s@." msg in
  let outcome =
    try
      `Done
        (Par.Pool.with_pool ~jobs (fun pool ->
             Par.Pool.with_sigint pool (fun () ->
                 Benchlib.Experiments.build_seeds ~days ~pool ~timings ~log ~seeds ())))
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
      Fmt.pr "for interruptible multi-volume runs with durable resume, use ffs_fleet.@.");
  Common.print_timings ~quiet timings;
  match outcome with `Stopped _ -> exit 130 | `Done _ -> ()

(* Checkpointed replay: periodic durable checkpoints, SIGINT-triggered
   checkpoint-and-exit, and resume from the newest valid checkpoint.
   Exits 130 when interrupted, 2 when the resume state is unusable. *)
let replay_checkpointed ~backend ~params ~days ~config ~quiet ~crashes ~fault_seed
    ~checkpoint_every ~checkpoint_dir ~checkpoint_keep ~checkpoint_full_every ~resume
    ~scrub_every ops =
  let dir = match checkpoint_dir with Some d -> Some d | None -> resume in
  let resume_ck =
    match resume with
    | None -> None
    | Some rdir -> (
        match Aging.Checkpoint.load_latest ~backend ~dir:rdir with
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
  let prev_sigint =
    Sys.signal Sys.sigint
      (Sys.Signal_handle
         (fun _ ->
           if Atomic.get stop then exit 130;
           Atomic.set stop true;
           prerr_endline "interrupt: checkpointing at the next operation (^C again to abort)"))
  in
  let ckw =
    Option.map
      (fun dir ->
        Aging.Checkpoint.writer ~dir ~keep:checkpoint_keep
          ~full_every:checkpoint_full_every ())
      dir
  in
  let save_ck ck =
    match ckw with
    | None ->
        if not quiet then
          Fmt.epr "WARNING: no --checkpoint-dir; checkpoint dropped@."
    | Some w -> (
        match Aging.Checkpoint.save_auto w ck with
        | Error e -> Fmt.epr "WARNING: checkpoint failed: %a@." Ffs.Error.pp e
        | Ok (path, written) ->
            if not quiet then
              Fmt.epr "checkpoint written to %s (day %d%s)@." path
                (Aging.Replay.checkpoint_day ck)
                (match written with `Delta -> ", delta" | `Full -> ""))
  in
  if not quiet then
    Fmt.epr "workload: %a@." Workload.Op.pp_stats (Workload.Op.stats ops);
  let on_scrub (s : Ffs.Check.scrub_log) =
    if not quiet then Fmt.epr "%a@." Ffs.Check.pp_scrub s
  in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Sys.set_signal Sys.sigint prev_sigint)
      (fun () ->
        try
          Aging.Replay.run_resumable ~backend ~config
            ~progress:(Common.progress_of ~days ~quiet)
            ?resume:resume_ck
            ~should_stop:(fun () -> Atomic.get stop)
            ~checkpoint_every ~on_checkpoint:save_ck ~scrub_every ~on_scrub ~params
            ~days ~crashes ~fault_seed ops
        with Ffs.Error.Error e ->
          Fmt.epr "resume failed: %a@." Ffs.Error.pp e;
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
    checkpoint_dir checkpoint_keep checkpoint_full_every resume trace metrics_out
    image_out csv_out workload_in workload_out =
  Common.obs_setup ~trace ~metrics_out;
  if nseeds > 1 then begin
    run_multi_seed ~days ~seed ~nseeds ~jobs ~quiet;
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
  let checkpointing =
    checkpoint_every > 0 || checkpoint_dir <> None || resume <> None
    || store_faults <> None || scrub_every > 0
  in
  let result, recoveries =
    if checkpointing then begin
      (* --jobs must never be a silent no-op: say why it is ignored *)
      if jobs > 1 then
        Fmt.epr "note: --jobs %d ignored — checkpointed replay is serial-only \
                 (see the intra-volume section of the README)@." jobs;
      replay_checkpointed ~backend ~params ~days ~config ~quiet ~crashes ~fault_seed
        ~checkpoint_every ~checkpoint_dir ~checkpoint_keep ~checkpoint_full_every
        ~resume ~scrub_every ops
    end
    else if crashes > 0 then begin
      if jobs > 1 then
        Fmt.epr "note: --jobs %d ignored — crash injection is serial-only@." jobs;
      Common.replay_with_crashes ~backend ~params ~days ~config ~quiet ~crashes
        ~fault_seed ops
    end
    else begin
      (* intra-volume parallel aging: per-cylinder-group batches on a
         domain pool. The result is bit-identical at every jobs level
         (including --jobs 1), so this one engine serves every no-crash
         single-seed run and the output never depends on the machine's
         core count. *)
      if not quiet then begin
        Fmt.epr "workload: %a@." Workload.Op.pp_stats (Workload.Op.stats ops);
        Fmt.epr "intra-volume parallel replay: %d jobs over %d cylinder groups@."
          jobs params.Ffs.Params.ncg
      end;
      let on_day_stats =
        match trace with
        | None -> fun (_ : Aging.Replay.day_stats) -> ()
        | Some _ ->
            (* the per-day contention summary promised by --trace *)
            fun (ds : Aging.Replay.day_stats) ->
              Fmt.epr "  day %3d: %4d ops in %2d batches, %3d deferred; locks: %a@."
                (ds.Aging.Replay.day + 1) ds.Aging.Replay.day_ops
                ds.Aging.Replay.batches ds.Aging.Replay.deferred Ffs.Locks.pp_stats
                ds.Aging.Replay.lock_stats
      in
      let r =
        Par.Pool.with_pool ~jobs (fun pool ->
            Aging.Replay.run_parallel ~backend ~config
              ~progress:(Common.progress_of ~days ~quiet)
              ~on_day_stats ~pool ~params ~days ops)
      in
      (r, [])
    end
  in
  let scores = result.Aging.Replay.daily_scores in
  Fmt.pr "allocator: %s@." (if realloc then "FFS + realloc" else "traditional FFS");
  Fmt.pr "aged %d days; %d files live; utilization %.1f%%@." days
    (Ffs.Fs.file_count result.Aging.Replay.fs)
    (100.0 *. Ffs.Fs.utilization result.Aging.Replay.fs);
  Fmt.pr "aggregate layout score: day 1 %.3f -> day %d %.3f@." scores.(0) days
    scores.(Array.length scores - 1);
  Fmt.pr "score history: %s@." (Util.Chart.sparkline scores);
  if result.Aging.Replay.skipped_ops > 0 then
    Fmt.pr "WARNING: %d operations skipped (out of space)@." result.Aging.Replay.skipped_ops;
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
             ~doc:"Age $(docv) independent workload draws (child seeds split off \
                   $(b,--seed)) through both allocators in parallel and report \
                   mean/stddev end-of-run layout scores instead of a single image.")
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
  let checkpoint_full_every =
    Arg.(value & opt int 8
         & info [ "checkpoint-full-every" ] ~docv:"N"
             ~doc:"Write every $(docv)-th checkpoint in full; the rest are deltas \
                   carrying only the cylinder groups dirtied since the previous \
                   checkpoint ($(b,1) makes every checkpoint full).")
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
      const run $ Common.days_term $ Common.seed_term $ seeds $ Common.jobs_term
      $ Common.realloc_term $ Common.policy_term $ Common.backend_term
      $ Common.store_faults_term $ Common.scrub_every_term
      $ Common.workload_kind_term $ Common.profile_kind_term $ Common.quiet_term
      $ Common.params_term $ Common.crashes_term $ Common.fault_seed_term
      $ checkpoint_every $ checkpoint_dir $ checkpoint_keep $ checkpoint_full_every
      $ resume $ Common.trace_term $ Common.metrics_out_term $ image_out $ csv_out
      $ workload_in $ workload_out)
  in
  Cmd.v
    (Cmd.info "ffs_age" ~doc:"Artificially age an FFS file system by replaying a ten-month workload")
    term

let () = exit (Cmd.eval cmd)
