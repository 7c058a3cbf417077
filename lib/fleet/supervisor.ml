let src = Logs.Src.create "fleet.supervisor" ~doc:"multi-volume fleet supervisor"

module Log = (val Logs.src_log src : Logs.LOG)

let metrics = Obs.Metrics.default

type config = {
  jobs : int;
  max_retries : int;
  quarantine_after : int;
  watchdog : float;
  checkpoint_every : int;
  checkpoint_keep : int;
  backend : Ffs.Store.spec;
  scrub_every : int;
  log : string -> unit;
  chaos : (int -> attempt:int -> unit) option;
  stop_after : int option;
}

let default_config =
  {
    jobs = Par.Pool.default_jobs ();
    max_retries = 2;
    quarantine_after = 3;
    watchdog = 0.0;
    checkpoint_every = 1;
    checkpoint_keep = 2;
    backend = Ffs.Store.Heap_backend;
    scrub_every = 1;
    log = ignore;
    chaos = None;
    stop_after = None;
  }

(* the retry schedule between a volume's attempts; the jitter seed is
   derived from the fleet seed and the volume id, so a resumed fleet
   sleeps exactly as a straight one would *)
let backoff = 0.05
let max_backoff = 1.0
let jitter = 0.25

type outcome = { manifest : Manifest.t; interrupted : (int * int) option; retried : int }

(* Shared mutable fleet state: the manifest plus the disk mirror. Every
   transition rewrites the container atomically under the mutex, so the
   on-disk manifest is always a consistent snapshot no older than the
   last completed transition — the invariant that makes kill -9
   recoverable. *)
type shared = {
  mutex : Mutex.t;
  mutable manifest : Manifest.t;
  state_dir : string;
  finished : int Atomic.t;  (* volumes completed this incarnation *)
  terminal : int Atomic.t;  (* volumes that reached any terminal status *)
  retries : int Atomic.t;
}

let update sh id f =
  Mutex.lock sh.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock sh.mutex)
    (fun () ->
      let entries = Array.copy sh.manifest.Manifest.entries in
      entries.(id) <- f entries.(id);
      sh.manifest <- { sh.manifest with Manifest.entries };
      Manifest.save ~dir:sh.state_dir sh.manifest)

(* --- one volume ------------------------------------------------------------ *)

let summarize (cr : Aging.Replay.crash_result) =
  let r = cr.Aging.Replay.result in
  let fs = r.Aging.Replay.fs in
  let stats = Ffs.Fs.stats fs in
  let scores = r.Aging.Replay.daily_scores in
  {
    Manifest.final_score = scores.(Array.length scores - 1);
    mean_score = Util.Stats.mean scores;
    utilization = Ffs.Fs.utilization fs;
    files_live = Ffs.Fs.file_count fs;
    blocks_allocated = stats.Ffs.Fs.blocks_allocated;
    frags_allocated = stats.Ffs.Fs.frags_allocated;
    skipped_ops = r.Aging.Replay.skipped_ops;
    crashes_recovered = List.length cr.Aging.Replay.recoveries;
    score_digest =
      Util.Crc32.string
        (Marshal.to_string (scores, r.Aging.Replay.daily_utilization) []);
    image_digest = Ffs.Fs.digest fs;
  }

(* One attempt: resume the volume from its newest valid checkpoint (or
   start fresh), replay under the watchdog deadline, checkpoint
   durably as it goes. Never mutates the manifest itself. *)
let attempt_volume cfg ~pool ~ckdir ~ops (spec : Spec.volume) ~attempt =
  (match cfg.chaos with Some f -> f spec.Spec.id ~attempt | None -> ());
  let params =
    match Spec.params_of_geometry spec.Spec.geometry with
    | Ok p -> p
    | Error e -> Ffs.Error.raise_ e
  in
  let ops =
    match !ops with
    | Some ops -> ops
    | None ->
        let v = Spec.ops_of_volume spec in
        ops := Some v;
        v
  in
  (* a volume with a device-fault plan runs on the self-healing store,
     its injection seeded from the volume's own fault seed; a resumed
     volume rebuilds its image on the same backend, so it heals
     identically *)
  let vol_backend, scrub_every =
    match spec.Spec.device_faults with
    | None -> (cfg.backend, 0)
    | Some plan ->
        ( Ffs.Store.resilient_spec ~faults:plan
            ~seed:(Fault.Plan.device_seed ~fault_seed:spec.Spec.fault_seed)
            cfg.backend,
          max 1 cfg.scrub_every )
  in
  let resume = Option.map snd (Aging.Checkpoint.load_latest_opt ~dir:ckdir) in
  let deadline =
    if cfg.watchdog > 0.0 then Unix.gettimeofday () +. cfg.watchdog else infinity
  in
  let polls = ref 0 in
  let should_stop () =
    Par.Pool.stop_requested pool
    ||
    (incr polls;
     !polls land 63 = 0 && Unix.gettimeofday () > deadline)
  in
  let save_ck ck = ignore (Aging.Checkpoint.save ~dir:ckdir ~keep:cfg.checkpoint_keep ck) in
  match
    Aging.Replay.run_resumable ~backend:vol_backend ~config:(Spec.config_of_volume spec)
      ?resume ~should_stop ~checkpoint_every:cfg.checkpoint_every ~on_checkpoint:save_ck
      ~scrub_every ~params ~days:spec.Spec.days ~crashes:spec.Spec.crashes
      ~fault_seed:spec.Spec.fault_seed ops
  with
  | `Completed cr -> `Done (summarize cr)
  | `Interrupted ck ->
      save_ck ck;
      if Par.Pool.stop_requested pool then `Stopped else `Watchdog

(* The whole lifecycle of one volume inside a pool task: retry loop,
   backoff, quarantine decision, manifest transitions. Catches every
   failure itself — a volume can fail, but the fleet must drain. *)
let run_volume cfg sh ~pool ~fleet_seed (entry0 : Manifest.entry) =
  let spec = entry0.Manifest.spec in
  let id = spec.Spec.id in
  let label = Fmt.str "vol-%04d" id in
  let ckdir = Filename.concat sh.state_dir entry0.Manifest.checkpoint_dir in
  (* the volume's workload, built by its first attempt and kept for
     retries; only this task touches it *)
  let ops = ref None in
  let failures0 =
    match entry0.Manifest.status with
    | Manifest.Failed f | Manifest.Quarantined f -> f.Manifest.failures
    | _ -> 0
  in
  let started = Unix.gettimeofday () in
  update sh id (fun e -> { e with Manifest.status = Manifest.Running });
  cfg.log (Fmt.str "%s start: %a" label Spec.pp_volume spec);
  let finish_metrics () =
    Obs.Metrics.observe metrics "fleet_volume_seconds" (Unix.gettimeofday () -. started)
  in
  let rec go ~attempt ~failures =
    match attempt_volume cfg ~pool ~ckdir ~ops spec ~attempt with
    | `Done summary ->
        update sh id (fun e ->
            { e with Manifest.status = Manifest.Done summary; attempts = e.Manifest.attempts + 1 });
        Obs.Metrics.inc metrics "fleet_volumes_done_total";
        Atomic.incr sh.terminal;
        let n = Atomic.fetch_and_add sh.finished 1 + 1 in
        cfg.log
          (Fmt.str "%s done: score %.3f, util %.1f%%, %d crashes recovered" label
             summary.Manifest.final_score
             (100.0 *. summary.Manifest.utilization)
             summary.Manifest.crashes_recovered);
        (match cfg.stop_after with
        | Some k when n >= k -> Par.Pool.request_stop pool
        | _ -> ());
        finish_metrics ()
    | `Stopped ->
        (* graceful drain: the volume checkpointed; leave it Running so
           a resume continues it, and don't count the attempt as a
           failure *)
        update sh id (fun e -> { e with Manifest.attempts = e.Manifest.attempts + 1 });
        cfg.log (Fmt.str "%s stopped (checkpointed for resume)" label);
        finish_metrics ()
    | `Watchdog -> failed ~attempt ~failures (Fmt.str "watchdog: attempt exceeded %gs" cfg.watchdog)
    | exception e -> failed ~attempt ~failures (Printexc.to_string e)
  and failed ~attempt ~failures msg =
    let failures = failures + 1 in
    let failure = { Manifest.failures; last_error = msg } in
    Obs.Metrics.inc metrics "fleet_volume_failures_total";
    update sh id (fun e -> { e with Manifest.attempts = e.Manifest.attempts + 1 });
    if failures >= cfg.quarantine_after then begin
      update sh id (fun e -> { e with Manifest.status = Manifest.Quarantined failure });
      Obs.Metrics.inc metrics "fleet_volumes_quarantined_total";
      Atomic.incr sh.terminal;
      cfg.log
        (Fmt.str "%s QUARANTINED after %d consecutive failures: %s" label failures msg);
      finish_metrics ()
    end
    else if attempt > cfg.max_retries then begin
      update sh id (fun e -> { e with Manifest.status = Manifest.Failed failure });
      Atomic.incr sh.terminal;
      cfg.log
        (Fmt.str "%s failed (%d/%d consecutive; retry budget spent, resume will retry): %s"
           label failures cfg.quarantine_after msg);
      finish_metrics ()
    end
    else begin
      let delay =
        Util.Backoff.delay ~base:backoff ~cap:max_backoff ~jitter
          ~seed:(Util.Prng.derive ~seed:fleet_seed ~index:id) ~attempt
      in
      cfg.log
        (Fmt.str "%s attempt %d failed (%s); retrying in %.3fs" label attempt msg delay);
      Log.warn (fun m -> m "%s attempt %d failed: %s" label attempt msg);
      Unix.sleepf delay;
      Atomic.incr sh.retries;
      Obs.Metrics.inc metrics "fleet_retries_total";
      go ~attempt:(attempt + 1) ~failures
    end
  in
  go ~attempt:1 ~failures:failures0

(* --- the fleet ------------------------------------------------------------- *)

let runnable (e : Manifest.entry) =
  match e.Manifest.status with
  | Manifest.Pending | Manifest.Running | Manifest.Failed _ -> true
  | Manifest.Done _ | Manifest.Quarantined _ -> false

let run_fleet cfg ~state_dir manifest =
  let sh =
    {
      mutex = Mutex.create ();
      manifest;
      state_dir;
      finished = Atomic.make 0;
      terminal = Atomic.make 0;
      retries = Atomic.make 0;
    }
  in
  let todo = Array.of_list (List.filter runnable (Array.to_list manifest.Manifest.entries)) in
  let interrupted =
    if Array.length todo = 0 then None
    else
      Par.Pool.with_pool ~jobs:cfg.jobs (fun pool ->
          Par.Pool.with_sigint pool (fun () ->
              match
                Par.Pool.parallel_map pool
                  (fun e -> run_volume cfg sh ~pool ~fleet_seed:manifest.Manifest.fleet_seed e)
                  todo
              with
              | _ ->
                  if Par.Pool.stop_requested pool then
                    (* every task started, but some drained early *)
                    Some (Atomic.get sh.terminal, Array.length todo)
                  else None
              | exception Par.Pool.Interrupted { completed; total } -> Some (completed, total)))
  in
  { manifest = sh.manifest; interrupted; retried = Atomic.get sh.retries }

let start ?(config = default_config) ~state_dir spec =
  if Sys.file_exists (Manifest.file ~dir:state_dir) then
    Error
      (Ffs.Error.Corrupt
         (Fmt.str "%s: a fleet manifest already exists; resume it or use a fresh state dir"
            state_dir))
  else begin
    let manifest = Manifest.create spec in
    Manifest.save ~dir:state_dir manifest;
    Ok (run_fleet config ~state_dir manifest)
  end

let resume ?(config = default_config) ~state_dir () =
  Result.map (run_fleet config ~state_dir) (Manifest.load ~dir:state_dir)

let exit_code outcome =
  if outcome.interrupted <> None then 130
  else
    let agg = Manifest.aggregate outcome.manifest in
    if agg.Manifest.failed > 0 || agg.Manifest.quarantined > 0 || agg.Manifest.pending > 0
    then 3
    else 0
