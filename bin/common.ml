(* Shared plumbing for the command-line tools: workload construction,
   replay, and cmdliner argument definitions. *)

open Cmdliner

type workload_kind = Ground_truth | Reconstructed

let build_workload ~params ~days ~seed ~kind ~profile_kind =
  match profile_kind with
  | Workload.Profiles.News | Workload.Profiles.Database | Workload.Profiles.Personal ->
      (* the alternative profiles have no snapshot-reconstruction step *)
      Workload.Profiles.build params profile_kind ~days ~seed
  | Workload.Profiles.Home -> (
      let profile =
        if days = 300 then Workload.Ground_truth.default params
        else Workload.Ground_truth.scaled params ~days
      in
      let profile = { profile with Workload.Ground_truth.seed } in
      let gt = Workload.Ground_truth.generate params profile in
      match kind with
      | Ground_truth -> gt.Workload.Ground_truth.ops
      | Reconstructed ->
          let snapshots =
            Workload.Snapshot.capture_nightly gt.Workload.Ground_truth.ops ~days
          in
          let nfs =
            Workload.Nfs_source.generate ~seed:(seed + 17) ~trace_days:10
              ~pairs_per_day:profile.Workload.Ground_truth.short_pairs_per_day
          in
          Workload.Reconstruct.run params ~seed:(seed + 23) ~snapshots ~nfs)

let progress_of ~days ~quiet ~day ~score =
  if (not quiet) && (day + 1) mod 25 = 0 then
    Fmt.epr "  day %3d/%d  aggregate layout score %.3f@." (day + 1) days score

let replay_with_progress ?backend ~params ~days ~config ~quiet ops =
  if not quiet then
    Fmt.epr "workload: %a@." Workload.Op.pp_stats (Workload.Op.stats ops);
  Aging.Replay.run ?backend ~config ~progress:(progress_of ~days ~quiet) ~params ~days ops

(* Like [replay_with_progress], but with [crashes] power failures drawn
   from [fault_seed]; returns the recovery records alongside the result. *)
let replay_with_crashes ?backend ~params ~days ~config ~quiet ~crashes ~fault_seed ops =
  if crashes = 0 then (replay_with_progress ?backend ~params ~days ~config ~quiet ops, [])
  else begin
    if not quiet then
      Fmt.epr "workload: %a@." Workload.Op.pp_stats (Workload.Op.stats ops);
    let cr =
      Aging.Replay.run_with_crashes ?backend ~config ~progress:(progress_of ~days ~quiet)
        ~params ~days ~crashes ~fault_seed ops
    in
    (cr.Aging.Replay.result, cr.Aging.Replay.recoveries)
  end

(* Load a saved aged image or die with the corruption diagnosis; every
   binary that reads an image wants exactly this behaviour. *)
let load_image_or_exit ?backend ~path () =
  match Aging.Image.load ?backend ~path with
  | Ok img -> img
  | Error e ->
      Fmt.epr "cannot load image: %a@." Ffs.Error.pp e;
      exit 2

let profile_kind_term =
  let open Cmdliner in
  let profile_conv =
    Arg.enum (List.map (fun k -> (Workload.Profiles.name k, k)) Workload.Profiles.all)
  in
  Arg.(value & opt profile_conv Workload.Profiles.Home
       & info [ "profile" ] ~docv:"PROFILE"
           ~doc:"Workload profile: $(b,home) (the paper's), $(b,news), $(b,database) or $(b,personal).")

(* --- cmdliner terms -------------------------------------------------------- *)

let days_term =
  Arg.(value & opt int 300 & info [ "days" ] ~docv:"DAYS" ~doc:"Length of the aging workload in days.")

let seed_term =
  Arg.(value & opt int 960117 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed; equal seeds reproduce runs exactly.")

let realloc_term =
  Arg.(value & flag & info [ "realloc" ] ~doc:"Use the realloc (cluster reallocation) allocator instead of traditional FFS.")

let policy_term =
  let policy_conv =
    Arg.enum [ ("first-fit", `First_fit); ("best-fit", `Best_fit) ]
  in
  Arg.(value & opt policy_conv `First_fit
       & info [ "cluster-policy" ] ~docv:"POLICY"
           ~doc:"Free-cluster search policy for realloc: $(b,first-fit) or $(b,best-fit).")

let quiet_term = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress progress output.")

let jobs_term =
  Arg.(value & opt int (Par.Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Run up to $(docv) independent tasks in parallel (worker domains + the \
                 caller). Results are bit-identical for every value; $(b,--jobs 1) is \
                 fully serial. Defaults to the machine's recommended domain count.")

let print_timings ~quiet timings =
  if not (quiet || Par.Timings.is_empty timings) then
    Fmt.epr "@.=== Task timings ===@.@.%s@." (Par.Timings.report timings)

let workload_kind_term =
  let kind_conv =
    Arg.enum [ ("ground-truth", Ground_truth); ("reconstructed", Reconstructed) ]
  in
  Arg.(value & opt kind_conv Reconstructed
       & info [ "workload" ] ~docv:"KIND"
           ~doc:"Replay the $(b,ground-truth) activity stream or the paper-style $(b,reconstructed) workload (default).")

let image_arg ~doc = Arg.(required & opt (some string) None & info [ "image" ] ~docv:"PATH" ~doc)

let params_term =
  let params_conv =
    Arg.enum [ ("paper", Ffs.Params.paper_fs); ("small", Ffs.Params.small_test_fs) ]
  in
  Arg.(value & opt params_conv Ffs.Params.paper_fs
       & info [ "fs" ] ~docv:"SIZE"
           ~doc:"File-system geometry: $(b,paper) (the paper's disk, default) or \
                 $(b,small) (test-sized, for quick smoke runs).")

(* the shared storage-backend flag: every binary that builds or loads a
   volume image accepts the same spellings, parsed by [Ffs.Store] itself
   so the CLI and the library never disagree on names *)
let backend_conv =
  let parse s =
    match Ffs.Store.spec_of_string s with
    | Some spec -> Ok spec
    | None ->
        Error
          (`Msg
            (Fmt.str
               "unknown backend %S (expected bytes, mmap, mmap:PATH, resilient or resilient:BASE)"
               s))
  in
  Arg.conv (parse, fun ppf spec -> Fmt.string ppf (Ffs.Store.spec_name spec))

let backend_term =
  Arg.(value & opt backend_conv Ffs.Store.Heap_backend
       & info [ "backend" ] ~docv:"BACKEND"
           ~doc:"Storage backend for volume images: $(b,bytes) (in-heap, default), \
                 $(b,mmap) (anonymous memory-mapped temp file, out of the OCaml heap), \
                 $(b,mmap:PATH) (memory-mapped at $(i,PATH)), or \
                 $(b,resilient)[$(b,:BASE)] (checksummed self-healing layer over a base \
                 backend; implied by $(b,--store-faults)).")

(* --store-faults: a device-level fault plan injected beneath the store.
   Parsed by [Ffs.Store.Device] itself so the CLI and the library agree
   on the spelling. *)
let store_faults_conv =
  let parse s =
    match Ffs.Store.Device.of_string s with
    | Some plan -> Ok plan
    | None ->
        Error
          (`Msg
            (Fmt.str
               "bad fault spec %S (expected none or k=v pairs from transient=P, \
                latent=N, bitrot=N, torn=N, horizon=D)"
               s))
  in
  Arg.conv (parse, Ffs.Store.Device.pp)

let store_faults_term =
  Arg.(value & opt (some store_faults_conv) None
       & info [ "store-faults" ] ~docv:"SPEC"
           ~doc:"Inject seeded device-level faults beneath the store and run it on the \
                 self-healing resilient backend. $(docv) is comma-separated $(b,k=v) \
                 pairs: $(b,transient=P) (per-access transient-EIO probability), \
                 $(b,latent=N) / $(b,bitrot=N) / $(b,torn=N) (events armed across \
                 $(b,horizon=D) sync points). Seeded from $(b,--fault-seed)'s device \
                 child stream.")

let scrub_every_term =
  Arg.(value & opt int 0
       & info [ "scrub-every" ] ~docv:"DAYS"
           ~doc:"Run a scrub-and-repair pass every $(docv) simulated days (0 disables; \
                 defaults to 1 when $(b,--store-faults) is given). Scrubs verify every \
                 clean chunk's checksum, quarantine unreadable chunks, and escalate to \
                 fsck repair when the image needs healing.")

(* The one place the CLI's backend/fault flags become a store spec: a
   fault plan wraps the base backend in the resilient layer, seeded from
   the device child stream of [fault_seed]. *)
let resolve_backend ~backend ~store_faults ~fault_seed =
  match store_faults with
  | None -> backend
  | Some plan ->
      Ffs.Store.resilient_spec ~faults:plan
        ~seed:(Fault.Plan.device_seed ~fault_seed)
        (Ffs.Store.base_spec backend)

let crashes_term =
  Arg.(value & opt int 0
       & info [ "crashes" ] ~docv:"N"
           ~doc:"Inject $(docv) power failures at seeded points in the replay; each \
                 tears a burst of metadata writes and is recovered by fsck-with-repair \
                 before the replay resumes.")

let fault_seed_term =
  Arg.(value & opt int 666 & info [ "fault-seed" ] ~docv:"SEED"
       ~doc:"PRNG seed for crash points and fault plans; independent of $(b,--seed).")

let config_of ~realloc ~policy =
  if realloc then { Ffs.Fs.realloc = true; cluster_policy = policy }
  else Ffs.Fs.default_config

(* --- observability --------------------------------------------------------- *)

let trace_term =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"PATH"
           ~doc:"Record allocator, replay, fault and fsck events as JSON Lines \
                 (one span per line) to $(docv).")

let metrics_out_term =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"PATH"
           ~doc:"Write the end-of-run metrics snapshot and the per-cylinder-group \
                 allocation heatmap as JSON to $(docv).")

(* the unified output flag: every binary calls its primary output
   [--out]; [extra_names] keeps each tool's historical spelling
   ([--csv], [--csv-dir]) working as an alias *)
let out_term ?(extra_names = []) ?(docv = "PATH") ~doc () =
  Arg.(value & opt (some string) None & info (("out" :: extra_names) @ [ "o" ]) ~docv ~doc)

(* Turn the global instruments on for this run. The registry and heatmap
   power both the JSON snapshot and the text report, so either request
   enables them; the tracer only runs when a sink was asked for. *)
let obs_setup ~trace ~metrics_out =
  if trace <> None || metrics_out <> None then begin
    Obs.Metrics.set_enabled Obs.Metrics.default true;
    Obs.Heatmap.set_enabled Obs.Heatmap.global true
  end;
  Option.iter (fun path -> Obs.Trace.enable ~jsonl:path ()) trace

let obs_finish ~quiet ~trace ~metrics_out =
  (match trace with
  | None -> ()
  | Some path ->
      Obs.Trace.disable ();
      if not quiet then Fmt.epr "trace written to %s (%d spans)@." path (Obs.Trace.recorded ()));
  match metrics_out with
  | None -> ()
  | Some path ->
      let snap = Obs.Metrics.snapshot Obs.Metrics.default in
      let json =
        Obs.Json.Obj
          [
            ("metrics", Obs.Metrics.to_json snap);
            ("heatmap", Obs.Heatmap.to_json Obs.Heatmap.global);
          ]
      in
      let oc = open_out path in
      output_string oc (Obs.Json.to_string json);
      output_char oc '\n';
      close_out oc;
      if not quiet then Fmt.epr "metrics written to %s@." path

let print_heatmap ~quiet () =
  if (not quiet) && Obs.Heatmap.enabled Obs.Heatmap.global
     && Obs.Heatmap.total Obs.Heatmap.global > 0
  then Fmt.pr "@.=== Allocation heat by cylinder group ===@.@.%s" (Obs.Heatmap.render Obs.Heatmap.global)
