(* ffs_fleet: age a fleet of independent volumes concurrently under a
   fault-tolerant supervisor — per-volume watchdog/retry/quarantine, a
   crash-safe manifest, and bit-identical resume after kill -9. *)

open Cmdliner

(* volume ID fails its first N attempts, for each (ID, N) rule of
   --chaos-fail. The test hook behind `make fleet-smoke`'s forced
   quarantine. *)
let chaos_of_rules = function
  | [] -> None
  | rules ->
      Some
        (fun id ~attempt ->
          match List.assoc_opt id rules with
          | Some n when attempt <= n -> failwith (Fmt.str "chaos: forced failure %d/%d" attempt n)
          | _ -> ())

let parse_names ~what ~of_name spec =
  List.map
    (fun n ->
      let n = String.trim n in
      match of_name n with
      | Some v -> v
      | None -> Fmt.epr "unknown %s %S@." what n; exit 2)
    (String.split_on_char ',' spec)

let run volumes days seed jobs geometries profiles fault_rate device_fault_rate
    scrub_every state_dir resume_flag max_retries quarantine_after watchdog
    checkpoint_every backend chaos_rules quiet trace metrics_out
    out =
  Common.obs_setup ~trace ~metrics_out;
  let log msg = if not quiet then Fmt.epr "[fleet] %s@." msg in
  let config =
    {
      Fleet.Supervisor.default_config with
      Fleet.Supervisor.jobs;
      max_retries;
      quarantine_after;
      watchdog;
      checkpoint_every;
      backend;
      scrub_every;
      log;
      chaos = chaos_of_rules chaos_rules;
    }
  in
  let outcome =
    if resume_flag then begin
      log (Fmt.str "resuming fleet from %s" state_dir);
      Fleet.Supervisor.resume ~config ~state_dir ()
    end
    else begin
      let geometries =
        parse_names ~what:"geometry" geometries
          ~of_name:(fun n -> if List.mem n Fleet.Spec.geometry_names then Some n else None)
      in
      let profiles =
        parse_names ~what:"profile" profiles ~of_name:Workload.Profiles.of_name
      in
      let spec =
        Fleet.Spec.generate ~geometries ~profiles ~fault_rate ~device_fault_rate
          ~volumes ~days ~seed ()
      in
      log
        (Fmt.str "starting %d volumes (%d days each, fault rate %g, device fault rate %g) in %s"
           (Array.length spec.Fleet.Spec.volumes) days fault_rate device_fault_rate
           state_dir);
      Fleet.Supervisor.start ~config ~state_dir spec
    end
  in
  match outcome with
  | Error e ->
      Fmt.epr "fleet error: %a@." Ffs.Error.pp e;
      exit 2
  | Ok o ->
      let interrupted = o.Fleet.Supervisor.interrupted in
      print_string (Fleet.Report.text ?interrupted o.Fleet.Supervisor.manifest);
      if o.Fleet.Supervisor.retried > 0 then
        Fmt.pr "retries this run: %d@." o.Fleet.Supervisor.retried;
      (match out with
      | None -> ()
      | Some path ->
          let json = Fleet.Report.to_json ?interrupted o.Fleet.Supervisor.manifest in
          let oc = open_out path in
          output_string oc (Obs.Json.to_string json);
          output_char oc '\n';
          close_out oc;
          if not quiet then Fmt.epr "[fleet] report written to %s@." path);
      Fleet.Report.set_gauges o.Fleet.Supervisor.manifest;
      Common.obs_finish ~quiet ~trace ~metrics_out;
      exit (Fleet.Supervisor.exit_code o)

let cmd =
  let volumes =
    Arg.(value & opt int 8
         & info [ "volumes" ] ~docv:"N" ~doc:"Number of independent volumes in the fleet.")
  in
  let state_dir =
    Arg.(required & opt (some string) None
         & info [ "state-dir" ] ~docv:"DIR"
             ~doc:"Fleet state directory: the crash-safe manifest plus one checkpoint \
                   store per volume. Survives kill -9; pass $(b,--resume) to continue.")
  in
  let resume_flag =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Resume the fleet recorded in $(b,--state-dir): completed volumes keep \
                   their results, in-flight ones continue from their newest checkpoint, \
                   quarantined ones stay quarantined. Aggregate results are bit-identical \
                   to an uninterrupted run.")
  in
  let geometries =
    Arg.(value & opt string "small"
         & info [ "geometries" ] ~docv:"LIST"
             ~doc:"Comma-separated geometry pool volumes draw from: $(b,small), $(b,paper).")
  in
  let profiles =
    Arg.(value & opt string "home,news,database,personal"
         & info [ "profiles" ] ~docv:"LIST"
             ~doc:"Comma-separated workload-profile pool volumes draw from.")
  in
  let fault_rate =
    Arg.(value & opt float 0.0
         & info [ "fault-rate" ] ~docv:"RATE"
             ~doc:"Mean injected power failures per volume (Poisson-drawn per volume from \
                   the fleet seed); each crash tears metadata writes and is repaired by \
                   fsck before the volume resumes.")
  in
  let device_fault_rate =
    Arg.(value & opt float 0.0
         & info [ "device-fault-rate" ] ~docv:"RATE"
             ~doc:"Mean device-level faults per volume (Poisson-drawn per volume from \
                   the fleet seed): latent bad chunks, bit rot, torn syncs and transient \
                   read/write errors injected beneath the store. Affected volumes run on \
                   the self-healing resilient backend and scrub periodically; an \
                   unhealable volume is quarantined, never aborts the fleet.")
  in
  let scrub_every =
    Arg.(value & opt int 1
         & info [ "scrub-every" ] ~docv:"DAYS"
             ~doc:"Days between scrub-and-repair passes on volumes running with device \
                   faults (fault-free volumes never scrub).")
  in
  let max_retries =
    Arg.(value & opt int 2
         & info [ "max-retries" ] ~docv:"N"
             ~doc:"Retries per volume in this run before it is marked failed (a later \
                   $(b,--resume) tries again). Backoff is exponential with seeded jitter.")
  in
  let quarantine_after =
    Arg.(value & opt int 3
         & info [ "quarantine-after" ] ~docv:"K"
             ~doc:"Quarantine a volume after $(docv) consecutive failed attempts \
                   (persisted across resumes): the fleet keeps going and reports it \
                   instead of aborting.")
  in
  let watchdog =
    Arg.(value & opt float 0.0
         & info [ "watchdog" ] ~docv:"SECONDS"
             ~doc:"Per-attempt wall-clock budget for one volume; on expiry the volume \
                   checkpoints, the attempt counts as a failure, and the retry resumes \
                   from the checkpoint. 0 disables.")
  in
  let checkpoint_every =
    Arg.(value & opt int 1
         & info [ "checkpoint-every" ] ~docv:"DAYS"
             ~doc:"Durable per-volume checkpoint interval in simulated days.")
  in
  let chaos =
    Arg.(value & opt (list (pair ~sep:':' int int)) []
         & info [ "chaos-fail" ] ~docv:"ID:N,..."
             ~doc:"Testing: force volume $(i,ID) to fail its first $(i,N) attempts \
                   (deterministically), to exercise retry and quarantine paths. A \
                   malformed rule is a usage error.")
  in
  let out =
    Common.out_term ~doc:"Write the fleet report (per-volume status + aggregate) as JSON." ()
  in
  let term =
    Term.(
      const run $ volumes $ Common.days_term $ Common.seed_term $ Common.jobs_term
      $ geometries $ profiles $ fault_rate $ device_fault_rate $ scrub_every
      $ state_dir $ resume_flag $ max_retries
      $ quarantine_after $ watchdog $ checkpoint_every
      $ Common.backend_term $ chaos $ Common.quiet_term
      $ Common.trace_term $ Common.metrics_out_term $ out)
  in
  Cmd.v
    (Cmd.info "ffs_fleet"
       ~doc:"Age a fleet of volumes concurrently under a fault-tolerant supervisor")
    term

let () = exit (Cmd.eval cmd)
