(* Tests for the fleet supervisor: spec determinism, manifest
   durability, kill-and-resume bit-identity, retry, quarantine, and the
   never-drop-a-volume invariant. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_int32 = Alcotest.(check int32)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_temp_dir f =
  let path = Filename.temp_file "ffs_fleet" ".d" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then rm_rf path)
    (fun () -> f path)

let flip_byte path ~pos ~mask =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  let size = (Unix.fstat fd).Unix.st_size in
  let pos = if pos < 0 then size + pos else pos in
  let buf = Bytes.create 1 in
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.read fd buf 0 1);
  Bytes.set buf 0 (Char.chr (Char.code (Bytes.get buf 0) lxor mask));
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.write fd buf 0 1);
  Unix.close fd

let small_spec ?(volumes = 5) ?(fault_rate = 0.5) ?(seed = 1201) () =
  Fleet.Spec.generate ~volumes ~days:2 ~seed ~fault_rate ()

(* a quiet config sized for the tests: serial enough to be fast *)
let test_config = { Fleet.Supervisor.default_config with Fleet.Supervisor.jobs = 2 }

let run_ok ?(config = test_config) ~state_dir spec =
  match Fleet.Supervisor.start ~config ~state_dir spec with
  | Ok o -> o
  | Error e -> Alcotest.failf "fleet start failed: %a" Ffs.Error.pp e

let resume_ok ?(config = test_config) ~state_dir () =
  match Fleet.Supervisor.resume ~config ~state_dir () with
  | Ok o -> o
  | Error e -> Alcotest.failf "fleet resume failed: %a" Ffs.Error.pp e

let agg (o : Fleet.Supervisor.outcome) = Fleet.Manifest.aggregate o.Fleet.Supervisor.manifest

(* --- spec ------------------------------------------------------------------- *)

let test_spec_deterministic () =
  let a = small_spec () and b = small_spec () in
  check_int32 "equal args, equal fingerprint" (Fleet.Spec.fingerprint a)
    (Fleet.Spec.fingerprint b);
  let c = small_spec ~seed:1202 () in
  check_bool "different seed, different fleet" true
    (Fleet.Spec.fingerprint a <> Fleet.Spec.fingerprint c);
  let va = a.Fleet.Spec.volumes.(3) in
  let ops1 = Fleet.Spec.ops_of_volume va and ops2 = Fleet.Spec.ops_of_volume va in
  check_bool "workload regenerates bit-identically" true (ops1 = ops2)

let test_spec_heterogeneous () =
  let s = Fleet.Spec.generate ~volumes:24 ~days:3 ~seed:7 ~fault_rate:1.0 () in
  let vols = Array.to_list s.Fleet.Spec.volumes in
  let distinct f = List.sort_uniq compare (List.map f vols) in
  check_bool "both allocators drawn" true (List.length (distinct (fun v -> v.Fleet.Spec.realloc)) = 2);
  check_bool "several profiles drawn" true (List.length (distinct (fun v -> v.Fleet.Spec.profile)) >= 2);
  check_bool "seeds all distinct" true
    (List.length (distinct (fun v -> v.Fleet.Spec.seed)) = 24);
  check_bool "some volumes drew crashes" true
    (List.exists (fun v -> v.Fleet.Spec.crashes > 0) vols);
  Array.iteri (fun i v -> check_int "ids are positions" i v.Fleet.Spec.id) s.Fleet.Spec.volumes

let test_spec_unknown_geometry () =
  match Fleet.Spec.params_of_geometry "zx81" with
  | Error (Ffs.Error.Corrupt _) -> ()
  | Error e -> Alcotest.failf "expected Corrupt, got %a" Ffs.Error.pp e
  | Ok _ -> Alcotest.fail "expected an error for an unknown geometry"

(* --- manifest durability ---------------------------------------------------- *)

let test_manifest_roundtrip () =
  with_temp_dir (fun dir ->
      let m = Fleet.Manifest.create (small_spec ()) in
      Fleet.Manifest.save ~dir m;
      match Fleet.Manifest.load ~dir with
      | Ok m' -> check_bool "roundtrip preserves the manifest" true (m = m')
      | Error e -> Alcotest.failf "load failed: %a" Ffs.Error.pp e)

let test_manifest_corruption_detected () =
  with_temp_dir (fun dir ->
      Fleet.Manifest.save ~dir (Fleet.Manifest.create (small_spec ()));
      (* regression: a single flipped payload byte must never decode *)
      flip_byte (Fleet.Manifest.file ~dir) ~pos:40 ~mask:0x10;
      match Fleet.Manifest.load ~dir with
      | Error (Ffs.Error.Corrupt _) -> ()
      | Error e -> Alcotest.failf "expected Corrupt, got %a" Ffs.Error.pp e
      | Ok _ -> Alcotest.fail "bit-flipped manifest decoded")

let test_manifest_missing_is_corrupt () =
  with_temp_dir (fun dir ->
      match Fleet.Manifest.load ~dir with
      | Error (Ffs.Error.Corrupt _) -> ()
      | Error e -> Alcotest.failf "expected Corrupt, got %a" Ffs.Error.pp e
      | Ok _ -> Alcotest.fail "loaded a manifest from an empty directory")

(* --- the supervisor --------------------------------------------------------- *)

let test_fleet_completes () =
  with_temp_dir (fun dir ->
      let o = run_ok ~state_dir:dir (small_spec ()) in
      let a = agg o in
      check_int "all volumes done" 5 a.Fleet.Manifest.completed;
      check_int "no failures" 0 (a.Fleet.Manifest.failed + a.Fleet.Manifest.quarantined);
      check_bool "not interrupted" true (o.Fleet.Supervisor.interrupted = None);
      check_int "exit code 0" 0 (Fleet.Supervisor.exit_code o);
      check_bool "crash injection exercised" true (a.Fleet.Manifest.crashes_recovered > 0);
      (* the durable manifest agrees with the returned one *)
      match Fleet.Manifest.load ~dir with
      | Ok m ->
          check_int32 "saved aggregate digest matches" a.Fleet.Manifest.digest
            (Fleet.Manifest.aggregate m).Fleet.Manifest.digest
      | Error e -> Alcotest.failf "saved manifest unreadable: %a" Ffs.Error.pp e)

let test_start_refuses_existing_manifest () =
  with_temp_dir (fun dir ->
      ignore (run_ok ~state_dir:dir (small_spec ()));
      match Fleet.Supervisor.start ~config:test_config ~state_dir:dir (small_spec ()) with
      | Error (Ffs.Error.Corrupt _) -> ()
      | Error e -> Alcotest.failf "expected Corrupt, got %a" Ffs.Error.pp e
      | Ok _ -> Alcotest.fail "start silently clobbered an existing fleet")

let test_interrupt_and_resume_bit_identical () =
  let spec = small_spec ~volumes:6 () in
  with_temp_dir (fun straight_dir ->
      with_temp_dir (fun dir ->
          let reference = agg (run_ok ~state_dir:straight_dir spec) in
          (* run the same fleet but stop after 2 volumes: the drain must
             surface the pool's Interrupted payload, not lose it *)
          let stopping =
            { test_config with Fleet.Supervisor.jobs = 1; stop_after = Some 2 }
          in
          let o1 = run_ok ~config:stopping ~state_dir:dir spec in
          check_bool "interruption propagated" true (o1.Fleet.Supervisor.interrupted <> None);
          check_int "exit code 130" 130 (Fleet.Supervisor.exit_code o1);
          let a1 = agg o1 in
          check_bool "some volumes still pending" true (a1.Fleet.Manifest.pending > 0);
          check_bool "partial progress persisted" true (a1.Fleet.Manifest.completed >= 2);
          (* resume must converge to exactly the uninterrupted outcome *)
          let o2 = resume_ok ~state_dir:dir () in
          let a2 = agg o2 in
          check_int "all done after resume" 6 a2.Fleet.Manifest.completed;
          check_int "exit code 0 after resume" 0 (Fleet.Supervisor.exit_code o2);
          check_int32 "aggregate digest bit-identical" reference.Fleet.Manifest.digest
            a2.Fleet.Manifest.digest;
          Alcotest.(check (array (float 0.0)))
            "score series identical" reference.Fleet.Manifest.scores a2.Fleet.Manifest.scores;
          check_int "allocated blocks identical" reference.Fleet.Manifest.blocks_allocated
            a2.Fleet.Manifest.blocks_allocated;
          check_int "allocated frags identical" reference.Fleet.Manifest.frags_allocated
            a2.Fleet.Manifest.frags_allocated;
          check_int "crashes recovered identical" reference.Fleet.Manifest.crashes_recovered
            a2.Fleet.Manifest.crashes_recovered))

let test_retry_then_succeed () =
  with_temp_dir (fun dir ->
      (* volume 1 fails its first attempt only *)
      let chaos id ~attempt = if id = 1 && attempt = 1 then failwith "chaos" in
      let config = { test_config with Fleet.Supervisor.chaos = Some chaos } in
      let o = run_ok ~config ~state_dir:dir (small_spec ()) in
      let a = agg o in
      check_int "all volumes done despite the transient failure" 5 a.Fleet.Manifest.completed;
      check_int "one retry recorded" 1 o.Fleet.Supervisor.retried;
      let e = o.Fleet.Supervisor.manifest.Fleet.Manifest.entries.(1) in
      check_int "volume 1 took two attempts" 2 e.Fleet.Manifest.attempts)

let test_quarantine_degrades_gracefully () =
  with_temp_dir (fun dir ->
      let chaos id ~attempt:_ = if id = 2 then failwith "chaos: dead volume" in
      let config =
        { test_config with Fleet.Supervisor.chaos = Some chaos; quarantine_after = 2; max_retries = 3 }
      in
      let o = run_ok ~config ~state_dir:dir (small_spec ()) in
      let a = agg o in
      check_int "the healthy volumes all finished" 4 a.Fleet.Manifest.completed;
      check_int "exactly one quarantined" 1 a.Fleet.Manifest.quarantined;
      check_int "exit code 3" 3 (Fleet.Supervisor.exit_code o);
      (match o.Fleet.Supervisor.manifest.Fleet.Manifest.entries.(2).Fleet.Manifest.status with
      | Fleet.Manifest.Quarantined f ->
          check_int "failure count hit the threshold" 2 f.Fleet.Manifest.failures;
          check_bool "last error kept" true
            (f.Fleet.Manifest.last_error <> "")
      | s -> Alcotest.failf "expected Quarantined, got %s" (Fleet.Manifest.status_name s));
      (* a resume must not retry it — and must not drop it either *)
      let o2 = resume_ok ~state_dir:dir () in
      let a2 = agg o2 in
      check_int "still reported quarantined after resume" 1 a2.Fleet.Manifest.quarantined;
      check_int "still exit 3" 3 (Fleet.Supervisor.exit_code o2))

let test_failed_volume_recovers_on_resume () =
  let spec = small_spec () in
  with_temp_dir (fun straight_dir ->
      with_temp_dir (fun dir ->
          let reference = agg (run_ok ~state_dir:straight_dir spec) in
          (* first incarnation: volume 0 always fails, budget of 1 attempt,
             quarantine threshold out of reach -> Failed, not Quarantined *)
          let chaos id ~attempt:_ = if id = 0 then failwith "chaos" in
          let config =
            { test_config with Fleet.Supervisor.chaos = Some chaos; max_retries = 0; quarantine_after = 10 }
          in
          let o1 = run_ok ~config ~state_dir:dir spec in
          let a1 = agg o1 in
          check_int "volume 0 failed" 1 a1.Fleet.Manifest.failed;
          check_int "exit 3 while a volume is failed" 3 (Fleet.Supervisor.exit_code o1);
          (* second incarnation, fault gone: the failed volume is retried
             and the fleet converges to the uninterrupted outcome *)
          let o2 = resume_ok ~state_dir:dir () in
          let a2 = agg o2 in
          check_int "all done after resume" 5 a2.Fleet.Manifest.completed;
          check_int32 "aggregate digest matches the straight run"
            reference.Fleet.Manifest.digest a2.Fleet.Manifest.digest))

let test_jobs_do_not_change_results () =
  let spec = small_spec ~volumes:6 () in
  let digest jobs =
    with_temp_dir (fun dir ->
        let config = { test_config with Fleet.Supervisor.jobs } in
        (agg (run_ok ~config ~state_dir:dir spec)).Fleet.Manifest.digest)
  in
  check_int32 "jobs 1 = jobs 4" (digest 1) (digest 4)

(* Regression: crash repair parks orphans under a lost+found directory
   it creates on the spot, and that mkdir can recycle the inum of the
   very file the crash forgot. The replay must then treat the workload's
   mapping to that inum as lost (the inode exists but is a directory
   now), not keep rewriting "the file" — which used to blow up with
   [Is_a_directory] two days later. Volume 17 of this exact fleet spec
   is the seed that found it. *)
let test_recycled_inum_after_crash_repair () =
  let spec = Fleet.Spec.generate ~fault_rate:0.5 ~volumes:64 ~days:2 ~seed:4242 () in
  let vol = spec.Fleet.Spec.volumes.(17) in
  let params =
    match Fleet.Spec.params_of_geometry vol.Fleet.Spec.geometry with
    | Ok p -> p
    | Error e -> Ffs.Error.raise_ e
  in
  let ops = Fleet.Spec.ops_of_volume vol in
  match
    Aging.Replay.run_resumable
      ~config:(Fleet.Spec.config_of_volume vol)
      ~params ~days:vol.Fleet.Spec.days ~crashes:vol.Fleet.Spec.crashes
      ~fault_seed:vol.Fleet.Spec.fault_seed ops
  with
  | `Completed cr ->
      check_int "all crashes recovered" vol.Fleet.Spec.crashes
        (List.length cr.Aging.Replay.recoveries);
      let report = Ffs.Check.run cr.Aging.Replay.result.Aging.Replay.fs in
      check_bool "image audit-clean" true (Ffs.Check.is_clean report)
  | `Interrupted _ -> Alcotest.fail "volume unexpectedly interrupted"

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "fleet"
    [
      ( "spec",
        [
          tc "deterministic" test_spec_deterministic;
          tc "heterogeneous" test_spec_heterogeneous;
          tc "unknown geometry rejected" test_spec_unknown_geometry;
        ] );
      ( "manifest",
        [
          tc "roundtrip" test_manifest_roundtrip;
          tc "bit flip detected" test_manifest_corruption_detected;
          tc "missing is corrupt" test_manifest_missing_is_corrupt;
        ] );
      ( "supervisor",
        [
          slow "fleet completes" test_fleet_completes;
          tc "start refuses existing manifest" test_start_refuses_existing_manifest;
          slow "interrupt + resume bit-identical" test_interrupt_and_resume_bit_identical;
          slow "retry then succeed" test_retry_then_succeed;
          slow "quarantine degrades gracefully" test_quarantine_degrades_gracefully;
          slow "failed volume recovers on resume" test_failed_volume_recovers_on_resume;
          slow "jobs 1 = jobs 4" test_jobs_do_not_change_results;
          tc "recycled inum after crash repair" test_recycled_inum_after_crash_repair;
        ] );
    ]
