(* The self-healing storage layer: seeded device faults, checksummed
   chunks, scrub-and-repair, quarantine.  The contract under test is the
   one DESIGN §15 states — with no fault plan the resilient layer is
   bit-identical to its base at every jobs level, and with faults
   injected a scrubbed volume always converges back to a clean audit
   with no user data lost. *)

let check_bool msg expected actual = Alcotest.(check bool) msg expected actual
let check_int msg expected actual = Alcotest.(check int) msg expected actual
let check_string msg expected actual = Alcotest.(check string) msg expected actual

let small = Ffs.Params.small_test_fs

let build_ops ?(params = small) ~days ~seed () =
  let profile =
    { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed }
  in
  (Workload.Ground_truth.generate params profile).Workload.Ground_truth.ops

(* ------------------------------------------------------------------ *)
(* Device-fault plan specs                                             *)
(* ------------------------------------------------------------------ *)

let test_device_spec_parse () =
  (match Ffs.Store.Device.of_string "none" with
  | Some p -> check_bool "none parses to the empty plan" true (Ffs.Store.Device.is_none p)
  | None -> Alcotest.fail "\"none\" did not parse");
  (match Ffs.Store.Device.of_string "transient=0.01,latent=2,bitrot=4,torn=1,horizon=8" with
  | Some p ->
      Alcotest.(check (float 1e-9)) "transient" 0.01 p.Ffs.Store.Device.transient;
      check_int "latent" 2 p.Ffs.Store.Device.latent;
      check_int "bitrot" 4 p.Ffs.Store.Device.bitrot;
      check_int "torn" 1 p.Ffs.Store.Device.torn;
      check_int "horizon" 8 p.Ffs.Store.Device.horizon
  | None -> Alcotest.fail "full spec did not parse");
  (* missing keys default to the empty plan's values *)
  (match Ffs.Store.Device.of_string "bitrot=3" with
  | Some p ->
      check_int "defaulted latent" 0 p.Ffs.Store.Device.latent;
      check_int "subset bitrot" 3 p.Ffs.Store.Device.bitrot
  | None -> Alcotest.fail "subset spec did not parse");
  List.iter
    (fun s ->
      check_bool (Printf.sprintf "%S is rejected" s) true
        (Ffs.Store.Device.of_string s = None))
    [
      "";
      "bogus=1";
      "latent=-1";
      "transient=1.5" (* probability must stay below 1 *);
      "horizon=0";
      "latent=two";
      "latent";
    ]

let test_device_spec_round_trip () =
  List.iter
    (fun s ->
      match Ffs.Store.Device.of_string s with
      | None -> Alcotest.fail (Printf.sprintf "%S did not parse" s)
      | Some p -> (
          match Ffs.Store.Device.of_string (Ffs.Store.Device.to_string p) with
          | None -> Alcotest.fail (Printf.sprintf "%S did not re-parse" s)
          | Some p' ->
              check_string
                (Printf.sprintf "%S round-trips" s)
                (Ffs.Store.Device.to_string p)
                (Ffs.Store.Device.to_string p')))
    [ "none"; "transient=0.25"; "latent=1,bitrot=2,torn=3,horizon=9" ]

(* the two fault domains must draw from distinct children of the one
   --fault-seed, and each must be a pure function of it *)
let test_fault_seed_split () =
  check_bool "logical and device seeds differ" true
    (Fault.Plan.logical_seed ~fault_seed:42 <> Fault.Plan.device_seed ~fault_seed:42);
  check_int "device seed is deterministic"
    (Fault.Plan.device_seed ~fault_seed:42)
    (Fault.Plan.device_seed ~fault_seed:42);
  check_bool "different fault seeds give different device seeds" true
    (Fault.Plan.device_seed ~fault_seed:1 <> Fault.Plan.device_seed ~fault_seed:2)

(* ------------------------------------------------------------------ *)
(* Passthrough: resilient with no plan is bit-identical to raw         *)
(* ------------------------------------------------------------------ *)

let run_small ~backend ~days ~seed =
  Aging.Replay.run ~backend ~params:small ~days (build_ops ~days ~seed ())

(* two inputs: a short run on the small test volume, and four days on
   the paper's 502 MB geometry, where the volume spans many more store
   chunks *)
let test_passthrough_identity () =
  List.iter
    (fun (name, params, days, seed) ->
      let ops = build_ops ~params ~days ~seed () in
      let run backend = Aging.Replay.run ~backend ~params ~days ops in
      let raw = run Ffs.Store.Heap_backend in
      let res = run (Ffs.Store.resilient_spec Ffs.Store.Heap_backend) in
      check_string (name ^ ": digest matches raw")
        (Ffs.Fs.digest raw.Aging.Replay.fs)
        (Ffs.Fs.digest res.Aging.Replay.fs);
      check_int (name ^ ": blocks allocated match raw")
        (Ffs.Fs.stats raw.Aging.Replay.fs).Ffs.Fs.blocks_allocated
        (Ffs.Fs.stats res.Aging.Replay.fs).Ffs.Fs.blocks_allocated;
      Alcotest.(check (array (float 1e-9)))
        (name ^ ": daily score series matches raw")
        raw.Aging.Replay.daily_scores res.Aging.Replay.daily_scores;
      check_bool (name ^ ": passthrough store still exposes the heap fast path") true
        (Ffs.Store.heap_bytes (Ffs.Fs.store res.Aging.Replay.fs) <> None))
    [
      ("small, 3 days", small, 3, 7001);
      ("paper geometry, 4 days", Ffs.Params.paper_fs, 4, 960117);
    ]

(* the parallel engine's own merge order differs from the serial
   engine's, so the identity claim is per engine: at the same jobs
   level, swapping the raw store for the resilient one must not move a
   single bit *)
let test_passthrough_identity_parallel () =
  let days = 3 and seed = 7001 in
  let ops = build_ops ~days ~seed () in
  let at backend =
    Par.Pool.with_pool ~jobs:2 (fun pool ->
        Aging.Replay.run_parallel ~backend ~pool ~params:small ~days ops)
  in
  let raw = at Ffs.Store.Heap_backend in
  let res = at (Ffs.Store.resilient_spec Ffs.Store.Heap_backend) in
  check_string "jobs 2 resilient matches jobs 2 raw"
    (Ffs.Fs.digest raw.Aging.Replay.fs)
    (Ffs.Fs.digest res.Aging.Replay.fs);
  Alcotest.(check (array (float 1e-9)))
    "score series matches too" raw.Aging.Replay.daily_scores
    res.Aging.Replay.daily_scores

(* ------------------------------------------------------------------ *)
(* Store-level fault injection                                         *)
(* ------------------------------------------------------------------ *)

let faulty_store ~plan ~seed =
  Ffs.Store.Layout.store_for
    (Ffs.Store.resilient_spec ~faults:plan ~seed Ffs.Store.Heap_backend)
    small

(* a deterministic write/sync workout; returns the store *)
let workout store =
  let len = Ffs.Store.length store in
  let rng = Util.Prng.create ~seed:11 in
  for round = 1 to 6 do
    for _ = 1 to 64 do
      let pos = Util.Prng.int rng len in
      Ffs.Store.set_byte store pos (Char.chr (Util.Prng.int rng 256))
    done;
    Ffs.Store.write store ~pos:(Util.Prng.int rng (len - 16)) (String.make 16 'x');
    ignore round;
    Ffs.Store.sync store
  done;
  store

let test_fault_determinism () =
  let plan =
    { Ffs.Store.Device.transient = 0.05; latent = 1; bitrot = 2; torn = 1; horizon = 4 }
  in
  let a = workout (faulty_store ~plan ~seed:33) in
  let b = workout (faulty_store ~plan ~seed:33) in
  Alcotest.(check (list (pair string int)))
    "same seed injects the same fault counts" (Ffs.Store.device_counts a)
    (Ffs.Store.device_counts b);
  check_string "and leaves bit-identical damage"
    (Ffs.Store.digest_region a ~pos:0 ~len:(Ffs.Store.length a))
    (Ffs.Store.digest_region b ~pos:0 ~len:(Ffs.Store.length b));
  let injected = List.fold_left (fun acc (_, n) -> acc + n) 0 (Ffs.Store.device_counts a) in
  check_bool "the plan actually fired" true (injected > 0)

let test_transient_retry () =
  (* low enough that the bounded retry (4 attempts) never exhausts on
     this seeded draw sequence, high enough to actually fire *)
  let plan = { Ffs.Store.Device.none with transient = 0.05 } in
  let noisy = faulty_store ~plan ~seed:5 in
  let quiet = Ffs.Store.Layout.store_for Ffs.Store.Heap_backend small in
  let rng = Util.Prng.create ~seed:17 in
  for _ = 1 to 2_000 do
    let pos = Util.Prng.int rng (Ffs.Store.length quiet) in
    let c = Char.chr (Util.Prng.int rng 256) in
    Ffs.Store.set_byte noisy pos c;
    Ffs.Store.set_byte quiet pos c
  done;
  (* every access above survived the 5% transient-error rate via retry;
     the stores must agree byte for byte *)
  check_string "retries absorb transient faults"
    (Ffs.Store.digest_region quiet ~pos:0 ~len:(Ffs.Store.length quiet))
    (Ffs.Store.digest_region noisy ~pos:0 ~len:(Ffs.Store.length noisy));
  check_bool "transients were actually injected" true
    (List.assoc "transient" (Ffs.Store.device_counts noisy) > 0)

(* ------------------------------------------------------------------ *)
(* Scrub-and-repair on a live file system                              *)
(* ------------------------------------------------------------------ *)

let aged_faulty_fs ~plan ~days ~seed =
  let backend =
    Ffs.Store.resilient_spec ~faults:plan
      ~seed:(Fault.Plan.device_seed ~fault_seed:seed)
      Ffs.Store.Heap_backend
  in
  (run_small ~backend ~days ~seed).Aging.Replay.fs

let test_scrub_heals_bitrot () =
  (* horizon 1: the whole rot schedule lands at the first scrub's sync,
     so the second scrub sees an exhausted plan and must be clean *)
  let plan = { Ffs.Store.Device.none with bitrot = 6; horizon = 1 } in
  let fs = aged_faulty_fs ~plan ~days:3 ~seed:4242 in
  (* Check.scrub syncs the store first, which is where the scheduled rot
     lands — then the audit-and-repair pass must converge *)
  (match Ffs.Check.scrub fs with
  | Error e -> Alcotest.fail (Fmt.str "scrub failed: %a" Ffs.Error.pp e)
  | Ok _ -> ());
  check_bool "rot was actually injected" true
    (List.assoc "bitrot" (Ffs.Store.device_counts (Ffs.Fs.store fs)) > 0);
  (* idempotence: with the schedule exhausted, a second scrub is clean *)
  match Ffs.Check.scrub fs with
  | Error e -> Alcotest.fail (Fmt.str "second scrub failed: %a" Ffs.Error.pp e)
  | Ok log ->
      check_bool "second scrub finds nothing" true (Ffs.Check.scrub_is_clean log)

let test_latent_quarantine () =
  let plan = { Ffs.Store.Device.none with latent = 2; horizon = 1 } in
  let fs = aged_faulty_fs ~plan ~days:3 ~seed:4242 in
  (match Ffs.Check.scrub fs with
  | Error e -> Alcotest.fail (Fmt.str "scrub failed: %a" Ffs.Error.pp e)
  | Ok _ -> ());
  let store = Ffs.Fs.store fs in
  check_bool "latent chunks were quarantined to spares" true
    (Ffs.Store.quarantined_chunks store <> []);
  (* the remapped chunks must stay readable: a full digest touches every
     logical byte, spares included *)
  ignore (Ffs.Store.digest_region store ~pos:0 ~len:(Ffs.Store.length store));
  match Ffs.Check.scrub fs with
  | Error e -> Alcotest.fail (Fmt.str "post-quarantine scrub failed: %a" Ffs.Error.pp e)
  | Ok log ->
      check_bool "the volume is clean after quarantine" true
        (Ffs.Check.scrub_is_clean log)

let test_spare_exhaustion () =
  (* more latent chunks than the store has spares: the volume must
     degrade loudly with Media_error, not lie *)
  let plan = { Ffs.Store.Device.none with latent = 4096; horizon = 1 } in
  let store = faulty_store ~plan ~seed:9 in
  Ffs.Store.write store ~pos:0 (String.make 64 'a');
  Ffs.Store.sync store;
  match Ffs.Error.guard (fun () -> ignore (Ffs.Store.scrub store)) with
  | Error (Ffs.Error.Media_error _) -> ()
  | Error e -> Alcotest.fail (Fmt.str "expected Media_error, got %a" Ffs.Error.pp e)
  | Ok () -> Alcotest.fail "scrub succeeded with more bad chunks than spares"

(* ------------------------------------------------------------------ *)
(* Zero user-data loss under a full chaos run                          *)
(* ------------------------------------------------------------------ *)

let test_chaos_no_data_loss () =
  let days = 4 and seed = 31337 in
  let plan =
    { Ffs.Store.Device.transient = 0.002; latent = 1; bitrot = 4; torn = 1; horizon = 12 }
  in
  let backend =
    Ffs.Store.resilient_spec ~faults:plan
      ~seed:(Fault.Plan.device_seed ~fault_seed:seed)
      Ffs.Store.Heap_backend
  in
  let ops = build_ops ~days ~seed () in
  let r =
    match
      Aging.Replay.run_resumable ~backend ~params:small ~days ~crashes:0
        ~fault_seed:seed ~scrub_every:1 ops
    with
    | `Completed cr -> cr.Aging.Replay.result
    | `Interrupted _ -> Alcotest.fail "chaos run interrupted itself"
  in
  let fs = r.Aging.Replay.fs in
  (* every workload file that survived the replay must still have a live
     inode: scrub-and-repair may rebuild bitmaps but never drops files *)
  Hashtbl.iter
    (fun _workload_ino live_ino ->
      match Ffs.Fs.inode fs live_ino with
      | _inode -> ()
      | exception Not_found ->
          Alcotest.fail (Printf.sprintf "inode %d lost to device faults" live_ino))
    r.Aging.Replay.ino_map;
  check_bool "ino_map is not trivially empty" true (Hashtbl.length r.Aging.Replay.ino_map > 0);
  let report = Ffs.Check.run fs in
  check_bool "final audit is clean" true (Ffs.Check.is_clean report)

(* ------------------------------------------------------------------ *)
(* Property: scrub is idempotent and digest-preserving when clean      *)
(* ------------------------------------------------------------------ *)

let prop_scrub_idempotent =
  QCheck.Test.make ~count:8 ~name:"scrub on a clean volume is a digest-preserving no-op"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let backend = Ffs.Store.resilient_spec Ffs.Store.Heap_backend in
      let fs = (run_small ~backend ~days:2 ~seed).Aging.Replay.fs in
      let before = Ffs.Fs.digest fs in
      let first = Ffs.Check.scrub_exn fs in
      let second = Ffs.Check.scrub_exn fs in
      Ffs.Fs.digest fs = before
      && first.Ffs.Check.problems_found = 0
      && Ffs.Check.scrub_is_clean second)

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "store"
    [
      ( "device specs",
        [
          tc "of_string accepts and rejects" test_device_spec_parse;
          tc "to_string round-trips" test_device_spec_round_trip;
          tc "fault-seed split" test_fault_seed_split;
        ] );
      ( "passthrough",
        [
          slow "bit-identical to raw (serial)" test_passthrough_identity;
          slow "bit-identical to raw (jobs 2)" test_passthrough_identity_parallel;
        ] );
      ( "fault injection",
        [
          tc "same seed, same damage" test_fault_determinism;
          tc "transient faults are retried away" test_transient_retry;
        ] );
      ( "scrub",
        [
          slow "bit rot is healed and scrub is idempotent" test_scrub_heals_bitrot;
          slow "latent chunks are quarantined" test_latent_quarantine;
          tc "spare exhaustion raises Media_error" test_spare_exhaustion;
          slow "chaos run loses no user data" test_chaos_no_data_loss;
          QCheck_alcotest.to_alcotest prop_scrub_idempotent;
        ] );
    ]
