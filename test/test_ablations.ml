(* Smoke tests for the ablation studies: each study must run at reduced
   scale and produce a table. *)

let check_bool = Alcotest.(check bool)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let smoke name f () =
  let report = f ~days:3 ~seed:123 () in
  check_bool (name ^ " nonempty") true (String.length report > 100);
  check_bool (name ^ " titled") true (contains report "Ablation")

(* The whole seed-sensitivity report at 3 days, seed 123, pinned by
   its CRC-32: the five seeds' rows and the mean/spread line. *)
let test_seed_sensitivity_pin () =
  let report = Benchlib.Ablations.seed_sensitivity ~days:3 ~seed:123 () in
  Alcotest.(check string) "report CRC" "3458c9b4"
    (Printf.sprintf "%08lx" (Util.Crc32.string report))

let test_all_concatenates () =
  let report = Benchlib.Ablations.all ~days:3 ~seed:123 () in
  List.iter
    (fun fragment -> check_bool (fragment ^ " present") true (contains report fragment))
    [ "cluster-search"; "maxcontig"; "utilization"; "cylinder"; "profiles" ]

let () =
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "ablations"
    [
      ( "studies",
        [
          slow "cluster policy" (smoke "cluster policy" (fun ~days ~seed () ->
              Benchlib.Ablations.cluster_policy ~days ~seed ()));
          slow "maxcontig sweep" (smoke "maxcontig" (fun ~days ~seed () ->
              Benchlib.Ablations.maxcontig_sweep ~days ~seed ()));
          slow "utilization sweep" (smoke "utilization" (fun ~days ~seed () ->
              Benchlib.Ablations.utilization_sweep ~days ~seed ()));
          slow "cylinder size" (smoke "cylinder" (fun ~days ~seed () ->
              Benchlib.Ablations.cylinder_size ~days ~seed ()));
          slow "workload profiles" (smoke "profiles" (fun ~days ~seed () ->
              Benchlib.Ablations.workload_profiles ~days ~seed ()));
          slow "seed sensitivity" test_seed_sensitivity_pin;
          slow "all" test_all_concatenates;
        ] );
    ]
