(* Tests for the util library: PRNG, retry backoff, distributions,
   statistics, charts, CSV, vectors, units. *)

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- Prng ----------------------------------------------------------------- *)

let test_prng_determinism () =
  let a = Util.Prng.create ~seed:42 in
  let b = Util.Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Prng.int64 a) (Util.Prng.int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Util.Prng.create ~seed:1 in
  let b = Util.Prng.create ~seed:2 in
  check_bool "different seeds differ" false (Util.Prng.int64 a = Util.Prng.int64 b)

let test_prng_int_bounds () =
  let rng = Util.Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Util.Prng.int rng 17 in
    check_bool "in [0,17)" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 10_000 do
    let v = Util.Prng.int rng 16 in
    (* power-of-two path *)
    check_bool "in [0,16)" true (v >= 0 && v < 16)
  done

let test_prng_int_in () =
  let rng = Util.Prng.create ~seed:8 in
  for _ = 1 to 1000 do
    let v = Util.Prng.int_in rng (-5) 5 in
    check_bool "in [-5,5]" true (v >= -5 && v <= 5)
  done;
  check_int "degenerate range" 3 (Util.Prng.int_in rng 3 3)

let test_prng_uniformity () =
  let rng = Util.Prng.create ~seed:9 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Util.Prng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      check_bool (Fmt.str "bucket %d near uniform (%d)" i c) true
        (abs (c - expected) < expected / 10))
    counts

let test_prng_unit_float () =
  let rng = Util.Prng.create ~seed:10 in
  for _ = 1 to 10_000 do
    let v = Util.Prng.unit_float rng in
    check_bool "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_split_independence () =
  let a = Util.Prng.create ~seed:11 in
  let b = Util.Prng.split a in
  (* the split stream must not simply mirror the parent *)
  let same = ref 0 in
  for _ = 1 to 100 do
    if Util.Prng.int64 a = Util.Prng.int64 b then incr same
  done;
  check_bool "streams diverge" true (!same < 5)

let test_prng_copy () =
  let a = Util.Prng.create ~seed:12 in
  ignore (Util.Prng.int64 a);
  let b = Util.Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Util.Prng.int64 a) (Util.Prng.int64 b)

let test_prng_gaussian_moments () =
  let rng = Util.Prng.create ~seed:13 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Util.Prng.gaussian rng) in
  let mean = Util.Stats.mean xs in
  let sd = Util.Stats.stddev xs in
  check_bool "mean near 0" true (Float.abs mean < 0.02);
  check_bool "stddev near 1" true (Float.abs (sd -. 1.0) < 0.02)

let test_prng_chance_extremes () =
  let rng = Util.Prng.create ~seed:15 in
  check_bool "p=0 never" false (Util.Prng.chance rng 0.0);
  check_bool "p=1 always" true (Util.Prng.chance rng 1.0)

let test_pick_weighted () =
  let rng = Util.Prng.create ~seed:16 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 30_000 do
    let v = Util.Prng.pick_weighted rng [| ("a", 1.0); ("b", 2.0); ("c", 0.0) |] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  check_int "zero weight never drawn" 0 (get "c");
  check_bool "b roughly twice a" true
    (float_of_int (get "b") /. float_of_int (get "a") > 1.8
    && float_of_int (get "b") /. float_of_int (get "a") < 2.2)

(* Known answers at seed 960117: the splitmix64 streams every workload
   and fault plan is built from. Any change here moves every pin. *)
let test_prng_known_answers () =
  let draws f = Array.init 8 (fun _ -> f ()) in
  let fresh () = Util.Prng.create ~seed:960117 in
  let bits = Array.map Int64.bits_of_float in
  let r = fresh () in
  Alcotest.(check (array int64)) "int64"
    [| -5618553110932754771L; -7801144006211349829L; 817606452148907247L;
       6009388377950128046L; -2057416601564836096L; 3422432064943449396L;
       -1630765273103716971L; 7972574714268753520L |]
    (draws (fun () -> Util.Prng.int64 r));
  let r = fresh () in
  Alcotest.(check (array int)) "int 1000" [| 211; 446; 811; 11; 880; 349; 661; 380 |]
    (draws (fun () -> Util.Prng.int r 1000));
  let r = fresh () in
  Alcotest.(check (array int64)) "unit_float"
    (bits
       [| 0x1.640dc76d8e5fdp-1; 0x1.277989b79835ap-1; 0x1.6b1717904ce5p-5; 0x1.4d968b90045p-2;
          0x1.c6e52d00c9791p-1; 0x1.7bf75ea456e3p-3; 0x1.d2bcb73fa1385p-1; 0x1.ba9119d935006p-2 |])
    (bits (draws (fun () -> Util.Prng.unit_float r)));
  let r = fresh () in
  Alcotest.(check (array int64)) "gaussian"
    (bits
       [| 0x1.bb8142c3b888ep+0; -0x1.2c06a492b4095p-2; 0x1.00126f213d9fbp-5;
          0x1.ae1164c2b8ae1p-1; -0x1.8e9f4224e6af6p-2; -0x1.350cf1758a70dp-4;
          0x1.988f88986f72p+0; 0x1.9a49baaa8d58dp-1 |])
    (bits (draws (fun () -> Util.Prng.gaussian r)));
  let s = Util.Prng.split (fresh ()) in
  Alcotest.(check (array int64)) "split"
    [| 3079805073056952397L; -1180037510085422597L; 9144261745318034934L;
       5287298329435425530L; 612495713907984623L; 7446229889506556538L;
       -3367683731111600267L; 3095398883761242486L |]
    (draws (fun () -> Util.Prng.int64 s));
  check_int "derive" 1502347094487532011 (Util.Prng.derive ~seed:960117 ~index:3)

(* Minor-heap words per draw over 10k draws. Only native code keeps the
   state and the intermediates unboxed, so bytecode skips the check. *)
let test_prng_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let rng = Util.Prng.create ~seed:17 in
    let per_call name limit f =
      let n = 10_000 in
      let before = Gc.minor_words () in
      for _ = 1 to n do
        f ()
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int n in
      if words > limit then Alcotest.failf "%s: %.2f minor words per call (limit %.0f)" name words limit
    in
    per_call "int" 0.0 (fun () -> ignore (Sys.opaque_identity (Util.Prng.int rng 1000)));
    per_call "int pow2" 0.0 (fun () -> ignore (Sys.opaque_identity (Util.Prng.int rng 64)));
    per_call "int_in" 0.0 (fun () -> ignore (Sys.opaque_identity (Util.Prng.int_in rng (-7) 300)));
    per_call "bool" 0.0 (fun () -> ignore (Sys.opaque_identity (Util.Prng.bool rng)));
    per_call "chance" 0.0 (fun () -> ignore (Sys.opaque_identity (Util.Prng.chance rng 0.3)));
    per_call "unit_float" 2.0 (fun () -> ignore (Sys.opaque_identity (Util.Prng.unit_float rng)));
    per_call "float" 2.0 (fun () -> ignore (Sys.opaque_identity (Util.Prng.float rng 5.0)));
    per_call "gaussian" 4.0 (fun () -> ignore (Sys.opaque_identity (Util.Prng.gaussian rng)))
  end

(* --- Dist ----------------------------------------------------------------- *)

let sample_many d seed n =
  let rng = Util.Prng.create ~seed in
  Array.init n (fun _ -> Util.Dist.sample d rng)

let test_dist_constant () =
  let xs = sample_many (Util.Dist.constant 5.0) 1 100 in
  Array.iter (fun v -> check_float "constant" 5.0 v) xs

let test_dist_uniform_bounds () =
  let xs = sample_many (Util.Dist.uniform ~lo:3.0 ~hi:7.0) 2 10_000 in
  Array.iter (fun v -> check_bool "in [3,7)" true (v >= 3.0 && v < 7.0)) xs

let test_dist_exponential_mean () =
  let xs = sample_many (Util.Dist.exponential ~mean:4.0) 3 100_000 in
  check_bool "mean near 4" true (Float.abs (Util.Stats.mean xs -. 4.0) < 0.1)

let test_dist_lognormal_median () =
  let xs = sample_many (Util.Dist.lognormal_of_median ~median:100.0 ~sigma:1.0) 4 100_001 in
  let p50 = Util.Stats.percentile xs 50.0 in
  check_bool "median near 100" true (Float.abs (p50 -. 100.0) < 5.0)

let test_dist_pareto_tail () =
  let xs = sample_many (Util.Dist.pareto ~xm:10.0 ~alpha:2.0) 5 10_000 in
  Array.iter (fun v -> check_bool ">= xm" true (v >= 10.0)) xs

let test_dist_truncate () =
  let d = Util.Dist.truncate ~lo:2.0 ~hi:3.0 (Util.Dist.exponential ~mean:10.0) in
  let xs = sample_many d 6 10_000 in
  Array.iter (fun v -> check_bool "clamped" true (v >= 2.0 && v <= 3.0)) xs

let test_dist_zipf_ranks () =
  let d = Util.Dist.zipf ~n:50 ~s:1.0 in
  let xs = sample_many d 7 50_000 in
  Array.iter (fun v -> check_bool "rank in [1,50]" true (v >= 1.0 && v <= 50.0)) xs;
  (* rank 1 must be the most popular *)
  let count r = Array.fold_left (fun acc v -> if v = r then acc + 1 else acc) 0 xs in
  check_bool "rank 1 beats rank 10" true (count 1.0 > count 10.0)

let test_dist_mixture_mean () =
  let d =
    Util.Dist.mixture [| (Util.Dist.constant 0.0, 1.0); (Util.Dist.constant 10.0, 1.0) |]
  in
  check_float "analytic mean" 5.0 (Util.Dist.mean_estimate d);
  let xs = sample_many d 8 20_000 in
  check_bool "sampled mean near 5" true (Float.abs (Util.Stats.mean xs -. 5.0) < 0.2)

(* --- Stats ----------------------------------------------------------------- *)

let test_stats_mean_stddev () =
  check_float "mean" 2.0 (Util.Stats.mean [| 1.0; 2.0; 3.0 |]);
  check_float "stddev" 1.0 (Util.Stats.stddev [| 1.0; 2.0; 3.0 |]);
  check_float "empty mean" 0.0 (Util.Stats.mean [||]);
  check_float "singleton stddev" 0.0 (Util.Stats.stddev [| 5.0 |])

let test_stats_percentile () =
  let xs = [| 4.0; 1.0; 3.0; 2.0 |] in
  check_float "p0 = min" 1.0 (Util.Stats.percentile xs 0.0);
  check_float "p100 = max" 4.0 (Util.Stats.percentile xs 100.0);
  check_float "p50 interpolates" 2.5 (Util.Stats.percentile xs 50.0)

let test_stats_ratio_pct () =
  check_float "ratio" 2.0 (Util.Stats.ratio 4.0 2.0);
  check_bool "ratio by zero is nan" true (Float.is_nan (Util.Stats.ratio 1.0 0.0));
  check_float "pct change" 50.0 (Util.Stats.pct_change ~from_:2.0 ~to_:3.0)

(* --- Vec ------------------------------------------------------------------- *)

let test_vec_basic () =
  let v = Util.Vec.create () in
  check_int "empty" 0 (Util.Vec.length v);
  for i = 0 to 99 do
    Util.Vec.push v i
  done;
  check_int "length" 100 (Util.Vec.length v);
  check_int "get" 42 (Util.Vec.get v 42);
  Util.Vec.set v 42 7;
  check_int "set" 7 (Util.Vec.get v 42);
  Alcotest.(check (option int)) "last" (Some 99) (Util.Vec.last v);
  Alcotest.(check (option int)) "pop" (Some 99) (Util.Vec.pop v);
  check_int "after pop" 99 (Util.Vec.length v);
  let sum = Util.Vec.fold_left ( + ) 0 v in
  check_int "fold" (4950 - 99 - 42 + 7) sum;
  Util.Vec.clear v;
  check_int "cleared" 0 (Util.Vec.length v);
  Alcotest.(check (option int)) "pop empty" None (Util.Vec.pop v)

let test_vec_bounds () =
  let v = Util.Vec.of_array [| 1; 2 |] in
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec.get") (fun () ->
      ignore (Util.Vec.get v 2))

(* --- Csv -------------------------------------------------------------------- *)

let test_csv_escaping () =
  let csv = Util.Csv.create ~header:[ "a"; "b" ] in
  Util.Csv.add_row csv [ "plain"; "with,comma" ];
  Util.Csv.add_row csv [ "with\"quote"; "with\nnewline" ];
  let s = Util.Csv.to_string csv in
  check_string "rendered"
    "a,b\nplain,\"with,comma\"\n\"with\"\"quote\",\"with\nnewline\"\n" s;
  check_int "row count" 2 (Util.Csv.row_count csv)

let test_csv_save () =
  let csv = Util.Csv.create ~header:[ "x" ] in
  Util.Csv.add_row csv [ "1" ];
  let path = Filename.temp_file "ffs_repro_test" ".csv" in
  Util.Csv.save csv ~path;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  check_string "header written" "x" line

(* --- Chart ------------------------------------------------------------------- *)

let test_chart_table () =
  let s = Util.Chart.table ~header:[ "col"; "x" ] ~rows:[ [ "a"; "1" ]; [ "bb" ] ] in
  check_bool "contains header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  check_bool "at least 4 lines" true (List.length lines >= 4);
  (* ragged rows render with empty cells, all lines flush *)
  check_bool "mentions a" true
    (List.exists (fun l -> String.length l >= 1 && l.[0] = 'a') lines)

let test_chart_line () =
  let s =
    Util.Chart.line_chart ~title:"t"
      [ { Util.Chart.label = "s1"; points = [| (0.0, 0.0); (1.0, 1.0) |] } ]
  in
  check_bool "has legend" true
    (String.length s > 0
    && List.exists
         (fun l ->
           match String.index_opt l '*' with Some _ -> true | None -> false)
         (String.split_on_char '\n' s))

let test_chart_line_empty () =
  let s = Util.Chart.line_chart ~title:"t" [ { Util.Chart.label = "s"; points = [||] } ] in
  check_bool "no data message" true
    (String.length s > 0
    &&
    match String.index_opt s '(' with Some _ -> true | None -> false)

let test_chart_logx_skips_nonpositive () =
  let s =
    Util.Chart.line_chart ~logx:true ~title:"t"
      [ { Util.Chart.label = "s"; points = [| (0.0, 1.0); (2.0, 1.0) |] } ]
  in
  check_bool "renders" true (String.length s > 0)

let test_sparkline () =
  check_string "empty" "" (Util.Chart.sparkline [||]);
  let s = Util.Chart.sparkline [| 0.0; 1.0 |] in
  check_int "one char per point" 2 (String.length s);
  check_bool "low then high" true (s.[0] = ' ' && s.[1] = '#')

(* --- Units ------------------------------------------------------------------- *)

let test_units () =
  check_string "bytes" "512 B" (Fmt.str "%a" Util.Units.pp_bytes 512);
  check_string "kb" "96 KB" (Fmt.str "%a" Util.Units.pp_bytes (96 * 1024));
  check_string "mb" "4 MB" (Fmt.str "%a" Util.Units.pp_bytes (4 * 1024 * 1024));
  check_string "fractional" "1.5 KB" (Fmt.str "%a" Util.Units.pp_bytes 1536);
  check_float "throughput" 2.0
    (Util.Units.mb_per_sec ~bytes:(4 * 1024 * 1024) ~seconds:2.0);
  check_bool "zero seconds" true
    (Float.is_nan (Util.Units.mb_per_sec ~bytes:1 ~seconds:0.0))

(* --- Name ------------------------------------------------------------------------ *)

let test_name_numbered () =
  List.iter
    (fun n -> check_string (Fmt.str "f%d" n) ("f" ^ string_of_int n) (Util.Name.numbered "f" n))
    [ 0; 9; 10; max_int ];
  check_string "longer prefix" "seqio.16384.7"
    (Util.Name.numbered (Util.Name.numbered "seqio." 16384 ^ ".") 7);
  check_string "empty prefix" "42" (Util.Name.numbered "" 42);
  check_string "negative" "f-12" (Util.Name.numbered "f" (-12))

(* --- property tests ------------------------------------------------------------ *)

let prop_name_numbered =
  QCheck.Test.make ~name:"Name.numbered \"f\" n = \"f\" ^ string_of_int n" ~count:1000
    QCheck.(map (fun n -> n land max_int) int)
    (fun n -> String.equal (Util.Name.numbered "f" n) ("f" ^ string_of_int n))

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile lies within [min,max]" ~count:500
    QCheck.(pair (array_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0))
              (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      QCheck.assume (Array.length xs > 0);
      let v = Util.Stats.percentile xs p in
      let lo = Array.fold_left min infinity xs in
      let hi = Array.fold_left max neg_infinity xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let prop_prng_int_in_range =
  QCheck.Test.make ~name:"Prng.int always within bound" ~count:1000
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Util.Prng.create ~seed in
      let v = Util.Prng.int rng bound in
      v >= 0 && v < bound)

let prop_vec_roundtrip =
  QCheck.Test.make ~name:"Vec.of_array/to_array roundtrip" ~count:500
    QCheck.(array small_int)
    (fun a -> Util.Vec.to_array (Util.Vec.of_array a) = a)

(* --- Backoff ---------------------------------------------------------------- *)

let test_backoff_deterministic_and_bounded () =
  (* a coarse schedule, then the resilient store's *)
  List.iter
    (fun (base, cap, jitter, seed) ->
      for attempt = 1 to 6 do
        let d = Util.Backoff.delay ~base ~cap ~jitter ~seed ~attempt in
        let d' = Util.Backoff.delay ~base ~cap ~jitter ~seed ~attempt in
        Alcotest.(check (float 0.0)) (Fmt.str "attempt %d reproducible" attempt) d d';
        let capped = Float.min cap (base *. (2. ** float_of_int (attempt - 1))) in
        check_bool
          (Fmt.str "attempt %d within jitter band (%g vs base %g)" attempt d capped)
          true
          (d >= (capped *. (1.0 -. jitter)) -. 1e-12
          && d <= (capped *. (1.0 +. jitter)) +. 1e-12)
      done)
    [ (0.05, 0.4, 0.25, 9); (1e-4, 2e-3, 0.5, 9) ]

let test_backoff_exponential_then_capped () =
  let d attempt = Util.Backoff.delay ~base:0.05 ~cap:0.4 ~jitter:0.0 ~seed:0 ~attempt in
  check_float "attempt 1 = base" 0.05 (d 1);
  check_float "attempt 2 doubles" 0.1 (d 2);
  check_float "attempt 3 doubles again" 0.2 (d 3);
  check_float "attempt 4 hits the cap" 0.4 (d 4);
  check_float "attempt 9 stays capped" 0.4 (d 9)

let test_backoff_jitter_varies_by_seed () =
  let delays =
    List.map
      (fun seed -> Util.Backoff.delay ~base:0.1 ~cap:1.0 ~jitter:0.5 ~seed ~attempt:1)
      [ 1; 2; 3; 4; 5; 6 ]
  in
  check_bool "seeds don't all share one delay (no thundering herd)" true
    (List.exists (fun d -> d <> List.hd delays) (List.tl delays))

let prop_truncate_bounds =
  QCheck.Test.make ~name:"Dist.truncate clamps every sample" ~count:200
    QCheck.(triple small_int (float_bound_exclusive 100.0) (float_bound_exclusive 100.0))
    (fun (seed, a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      let d = Util.Dist.truncate ~lo ~hi (Util.Dist.exponential ~mean:50.0) in
      let rng = Util.Prng.create ~seed in
      let v = Util.Dist.sample d rng in
      v >= lo && v <= hi)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "util"
    [
      ( "prng",
        [
          tc "determinism" test_prng_determinism;
          tc "seed sensitivity" test_prng_seed_sensitivity;
          tc "int bounds" test_prng_int_bounds;
          tc "int_in" test_prng_int_in;
          tc "uniformity" test_prng_uniformity;
          tc "unit_float" test_prng_unit_float;
          tc "split independence" test_prng_split_independence;
          tc "copy" test_prng_copy;
          tc "gaussian moments" test_prng_gaussian_moments;
          tc "chance extremes" test_prng_chance_extremes;
          tc "pick_weighted" test_pick_weighted;
          tc "known answers" test_prng_known_answers;
          tc "allocation" test_prng_allocation;
        ] );
      ( "backoff",
        [
          tc "deterministic and jitter-bounded" test_backoff_deterministic_and_bounded;
          tc "exponential then capped" test_backoff_exponential_then_capped;
          tc "jitter varies by seed" test_backoff_jitter_varies_by_seed;
        ] );
      ( "dist",
        [
          tc "constant" test_dist_constant;
          tc "uniform bounds" test_dist_uniform_bounds;
          tc "exponential mean" test_dist_exponential_mean;
          tc "lognormal median" test_dist_lognormal_median;
          tc "pareto tail" test_dist_pareto_tail;
          tc "truncate" test_dist_truncate;
          tc "zipf ranks" test_dist_zipf_ranks;
          tc "mixture mean" test_dist_mixture_mean;
        ] );
      ( "stats",
        [
          tc "mean/stddev" test_stats_mean_stddev;
          tc "percentile" test_stats_percentile;
          tc "ratio/pct" test_stats_ratio_pct;
        ] );
      ( "vec",
        [ tc "basic ops" test_vec_basic; tc "bounds" test_vec_bounds ] );
      ("csv", [ tc "escaping" test_csv_escaping; tc "save" test_csv_save ]);
      ( "chart",
        [
          tc "table" test_chart_table;
          tc "line" test_chart_line;
          tc "line empty" test_chart_line_empty;
          tc "logx" test_chart_logx_skips_nonpositive;
          tc "sparkline" test_sparkline;
        ] );
      ("units", [ tc "formatting" test_units ]);
      ("name", [ tc "numbered" test_name_numbered ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_percentile_bounded; prop_prng_int_in_range; prop_vec_roundtrip;
            prop_truncate_bounds; prop_name_numbered ] );
    ]
