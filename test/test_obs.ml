(* Tests for the observability subsystem: metrics registry edge cases,
   trace ring buffer and JSONL sink, heatmap accounting, and a replay
   smoke test tying the allocation counters to the allocator's own
   block accounting. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

module M = Obs.Metrics

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* --- metrics ---------------------------------------------------------------- *)

let test_counter_basics () =
  let m = M.create () in
  M.inc m "a_total";
  M.add m "a_total" 4;
  M.inc m "b_total";
  let snap = M.snapshot m in
  check_int "a" 5 (M.counter_value snap "a_total");
  check_int "b" 1 (M.counter_value snap "b_total");
  check_int "absent is 0" 0 (M.counter_value snap "c_total")

let test_counter_label_merging () =
  let m = M.create () in
  (* label order must not split the series *)
  M.add m ~labels:[ ("op", "create"); ("cg", "1") ] "ops_total" 3;
  M.add m ~labels:[ ("cg", "1"); ("op", "create") ] "ops_total" 4;
  M.inc m ~labels:[ ("op", "delete"); ("cg", "1") ] "ops_total";
  let snap = M.snapshot m in
  check_int "series count" 2 (List.length snap);
  check_int "merged"
    7
    (M.counter_value snap ~labels:[ ("op", "create"); ("cg", "1") ] "ops_total");
  check_int "merged (other order)"
    7
    (M.counter_value snap ~labels:[ ("cg", "1"); ("op", "create") ] "ops_total");
  check_int "total across labels" 8 (M.counter_total snap "ops_total")

let test_disabled_registry_records_nothing () =
  let m = M.create ~enabled:false () in
  M.inc m "a_total";
  M.set m "g" 3.0;
  M.observe m "h_seconds" 0.5;
  check_int "empty" 0 (List.length (M.snapshot m));
  M.set_enabled m true;
  M.inc m "a_total";
  check_int "records once enabled" 1 (M.counter_value (M.snapshot m) "a_total")

let test_histogram_edges () =
  let m = M.create () in
  M.observe m "h" 0.0;
  M.observe m "h" (-3.0);
  M.observe_int m "h" max_int;
  M.observe m "h" 1.5;
  let snap = M.snapshot m in
  check_int "all observations counted" 4 (M.hist_count snap "h");
  match M.find snap "h" with
  | Some (M.Hist_v { count; sum; buckets }) ->
      check_int "count" 4 count;
      (* the zero bucket exists and holds the two non-positive values *)
      check_int "v<=0 bucket" 2
        (try List.assoc 0.0 buckets with Not_found -> 0);
      (* max_int clamps into the top bucket rather than vanishing *)
      let in_buckets = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
      check_int "no observation lost" 4 in_buckets;
      check_bool "sum finite" true (Float.is_finite sum)
  | _ -> Alcotest.fail "expected a histogram"

let test_gauge_keeps_last () =
  let m = M.create () in
  M.set m "g" 1.0;
  M.set m "g" 42.5;
  match M.gauge_value (M.snapshot m) "g" with
  | Some v -> Alcotest.(check (float 0.0)) "last write wins" 42.5 v
  | None -> Alcotest.fail "gauge missing"

let test_diff () =
  let m = M.create () in
  M.add m "a_total" 2;
  M.set m "g" 1.0;
  let before = M.snapshot m in
  M.add m "a_total" 5;
  M.set m "g" 9.0;
  M.inc m "new_total";
  let after = M.snapshot m in
  let d = M.diff ~before ~after in
  check_int "counter delta" 5 (M.counter_value d "a_total");
  check_int "new series" 1 (M.counter_value d "new_total");
  match M.gauge_value d "g" with
  | Some v -> Alcotest.(check (float 0.0)) "gauge keeps after" 9.0 v
  | None -> Alcotest.fail "gauge missing from diff"

let test_text_export () =
  let m = M.create () in
  M.add m ~labels:[ ("cg", "3") ] "x_total" 7;
  let text = M.to_text (M.snapshot m) in
  check_bool "series line present" true (contains ~affix:{|x_total{cg="3"} 7|} text)

(* --- trace ------------------------------------------------------------------- *)

let test_ring_wraparound () =
  Obs.Trace.enable ~ring_capacity:8 ();
  for i = 1 to 20 do
    Obs.Trace.event "e" [ Obs.Trace.i "n" i ]
  done;
  Obs.Trace.disable ();
  check_int "total recorded" 20 (Obs.Trace.recorded ());
  let recent = Obs.Trace.recent () in
  check_int "ring keeps capacity" 8 (List.length recent);
  (* oldest-first: the ring holds events 13..20 *)
  let ns =
    List.map
      (fun sp ->
        match List.assoc "n" sp.Obs.Trace.attrs with
        | Obs.Json.Int n -> n
        | _ -> -1)
      recent
  in
  Alcotest.(check (list int)) "oldest first" [ 13; 14; 15; 16; 17; 18; 19; 20 ] ns

let test_span_json_roundtrip () =
  let sp =
    {
      Obs.Trace.name = "alloc.block";
      ts = 12345.5;
      dur = 0.25;
      attrs =
        [
          Obs.Trace.i "cg" 3;
          Obs.Trace.f "score" 0.75;
          Obs.Trace.s "op" "create";
          Obs.Trace.b "contig" true;
        ];
    }
  in
  match Obs.Trace.span_of_json (Obs.Trace.span_to_json sp) with
  | Ok sp' ->
      check_string "name" sp.Obs.Trace.name sp'.Obs.Trace.name;
      Alcotest.(check (float 1e-9)) "ts" sp.Obs.Trace.ts sp'.Obs.Trace.ts;
      check_int "attrs" 4 (List.length sp'.Obs.Trace.attrs)
  | Error e -> Alcotest.fail ("round-trip failed: " ^ e)

let test_jsonl_sink_roundtrip () =
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Obs.Trace.enable ~jsonl:path ();
  Obs.Trace.event "one" [ Obs.Trace.i "k" 1 ];
  let v = Obs.Trace.span "two" [ Obs.Trace.s "tag" "x" ] (fun () -> 41 + 1) in
  check_int "span returns f's result" 42 v;
  Obs.Trace.disable ();
  let spans = Obs.Trace.load_jsonl path in
  Sys.remove path;
  Alcotest.(check (list string)) "names in order" [ "one"; "two" ]
    (List.map (fun sp -> sp.Obs.Trace.name) spans);
  match spans with
  | [ _; two ] -> check_bool "span has duration" true (two.Obs.Trace.dur >= 0.0)
  | _ -> Alcotest.fail "expected two spans"

let test_disabled_trace_is_passthrough () =
  (* disabled: span still runs the thunk and propagates the result *)
  check_int "passthrough" 7 (Obs.Trace.span "x" [] (fun () -> 7))

(* --- heatmap ----------------------------------------------------------------- *)

let test_heatmap_counts () =
  let h = Obs.Heatmap.create () in
  Obs.Heatmap.record h ~cg:0 Obs.Heatmap.Block;
  Obs.Heatmap.record h ~cg:2 Obs.Heatmap.Block;
  Obs.Heatmap.record h ~cg:2 Obs.Heatmap.Block;
  Obs.Heatmap.record h ~cg:1 Obs.Heatmap.Frag;
  check_int "ncg grows on demand" 3 (Obs.Heatmap.ncg h);
  Alcotest.(check (array int)) "block row" [| 1; 0; 2 |] (Obs.Heatmap.counts h Obs.Heatmap.Block);
  check_int "total" 4 (Obs.Heatmap.total h);
  check_bool "render mentions blocks" true (contains ~affix:"block" (Obs.Heatmap.render h))

(* --- replay smoke: counters match the allocator's own accounting ------------- *)

let test_replay_smoke () =
  let params = Ffs.Params.small_test_fs in
  M.reset M.default;
  M.set_enabled M.default true;
  Obs.Heatmap.reset Obs.Heatmap.global;
  Obs.Heatmap.set_enabled Obs.Heatmap.global true;
  let days = 3 in
  let profile = Workload.Ground_truth.scaled params ~days in
  let gt = Workload.Ground_truth.generate params profile in
  let result = Aging.Replay.run ~params ~days gt.Workload.Ground_truth.ops in
  let snap = M.snapshot M.default in
  M.set_enabled M.default false;
  Obs.Heatmap.set_enabled Obs.Heatmap.global false;
  let stats = Ffs.Fs.stats result.Aging.Replay.fs in
  (* the tentpole invariant: the metrics counter and the allocator's own
     statistics count the same events *)
  check_int "blocks counter = allocator accounting" stats.Ffs.Fs.blocks_allocated
    (M.counter_total snap "ffs_alloc_blocks_total");
  check_int "frags counter = allocator accounting" stats.Ffs.Fs.frags_allocated
    (M.counter_total snap "ffs_alloc_frags_total");
  check_int "contiguous counter = allocator accounting"
    stats.Ffs.Fs.contiguous_allocations
    (M.counter_total snap "ffs_alloc_contiguous_total");
  (* the heatmap is the same event stream split by group *)
  let heat_blocks =
    Array.fold_left ( + ) 0 (Obs.Heatmap.counts Obs.Heatmap.global Obs.Heatmap.Block)
  in
  check_int "heatmap block events = blocks allocated" stats.Ffs.Fs.blocks_allocated
    heat_blocks;
  check_int "replay day counter" days (M.counter_total snap "replay_days_total");
  check_bool "ops recorded" true (M.counter_total snap "replay_ops_total" > 0);
  (* the layout scorer can only ever count blocks that were allocated *)
  let counted_live =
    List.fold_left
      (fun acc b -> acc + b.Aging.Layout_score.counted_blocks)
      0
      (Aging.Layout_score.by_size result.Aging.Replay.fs ~inums:None)
  in
  check_bool "layout-score counted blocks <= allocated" true
    (counted_live <= stats.Ffs.Fs.blocks_allocated)

(* Minor words allocated by [f], net of the measurement's own. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  f ();
  let w2 = Gc.minor_words () in
  int_of_float (w2 -. w1 -. (w1 -. w0))

(* Disabled instrumentation costs the registry's flag load and nothing
   else: in native code a replay of [2n] ops allocates no more than one
   of [n] ops on the skip path (modifies of files that do not exist),
   which counts every op in replay_ops_total and replay_skips_total. *)
let test_disabled_metrics_allocation_free () =
  if Sys.backend_type = Sys.Native then begin
    M.set_enabled M.default false;
    let params = Ffs.Params.small_test_fs in
    let replay n =
      let ops =
        Array.init n (fun i -> Workload.Op.Modify { ino = i; size = 1; time = float_of_int i })
      in
      minor_words (fun () ->
          ignore (Aging.Replay.run ~max_skip_fraction:1.0 ~params ~days:1 ops))
    in
    ignore (replay 10);
    let n = 10_000 in
    let per_op = (replay (2 * n) - replay n) / n in
    if per_op > 0 then Alcotest.failf "disabled metrics: %d minor words per replayed op" per_op;
    (* the bare counter call with a static label set *)
    let labels = Some [ ("kind", "modify") ] in
    let words = minor_words (fun () -> M.inc M.default ?labels "replay_ops_total") in
    check_int "disabled labelled inc allocates nothing" 0 words
  end

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          tc "counter basics" test_counter_basics;
          tc "label merging" test_counter_label_merging;
          tc "disabled registry" test_disabled_registry_records_nothing;
          tc "disabled metrics allocation-free" test_disabled_metrics_allocation_free;
          tc "histogram edges (0, max_int)" test_histogram_edges;
          tc "gauge keeps last" test_gauge_keeps_last;
          tc "diff" test_diff;
          tc "text export" test_text_export;
        ] );
      ( "trace",
        [
          tc "ring wraparound" test_ring_wraparound;
          tc "span json round-trip" test_span_json_roundtrip;
          tc "jsonl sink round-trip" test_jsonl_sink_roundtrip;
          tc "disabled passthrough" test_disabled_trace_is_passthrough;
        ] );
      ("heatmap", [ tc "counts and render" test_heatmap_counts ]);
      ("smoke", [ tc "replay counters match allocator stats" test_replay_smoke ]);
    ]
