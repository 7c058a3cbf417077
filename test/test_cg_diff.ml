(* The placement oracle behind the indexed allocator. [Predict] states
   the seed's traditional FFS placement policy as a naive bit-by-bit
   scan over Cg's public accessors (block and fragment bits, counters,
   the rotor from the portable form); it shares no code with the extent
   index. Random operation scripts run through the real allocators, and
   before every operation the predictor names the placement the
   allocator must return; the suite asserts it does, that the claimed
   fragments, counters and rotor come out as predicted, and that the
   group's invariants hold. The scripts start from a fresh group, from
   a fault-injected and repaired image, and from an aged image.
   Whole-pipeline pins replay an aging workload — including one with
   crashes and fsck repairs — and compare the aged image's digest and
   score series with recorded constants. *)

let check_bool = Alcotest.(check bool)
let params = Ffs.Params.small_test_fs
let fpb = params.Ffs.Params.frags_per_block
let marshalled x = Marshal.to_string x []

module Predict = struct
  let rotor cg = (Ffs.Cg.to_portable cg).Ffs.Cg.p_rotor

  (* the first of [start], [start+1], ... visited cyclically over
     [0 .. n-1] that satisfies [ok] *)
  let cyclic n ~start ok =
    let rec go i =
      if i >= n then None
      else begin
        let b = (start + i) mod n in
        if ok b then Some b else go (i + 1)
      end
    in
    go 0

  (* alloc_block (ffs_alloccgblk): the preferred block if free; else the
     rotationally nearest free block in its file-system cylinder, a
     cyclic scan of the cylinder starting just past the preference;
     else the first free block from the preference, wrapping. With no
     preference, the first free block from the rotor. *)
  let block cg ~pref =
    let n = Ffs.Cg.data_blocks cg in
    let free = Ffs.Cg.block_is_free cg in
    if Ffs.Cg.free_block_count cg = 0 then None
    else
      match pref with
      | None -> cyclic n ~start:(rotor cg) free
      | Some p when free (p mod n) -> Some (p mod n)
      | Some p -> (
          let p = p mod n in
          let cyl = params.Ffs.Params.fs_cylinder_blocks in
          let cyl_start = p / cyl * cyl in
          let cyl_len = Int.min cyl (n - cyl_start) in
          match cyclic cyl_len ~start:(p - cyl_start + 1) (fun o -> free (cyl_start + o)) with
          | Some o -> Some (cyl_start + o)
          | None -> cyclic n ~start:p free)

  (* first run of [count] free fragments lying wholly inside block [b] *)
  let fit_in_block cg b ~count =
    let rec go off run =
      if off >= fpb then None
      else if Ffs.Cg.frag_is_free cg ((b * fpb) + off) then
        if run + 1 = count then Some ((b * fpb) + off + 1 - count) else go (off + 1) (run + 1)
      else go (off + 1) 0
    in
    go 0 0

  (* alloc_frags: the first partially used block holding a fit, scanning
     blocks from the preferred fragment's block (or the rotor) with
     wrap; else break a free block, preferring that start block *)
  let frags cg ~pref ~count =
    let n = Ffs.Cg.data_blocks cg in
    if Ffs.Cg.free_frag_count cg < count then None
    else begin
      let start = match pref with Some f -> f / fpb mod n | None -> rotor cg in
      let partial b = (not (Ffs.Cg.block_is_free cg b)) && fit_in_block cg b ~count <> None in
      match cyclic n ~start partial with
      | Some b -> fit_in_block cg b ~count
      | None -> Option.map (fun b -> b * fpb) (block cg ~pref:(Some start))
    end

  (* maximal runs of free blocks, in address order *)
  let free_runs cg =
    let n = Ffs.Cg.data_blocks cg in
    let rec go b acc =
      if b >= n then List.rev acc
      else if not (Ffs.Cg.block_is_free cg b) then go (b + 1) acc
      else begin
        let e = ref b in
        while !e < n && Ffs.Cg.block_is_free cg !e do
          incr e
        done;
        go !e ((b, !e - b) :: acc)
      end
    in
    go 0 []

  (* alloc_cluster: reject the request when no free run is long enough
     (the cluster summary check); else the run starting exactly at the
     preference if it fits; else first fit (the first [len] free blocks
     at or after the preference, wrapping, never across the group's
     end) or best fit (the shortest adequate run, the first one on a
     tie) *)
  let cluster cg ~policy ~pref ~len =
    let n = Ffs.Cg.data_blocks cg in
    let runs = free_runs cg in
    let fits s =
      s + len <= n && List.for_all (Ffs.Cg.block_is_free cg) (List.init len (( + ) s))
    in
    if Ffs.Cg.free_block_count cg < len || not (List.exists (fun (_, l) -> l >= len) runs)
    then None
    else
      match pref with
      | Some p when fits (p mod n) -> Some (p mod n)
      | _ -> (
          match policy with
          | `First_fit ->
              cyclic n ~start:(match pref with Some p -> p mod n | None -> 0) fits
          | `Best_fit ->
              List.fold_left
                (fun best (s, l) ->
                  match best with
                  | Some (_, bl) when bl <= l -> best
                  | _ when l >= len -> Some (s, l)
                  | _ -> best)
                None runs
              |> Option.map fst)
end

(* op mix exercising every search: preferred and rotor-driven block
   allocations, fragment tails with and without preference, first- and
   best-fit clusters, and frees that reopen space mid-script.
   Preferences range over the whole group, its last partial cylinder
   and a little past its end (where they wrap). *)
let nblocks = Ffs.Params.data_blocks_per_group params

let cg_op_gen =
  let pref = QCheck.Gen.int_bound (nblocks + 16) in
  QCheck.Gen.(
    frequency
      [
        (4, map (fun p -> `Block (Some p)) pref);
        (2, return (`Block None));
        ( 3,
          map2
            (fun p c -> `Frags (Some p, 1 + (c mod (fpb - 1))))
            (int_bound ((nblocks + 16) * fpb))
            (int_bound 6) );
        (1, map (fun c -> `Frags (None, 1 + (c mod (fpb - 1)))) (int_bound 6));
        (2, map2 (fun p l -> `Cluster (`First_fit, Some p, 1 + l)) pref (int_bound 5));
        (1, map (fun l -> `Cluster (`First_fit, None, 1 + l)) (int_bound 5));
        (2, map2 (fun p l -> `Cluster (`Best_fit, Some p, 1 + l)) pref (int_bound 5));
        (3, return `Free_something);
      ])

(* Run a script on [cg]. Before each allocation the predictor names the
   fragment span the allocator must claim; afterwards the allocator's
   answer must be that span, the span must be in use, the free count
   must have dropped by exactly its size, the rotor must have moved
   only when a whole block was taken from a free one, and the group's
   invariants must hold. *)
let run_predicted cg script =
  let n = Ffs.Cg.data_blocks cg in
  let held = ref [] in
  let block_span = Option.map (fun b -> (b * fpb, fpb)) in
  let frags_span count = Option.map (fun pos -> (pos, count)) in
  let cluster_span len = Option.map (fun b -> (b * fpb, len * fpb)) in
  let pp = Fmt.(option ~none:(any "none") (pair ~sep:(any "+") int int)) in
  List.iteri
    (fun i op ->
      let free_before = Ffs.Cg.free_frag_count cg in
      let predicted =
        match op with
        | `Block pref -> block_span (Predict.block cg ~pref)
        | `Frags (pref, count) -> frags_span count (Predict.frags cg ~pref ~count)
        | `Cluster (policy, pref, len) ->
            cluster_span len (Predict.cluster cg ~policy ~pref ~len)
        | `Free_something -> None
      in
      (* a block allocation, or a fragment run that breaks a free block,
         leaves the rotor just past that block; nothing else moves it *)
      let want_rotor =
        match (op, predicted) with
        | `Block _, Some (pos, _) -> ((pos / fpb) + 1) mod n
        | `Frags _, Some (pos, _) when Ffs.Cg.block_is_free cg (pos / fpb) ->
            ((pos / fpb) + 1) mod n
        | _ -> Predict.rotor cg
      in
      let got =
        match op with
        | `Block pref -> block_span (Ffs.Cg.alloc_block cg ~pref)
        | `Frags (pref, count) -> frags_span count (Ffs.Cg.alloc_frags cg ~pref ~count)
        | `Cluster (policy, pref, len) ->
            cluster_span len (Ffs.Cg.alloc_cluster cg ~policy ~pref ~len)
        | `Free_something ->
            (match !held with
            | (pos, count) :: rest ->
                Ffs.Cg.free_frags cg ~pos ~count;
                held := rest
            | [] -> ());
            None
      in
      if predicted <> got then
        QCheck.Test.fail_reportf "op %d: predicted %a, allocator returned %a" i pp predicted
          pp got;
      (match got with
      | None -> ()
      | Some (pos, count) ->
          held := (pos, count) :: !held;
          for f = pos to pos + count - 1 do
            if Ffs.Cg.frag_is_free cg f then
              QCheck.Test.fail_reportf "op %d: fragment %d still free after the claim" i f
          done;
          if Ffs.Cg.free_frag_count cg <> free_before - count then
            QCheck.Test.fail_reportf "op %d: %d free fragments, want %d" i
              (Ffs.Cg.free_frag_count cg) (free_before - count));
      if Predict.rotor cg <> want_rotor then
        QCheck.Test.fail_reportf "op %d: rotor %d, want %d" i (Predict.rotor cg) want_rotor;
      Ffs.Cg.check_invariants cg)
    script

let script_gen = QCheck.Gen.(list_size (int_bound 140) cg_op_gen)

let prop_fresh =
  QCheck.Test.make ~name:"indexed vs scan oracle: identical placements and state" ~count:80
    (QCheck.make script_gen) (fun script ->
      run_predicted (Ffs.Cg.create params ~index:0) script;
      true)

(* fault injection tears the image, fsck repairs it (rebuilding the
   extent index from scratch); allocation after that repair must still
   land where the predictor says *)
let prop_post_repair =
  let open QCheck in
  Test.make ~name:"post-fault repair: rebuilt index still matches the scan oracle"
    ~count:25
    (make Gen.(pair (int_bound 1000) (list_size (int_bound 80) cg_op_gen)))
    (fun (seed, script) ->
      let fs = Ffs.Fs.create params in
      let d = Ffs.Fs.mkdir_exn fs ~parent:(Ffs.Fs.root fs) ~name:"d" in
      for i = 0 to 11 do
        ignore
          (Ffs.Fs.create_file_exn fs ~dir:d ~name:(Fmt.str "f%d" i)
             ~size:((1 + (i mod 5)) * params.Ffs.Params.block_bytes))
      done;
      let rng = Util.Prng.create ~seed in
      let plan = Fault.Plan.gen ~rng ~intensity:5 in
      ignore (Fault.Inject.apply fs ~rng plan);
      ignore (Ffs.Check.repair_exn fs);
      let before = marshalled fs in
      if not (Ffs.Check.is_clean (Ffs.Check.run fs)) then
        Test.fail_report "image not clean after repair";
      if marshalled fs <> before then Test.fail_report "Check.run changed the image";
      run_predicted (Ffs.Fs.cg_states fs).(0) script;
      true)

(* The aged starting state: the standard 10-day, seed-960117 small
   image, about 71% full, whose groups hold the short, scattered free
   runs that fresh and lightly used groups never do. Each case runs
   its script on a copy of one group. *)
let aged_groups =
  lazy
    (let days = 10 in
     let profile =
       { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed = 960117 }
     in
     let ops = (Workload.Ground_truth.generate params profile).Workload.Ground_truth.ops in
     Ffs.Fs.cg_states (Aging.Replay.run ~params ~days ops).Aging.Replay.fs)

let test_aged_image_is_aged () =
  let groups = Lazy.force aged_groups in
  let total = Array.fold_left (fun a cg -> a + Ffs.Cg.data_frags cg) 0 groups in
  let free = Array.fold_left (fun a cg -> a + Ffs.Cg.free_frag_count cg) 0 groups in
  let used_pct = 100 * (total - free) / total in
  check_bool (Fmt.str "aged image is %d%% full (want 60..80)" used_pct) true
    (used_pct >= 60 && used_pct <= 80)

let prop_aged =
  let open QCheck in
  Test.make ~name:"aged image: placements match the scan oracle" ~count:40
    (make Gen.(pair (int_bound (params.Ffs.Params.ncg - 1)) script_gen))
    (fun (g, script) ->
      run_predicted (Ffs.Cg.copy (Lazy.force aged_groups).(g)) script;
      true)

(* --- whole-pipeline pins --------------------------------------------------- *)

let aged_ops ~days ~seed =
  let profile =
    { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed }
  in
  (Workload.Ground_truth.generate params profile).Workload.Ground_truth.ops

(* Digest and score-series constants were recorded when every allocator
   still ran the seed's bitmap scans; the indexed allocators must
   reproduce them exactly. Re-pin only when placements are meant to
   change. *)
let scores_crc scores =
  Printf.sprintf "%08lx"
    (Util.Crc32.string (String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") scores))))

let check_pin name ~digest ~scores (r : Aging.Replay.result) =
  Alcotest.(check string) (name ^ ": aged-image digest") digest (Ffs.Fs.digest r.Aging.Replay.fs);
  Alcotest.(check string)
    (name ^ ": layout score series")
    scores
    (scores_crc r.Aging.Replay.daily_scores)

let test_pipeline_pin config_name config ~digest ~scores () =
  let days = 4 in
  let ops = aged_ops ~days ~seed:11 in
  check_pin config_name ~digest ~scores (Aging.Replay.run ~config ~params ~days ops)

let test_crash_pipeline_pin () =
  let days = 4 in
  let ops = aged_ops ~days ~seed:3 in
  let c = Aging.Replay.run_with_crashes ~params ~days ~crashes:2 ~fault_seed:7 ops in
  Alcotest.(check int) "recoveries" 2 (List.length c.Aging.Replay.recoveries);
  check_pin "crash/repair" ~digest:"ab20a0892a5c22e60bbafd4df0cf5248" ~scores:"71a5b6a6"
    c.Aging.Replay.result;
  check_bool "crash-aged image fsck-clean" true
    (Ffs.Check.is_clean (Ffs.Check.run c.Aging.Replay.result.Aging.Replay.fs))

(* The paper-scale pipeline: test_workload's 30-day paper_fs workload
   (default seed, Workload.Reconstruct.of_ground_truth) replayed under
   both allocators. An aged paper-size volume splits its free space
   into many short runs, which the 4-day small-volume pins above never
   do, so a cluster search that hops runs wrongly shows here. The
   constants equal perfbench's io-aged pins. *)
let paper_days = 30
let paper_seed = 960117

let paper_ops =
  lazy
    (let params = Ffs.Params.paper_fs in
     let profile =
       { (Workload.Ground_truth.scaled params ~days:paper_days) with
         Workload.Ground_truth.seed = paper_seed }
     in
     Workload.Reconstruct.of_ground_truth params (Workload.Ground_truth.generate params profile))

let paper_image config =
  lazy (Aging.Replay.run ~config ~params:Ffs.Params.paper_fs ~days:paper_days (Lazy.force paper_ops))

let paper_traditional = paper_image Ffs.Fs.default_config

let test_paper_pin config_name image ~digest ~scores () =
  let r = Lazy.force image in
  check_pin config_name ~digest ~scores r;
  Alcotest.(check int)
    (config_name ^ ": blocks allocated")
    544_929
    (Ffs.Fs.stats r.Aging.Replay.fs).Ffs.Fs.blocks_allocated

(* --- fsck's work budget ----------------------------------------------------- *)

(* Words [f] allocates: minor plus those allocated straight into the
   major heap (the claim table is one such block), less the cost of
   reading the counters. *)
let heap_words f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  Gc.minor ();
  let w0 = words () in
  let w1 = words () in
  let v = f () in
  let w2 = words () in
  ignore (Sys.opaque_identity v);
  int_of_float (w2 -. w1 -. (w1 -. w0))

(* The audit and repair of the 30-day traditional paper image, each
   bounded at its measured words plus 10%. Before the shared claim table
   they allocated 2.92M (run) and 3.99M (repair) words. *)
let test_fsck_words () =
  let fs = (Lazy.force paper_traditional).Aging.Replay.fs in
  let bound what words limit =
    if words > limit then Alcotest.failf "%s allocated %d words (bound %d)" what words limit
  in
  (* measured 851,665 and 978,616 *)
  bound "Check.run" (heap_words (fun () -> Ffs.Check.run fs)) 936_832;
  let copy = Ffs.Fs.copy fs in
  bound "Check.repair" (heap_words (fun () -> Ffs.Check.repair_exn copy)) 1_076_478

(* --- replay dispatch's work budget ---------------------------------------------- *)

(* Words the 30-day paper replay allocates per operation: everything
   [Replay.run] allocates (inode records and entry arrays, directory
   names, daily scoring, the engine's own tables, its dense
   workload-inode table included) over the workload's 98,034 ops. Each
   allocator is bounded at its measured words per op plus 10%: 44.00
   (traditional) and 43.97 (realloc), with block runs packed into ints
   and the group searches answering sentinels. With boxed run records,
   option-returning searches and a preference pair per run they were
   78.31 and 96.64; before that, with a polymorphic [Hashtbl] inode
   map, [string_of_int] names and result-wrapped calls, traditional was
   96.48. Only meaningful in native code (bytecode boxes differently). *)
let test_replay_words config ~bound () =
  if Sys.backend_type = Sys.Native then begin
    let ops = Lazy.force paper_ops in
    let words =
      heap_words (fun () ->
          Aging.Replay.run ~config ~params:Ffs.Params.paper_fs ~days:paper_days ops)
    in
    let per_op = float_of_int words /. float_of_int (Array.length ops) in
    if per_op > bound then
      Alcotest.failf "replay allocated %.2f words per op (%d words, %d ops; bound %.2f)" per_op
        words (Array.length ops) bound
  end

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cg_diff"
    [
      ( "lockstep",
        [
          QCheck_alcotest.to_alcotest prop_fresh;
          QCheck_alcotest.to_alcotest prop_post_repair;
          tc "aged image is 60-80% full" test_aged_image_is_aged;
          QCheck_alcotest.to_alcotest prop_aged;
        ] );
      ( "pipeline pins",
        [
          tc "traditional allocator"
            (test_pipeline_pin "traditional" Ffs.Fs.default_config
               ~digest:"5eae8dd65da77c84fd644e7441f6a509" ~scores:"2ff7a782");
          tc "realloc allocator"
            (test_pipeline_pin "realloc" Ffs.Fs.realloc_config
               ~digest:"dd971328b92522273d2052a2a4c7bf8a" ~scores:"154c52c4");
          tc "crash/repair replay" test_crash_pipeline_pin;
        ] );
      ( "paper pins",
        [
          tc "traditional allocator, 30 days"
            (test_paper_pin "paper traditional" paper_traditional
               ~digest:"7e78aa470076785caa5d17f70bc9965d" ~scores:"20acc5c1");
          tc "realloc allocator, 30 days"
            (test_paper_pin "paper realloc" (paper_image Ffs.Fs.realloc_config)
               ~digest:"2b9f10862488164b3cf5e16c158c9ba8" ~scores:"798b1a23");
          tc "fsck words, 30 days" test_fsck_words;
          tc "replay words per op, 30 days"
            (test_replay_words Ffs.Fs.default_config ~bound:48.40);
          tc "realloc replay words per op, 30 days"
            (test_replay_words Ffs.Fs.realloc_config ~bound:48.37);
        ] );
    ]
