(* Tests for the workload layer: operations, inode pools, the
   ground-truth generator, nightly snapshots, the NFS trace source, and
   the paper-faithful reconstruction. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let params = Ffs.Params.small_test_fs
let ipg = Ffs.Params.inodes_per_group params

(* --- Op -------------------------------------------------------------------- *)

let test_op_accessors () =
  let c = Workload.Op.Create { ino = 7; size = 100; time = 90000.0 } in
  check_int "ino" 7 (Workload.Op.ino_of c);
  Alcotest.(check (float 0.0)) "time" 90000.0 (Workload.Op.time_of c);
  check_int "day" 1 (Workload.Op.day_of c);
  check_bool "create writes" true (Workload.Op.is_write c);
  check_int "bytes" 100 (Workload.Op.bytes_written c);
  let d = Workload.Op.Delete { ino = 7; time = 90001.0 } in
  check_bool "delete does not write" false (Workload.Op.is_write d);
  check_int "delete bytes" 0 (Workload.Op.bytes_written d)

let test_op_stats () =
  let ops =
    [|
      Workload.Op.Create { ino = 1; size = 10; time = 1.0 };
      Workload.Op.Modify { ino = 1; size = 20; time = 2.0 };
      Workload.Op.Delete { ino = 1; time = 100000.0 };
    |]
  in
  let s = Workload.Op.stats ops in
  check_int "ops" 3 s.Workload.Op.operations;
  check_int "creates" 1 s.Workload.Op.creates;
  check_int "deletes" 1 s.Workload.Op.deletes;
  check_int "modifies" 1 s.Workload.Op.modifies;
  check_int "bytes" 30 s.Workload.Op.total_bytes_written;
  check_int "days" 2 s.Workload.Op.days

let test_op_sort_stable () =
  let ops =
    [|
      Workload.Op.Create { ino = 2; size = 1; time = 5.0 };
      Workload.Op.Create { ino = 1; size = 1; time = 1.0 };
      Workload.Op.Delete { ino = 3; time = 5.0 };
    |]
  in
  Workload.Op.sort_by_time ops;
  check_int "first by time" 1 (Workload.Op.ino_of ops.(0));
  (* equal timestamps keep generation order: ino 2 before ino 3 *)
  check_int "stable tie" 2 (Workload.Op.ino_of ops.(1))

let test_op_sort_rejects_nan () =
  let ops =
    [|
      Workload.Op.Create { ino = 1; size = 1; time = 2.0 };
      Workload.Op.Delete { ino = 1; time = Float.nan };
    |]
  in
  Alcotest.check_raises "NaN time" (Invalid_argument "Op.sort_by_time: NaN time") (fun () ->
      Workload.Op.sort_by_time ops)

let test_op_well_formed_detects () =
  let bad_backwards =
    [|
      Workload.Op.Create { ino = 1; size = 1; time = 5.0 };
      Workload.Op.Create { ino = 2; size = 1; time = 1.0 };
    |]
  in
  check_bool "time reversal caught" true
    (Result.is_error (Workload.Op.check_well_formed bad_backwards));
  let bad_double_create =
    [|
      Workload.Op.Create { ino = 1; size = 1; time = 1.0 };
      Workload.Op.Create { ino = 1; size = 1; time = 2.0 };
    |]
  in
  check_bool "double create caught" true
    (Result.is_error (Workload.Op.check_well_formed bad_double_create));
  let bad_dead_delete = [| Workload.Op.Delete { ino = 1; time = 1.0 } |] in
  check_bool "dead delete caught" true
    (Result.is_error (Workload.Op.check_well_formed bad_dead_delete));
  let ok =
    [|
      Workload.Op.Create { ino = 1; size = 1; time = 1.0 };
      Workload.Op.Modify { ino = 1; size = 2; time = 2.0 };
      Workload.Op.Delete { ino = 1; time = 3.0 };
    |]
  in
  check_bool "valid accepted" true (Result.is_ok (Workload.Op.check_well_formed ok))

(* --- Inode_pool --------------------------------------------------------------- *)

let test_pool_alloc_in_group () =
  let p = Workload.Inode_pool.create params in
  let a = Option.get (Workload.Inode_pool.alloc p ~cg:2) in
  check_int "group of first" 2 (Workload.Inode_pool.cg_of p a);
  check_int "lowest slot" (2 * ipg) a;
  let b = Option.get (Workload.Inode_pool.alloc p ~cg:2) in
  check_int "next slot" ((2 * ipg) + 1) b;
  check_bool "allocated" true (Workload.Inode_pool.is_allocated p a);
  Workload.Inode_pool.free p a;
  check_bool "freed" false (Workload.Inode_pool.is_allocated p a);
  let c = Option.get (Workload.Inode_pool.alloc p ~cg:2) in
  check_int "lowest reused" a c;
  check_int "count" 2 (Workload.Inode_pool.allocated_count p)

let test_pool_spills () =
  let p = Workload.Inode_pool.create params in
  for _ = 1 to ipg do
    ignore (Option.get (Workload.Inode_pool.alloc p ~cg:1))
  done;
  let spilled = Option.get (Workload.Inode_pool.alloc p ~cg:1) in
  check_int "spills to next group" 2 (Workload.Inode_pool.cg_of p spilled)

(* [Inode_pool] against a model that takes the lowest free slot from 0
   in the group, then in each following group (wrapping). Scripts mix
   allocs, frees of a live ino and copies over three 64-inode groups, so
   groups fill, spill into the next, sometimes all fill, and empty
   again. A copy must carry the low-water slots; the abandoned original
   is then mutated to show the two are independent. *)
let prop_pool_matches_model =
  let open QCheck in
  let small =
    Ffs.Params.v_exn ~ncg:3 ~size_bytes:(3 * 1024 * 1024) ~bytes_per_inode:(64 * 1024) ()
  in
  let ncg = small.Ffs.Params.ncg and ipg = Ffs.Params.inodes_per_group small in
  let model_alloc used cg =
    let rec in_group c slot =
      if slot >= ipg then None
      else if used.((c * ipg) + slot) then in_group c (slot + 1)
      else Some ((c * ipg) + slot)
    in
    let rec from i =
      if i >= ncg then None
      else match in_group ((cg + i) mod ncg) 0 with Some _ as r -> r | None -> from (i + 1)
    in
    from 0
  in
  let step = Gen.(frequency [ (7, return `Alloc); (2, return `Free); (1, return `Copy) ]) in
  Test.make ~name:"inode pool = lowest free slot model" ~count:200
    (make Gen.(list_size (int_bound 600) (pair step (int_bound 1000))))
    (fun script ->
      let pool = ref (Workload.Inode_pool.create small) in
      let used = Array.make (ncg * ipg) false in
      let live = ref [] in
      List.for_all
        (fun (step, arg) ->
          (match step with
          | `Alloc ->
              let cg = arg mod ncg in
              let want = model_alloc used cg in
              let got = Workload.Inode_pool.alloc !pool ~cg in
              if got <> want then
                Test.fail_reportf "alloc ~cg:%d = %s, model %s" cg
                  (Option.fold ~none:"None" ~some:string_of_int got)
                  (Option.fold ~none:"None" ~some:string_of_int want);
              Option.iter
                (fun ino ->
                  used.(ino) <- true;
                  live := ino :: !live)
                got
          | `Free -> (
              match !live with
              | [] -> ()
              | l ->
                  let ino = List.nth l (arg mod List.length l) in
                  Workload.Inode_pool.free !pool ino;
                  used.(ino) <- false;
                  live := List.filter (( <> ) ino) l)
          | `Copy ->
              let original = !pool in
              pool := Workload.Inode_pool.copy original;
              ignore (Workload.Inode_pool.alloc original ~cg:(arg mod ncg)));
          Workload.Inode_pool.allocated_count !pool = List.length !live)
        script)

(* --- Ground truth ----------------------------------------------------------------- *)

let small_profile days =
  let base = Workload.Ground_truth.scaled params ~days in
  { base with Workload.Ground_truth.seed = 4242 }

let test_ground_truth_well_formed () =
  let gt = Workload.Ground_truth.generate params (small_profile 12) in
  (match Workload.Op.check_well_formed gt.Workload.Ground_truth.ops with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let s = Workload.Op.stats gt.Workload.Ground_truth.ops in
  check_bool "nontrivial" true (s.Workload.Op.operations > 500);
  check_bool "spans the days" true (s.Workload.Op.days <= 12)

let test_ground_truth_deterministic () =
  let a = Workload.Ground_truth.generate params (small_profile 6) in
  let b = Workload.Ground_truth.generate params (small_profile 6) in
  check_bool "same ops" true (a.Workload.Ground_truth.ops = b.Workload.Ground_truth.ops)

let test_ground_truth_seed_matters () =
  let p1 = small_profile 6 in
  let p2 = { p1 with Workload.Ground_truth.seed = 777 } in
  let a = Workload.Ground_truth.generate params p1 in
  let b = Workload.Ground_truth.generate params p2 in
  check_bool "different ops" false (a.Workload.Ground_truth.ops = b.Workload.Ground_truth.ops)

let test_ground_truth_utilization_targets () =
  let profile = small_profile 20 in
  let gt = Workload.Ground_truth.generate params profile in
  let t = gt.Workload.Ground_truth.utilization_targets in
  check_int "one per day" 20 (Array.length t);
  Alcotest.(check (float 1e-9))
    "starts at the configured level" profile.Workload.Ground_truth.utilization_start t.(0);
  Array.iter
    (fun v -> check_bool "within [0,hi]" true (v >= 0.0 && v <= profile.Workload.Ground_truth.utilization_hi +. 1e-9))
    t

let test_ground_truth_inos_map_to_groups () =
  let gt = Workload.Ground_truth.generate params (small_profile 6) in
  Array.iter
    (fun op ->
      let cg = Workload.Op.ino_of op / ipg in
      check_bool "valid group" true (cg >= 0 && cg < params.Ffs.Params.ncg))
    gt.Workload.Ground_truth.ops

(* a 300-day profile is the paper's, so no caller needs to pick between
   [default] and [scaled]; the size distributions are abstract, hence
   compared physically *)
let test_scaled_300_is_default () =
  let p = Ffs.Params.paper_fs in
  let d = Workload.Ground_truth.default p in
  let s = Workload.Ground_truth.scaled p ~days:300 in
  let open Workload.Ground_truth in
  check_int "seed" d.seed s.seed;
  check_int "days" d.days s.days;
  check_int "directories" d.directories s.directories;
  let check_float name a b = Alcotest.(check (float 0.0)) name a b in
  check_float "base_creates_per_day" d.base_creates_per_day s.base_creates_per_day;
  check_float "modify_fraction" d.modify_fraction s.modify_fraction;
  check_float "short_pairs_per_day" d.short_pairs_per_day s.short_pairs_per_day;
  check_bool "long_size" true (d.long_size == s.long_size);
  check_bool "short_size" true (d.short_size == s.short_size);
  check_float "utilization_start" d.utilization_start s.utilization_start;
  check_int "utilization_ramp_days" d.utilization_ramp_days s.utilization_ramp_days;
  check_float "utilization_lo" d.utilization_lo s.utilization_lo;
  check_float "utilization_hi" d.utilization_hi s.utilization_hi

(* --- Snapshots ----------------------------------------------------------------------- *)

let find (snap : Workload.Snapshot.t) ino =
  Array.find_opt (fun (r : Workload.Snapshot.file_record) -> r.ino = ino) snap.files

let test_snapshot_capture () =
  let ops =
    [|
      Workload.Op.Create { ino = 1; size = 10; time = 3600.0 };
      Workload.Op.Create { ino = 2; size = 20; time = 7200.0 };
      Workload.Op.Delete { ino = 1; time = 9000.0 };
      (* day 1 *)
      Workload.Op.Create { ino = 3; size = 30; time = 90000.0 };
      Workload.Op.Modify { ino = 2; size = 25; time = 91000.0 };
    |]
  in
  let snaps = Workload.Snapshot.capture_nightly ops ~days:3 in
  check_int "three snapshots" 3 (Array.length snaps);
  check_int "day 0 live files" 1 (Array.length snaps.(0).Workload.Snapshot.files);
  check_int "day 1 live files" 2 (Array.length snaps.(1).Workload.Snapshot.files);
  check_int "day 2 unchanged" 2 (Array.length snaps.(2).Workload.Snapshot.files);
  (match find snaps.(1) 2 with
  | Some r ->
      check_int "modified size" 25 r.Workload.Snapshot.size;
      Alcotest.(check (float 0.0)) "ctime updated" 91000.0 r.Workload.Snapshot.ctime
  | None -> Alcotest.fail "ino 2 missing");
  check_bool "deleted not present" true (find snaps.(1) 1 = None);
  check_int "live bytes" 55 (Workload.Snapshot.live_bytes snaps.(1))

(* --- NFS source ------------------------------------------------------------------------ *)

let test_nfs_source () =
  let traces = Workload.Nfs_source.generate ~seed:5 ~trace_days:4 ~pairs_per_day:50.0 in
  check_int "trace days" 4 (Array.length traces);
  check_bool "pairs generated" true (Workload.Nfs_source.total_pairs traces > 50);
  Array.iter
    (fun day ->
      Array.iter
        (fun (p : Workload.Nfs_source.pair) ->
          check_bool "offset within day" true (p.offset >= 0.0 && p.offset < 86400.0);
          check_bool "lifetime positive" true (p.lifetime >= 1.0);
          check_bool "dies same day" true (p.offset +. p.lifetime < 86400.0);
          check_bool "size sane" true (p.size >= 256 && p.size <= 4 * 1024 * 1024))
        day)
    traces

let test_nfs_deterministic () =
  let a = Workload.Nfs_source.generate ~seed:5 ~trace_days:2 ~pairs_per_day:20.0 in
  let b = Workload.Nfs_source.generate ~seed:5 ~trace_days:2 ~pairs_per_day:20.0 in
  check_bool "reproducible" true (a = b)

(* --- Reconstruction ----------------------------------------------------------------------- *)

let reconstruct_small days =
  let gt = Workload.Ground_truth.generate params (small_profile days) in
  let snaps = Workload.Snapshot.capture_nightly gt.Workload.Ground_truth.ops ~days in
  let nfs = Workload.Nfs_source.generate ~seed:9 ~trace_days:3 ~pairs_per_day:40.0 in
  (gt, snaps, Workload.Reconstruct.run params ~seed:11 ~snapshots:snaps ~nfs)

let test_reconstruct_well_formed () =
  let _, _, recon = reconstruct_small 10 in
  match Workload.Op.check_well_formed recon with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_reconstruct_preserves_final_live_set () =
  let _, snaps, recon = reconstruct_small 10 in
  (* replay the reconstruction logically; the final live set must match
     the final snapshot exactly (inode numbers and sizes) *)
  let live = Hashtbl.create 64 in
  Array.iter
    (fun op ->
      match op with
      | Workload.Op.Create { ino; size; _ } | Workload.Op.Modify { ino; size; _ } ->
          Hashtbl.replace live ino size
      | Workload.Op.Delete { ino; _ } -> Hashtbl.remove live ino)
    recon;
  let final = snaps.(Array.length snaps - 1) in
  check_int "same file count" (Array.length final.Workload.Snapshot.files)
    (Hashtbl.length live);
  Array.iter
    (fun (r : Workload.Snapshot.file_record) ->
      match Hashtbl.find_opt live r.ino with
      | Some size -> check_int (Fmt.str "size of ino %d" r.ino) r.size size
      | None -> Alcotest.fail (Fmt.str "ino %d missing after reconstruction" r.ino))
    final.Workload.Snapshot.files

let test_reconstruct_injects_short_lived () =
  let gt, _, recon = reconstruct_small 10 in
  let s_gt = Workload.Op.stats gt.Workload.Ground_truth.ops in
  let s_re = Workload.Op.stats recon in
  (* snapshots alone lose all same-day files; the NFS injection must
     bring the operation count back to the same order of magnitude *)
  check_bool "creates comparable" true
    (float_of_int s_re.Workload.Op.creates
    > 0.3 *. float_of_int s_gt.Workload.Op.creates)

let test_reconstruct_deterministic () =
  let _, snaps, recon1 = reconstruct_small 6 in
  let nfs = Workload.Nfs_source.generate ~seed:9 ~trace_days:3 ~pairs_per_day:40.0 in
  let recon2 = Workload.Reconstruct.run params ~seed:11 ~snapshots:snaps ~nfs in
  check_bool "reproducible" true (recon1 = recon2)

(* --- Reference oracles ------------------------------------------------------------- *)

(* Reference for [Op.sort_by_time]: a (time, original index) tuple sort. *)
let ref_sort_by_time ops =
  let indexed = Array.mapi (fun i op -> (Workload.Op.time_of op, i, op)) ops in
  Array.sort
    (fun (t1, i1, _) (t2, i2, _) -> if t1 <> t2 then compare t1 t2 else compare i1 i2)
    indexed;
  Array.iteri (fun i (_, _, op) -> ops.(i) <- op) indexed

(* Reference for [Snapshot.capture_nightly]: a Hashtbl live set, folded
   and sorted by ino each night. *)
let ref_capture_nightly ops ~days =
  let live : (int, Workload.Snapshot.file_record) Hashtbl.t = Hashtbl.create 64 in
  let snapshots = Util.Vec.create () in
  let snap day =
    let files = Array.of_list (Hashtbl.fold (fun _ r acc -> r :: acc) live []) in
    Array.sort (fun (a : Workload.Snapshot.file_record) b -> compare a.ino b.ino) files;
    Util.Vec.push snapshots { Workload.Snapshot.day; files }
  in
  let next_day = ref 0 in
  let day_end d = float_of_int (d + 1) *. Workload.Op.seconds_per_day in
  Array.iter
    (fun op ->
      while !next_day < days && Workload.Op.time_of op >= day_end !next_day do
        snap !next_day;
        incr next_day
      done;
      match op with
      | Workload.Op.Create { ino; size; time } | Workload.Op.Modify { ino; size; time } ->
          Hashtbl.replace live ino { Workload.Snapshot.ino; size; ctime = time }
      | Workload.Op.Delete { ino; _ } -> Hashtbl.remove live ino)
    ops;
  while !next_day < days do
    snap !next_day;
    incr next_day
  done;
  Util.Vec.to_array snapshots

(* Two generators of (kind, time) specs; the ino is the input position,
   which makes every element distinguishable. The first draws from a
   handful of timestamps, so ties dominate. The second takes times from
   random 62-bit patterns of either sign, so exponents and mantissas vary
   and several of the radix sort's 11-bit passes are non-uniform, mixed
   with 0.0, -0.0 (which must tie with 0.0) and repeats of a small pool;
   up to 5,000 ops. *)
let sort_specs =
  let open QCheck.Gen in
  let ties = list_size (int_bound 200) (pair (int_bound 2) (map float_of_int (int_bound 6))) in
  let pattern =
    map3
      (fun neg hi lo ->
        let f = Int64.float_of_bits (Int64.of_int ((hi lsl 31) lor lo)) in
        if neg then -.f else f)
      bool (int_bound 0x7FFF_FFFF) (int_bound 0x7FFF_FFFF)
  in
  let patterns =
    list_size (int_bound 64) pattern >>= fun pool ->
    let pool = Array.of_list (0.0 :: -0.0 :: pool) in
    list_size (int_bound 5000)
      (pair (int_bound 2)
         (frequency [ (3, pattern); (1, map (fun i -> pool.(i mod Array.length pool)) nat) ]))
  in
  oneof [ ties; patterns ]

let prop_sort_matches_tuple_sort =
  let open QCheck in
  Test.make ~name:"sort_by_time = (time, index) tuple sort" ~count:300
    (make ~print:Print.(list (pair int (fun t -> Printf.sprintf "%h" t))) sort_specs)
    (fun spec ->
      let ops =
        Array.of_list
          (List.mapi
             (fun ino (kind, time) ->
               match kind with
               | 0 -> Workload.Op.Create { ino; size = 1; time }
               | 1 -> Workload.Op.Delete { ino; time }
               | _ -> Workload.Op.Modify { ino; size = 2; time })
             spec)
      in
      let expected = Array.copy ops in
      ref_sort_by_time expected;
      Workload.Op.sort_by_time ops;
      ops = expected)

(* A well-formed stream from a random script: each step advances the
   clock (not at all, a little, or by whole days, so some days stay
   empty) and touches one of a few inos, which deletes free for reuse. *)
let stream_of_script script =
  let live = Hashtbl.create 16 in
  let time = ref 0.0 in
  List.map
    (fun (advance, ino, size, delete) ->
      (time :=
         !time
         +.
         match advance with
         | 0 -> 0.0
         | 1 -> 1.0
         | 2 -> 3600.0
         | n -> float_of_int (n - 2) *. Workload.Op.seconds_per_day);
      let time = !time in
      if not (Hashtbl.mem live ino) then begin
        Hashtbl.replace live ino ();
        Workload.Op.Create { ino; size; time }
      end
      else if delete then begin
        Hashtbl.remove live ino;
        Workload.Op.Delete { ino; time }
      end
      else Workload.Op.Modify { ino; size; time })
    script
  |> Array.of_list

let prop_capture_matches_hashtbl =
  let open QCheck in
  let step = Gen.(quad (int_bound 4) (int_bound 12) (int_bound 1000) bool) in
  Test.make ~name:"capture_nightly = Hashtbl live set" ~count:300
    (make Gen.(pair (list_size (int_bound 80) step) (int_bound 6)))
    (fun (script, extra_days) ->
      let ops = stream_of_script script in
      assert (Result.is_ok (Workload.Op.check_well_formed ops));
      (* cover the days past the last op, and a cut before it *)
      let last_day = if ops = [||] then 0 else Workload.Op.day_of ops.(Array.length ops - 1) in
      let days = max 0 (last_day + extra_days - 2) in
      Workload.Snapshot.capture_nightly ops ~days = ref_capture_nightly ops ~days)

(* Random snapshots (ctimes anywhere, files churning over a few low inos
   and scattered over the volume's whole ino range) and random trace days (offsets and lifetimes past the day's
   edges). Reconstructing a prefix of d snapshots yields days 0..d-1, so
   day d's ops are what the (d+1)-prefix adds: each must lie in
   [d*86400 + 1, (d+1)*86400 - 1], the window the per-day sort relies on. *)
let prop_reconstruct_day_window =
  let open QCheck in
  let day_gen = Gen.(
      list_size (int_bound 25)
        (triple (frequency [ (9, int_bound 60); (1, int_bound ((params.Ffs.Params.ncg * ipg) - 1)) ]) (int_bound 5000) (float_range (-2e5) 4e7))) in
  let pair_gen =
    Gen.(
      map
        (fun (offset, lifetime, size, dir_tag) -> { Workload.Nfs_source.offset; lifetime; size; dir_tag })
        (quad (float_range (-1000.0) 90000.0) (float_range 0.0 100000.0) (int_range 1 9000) (int_bound 4)))
  in
  Test.make ~name:"reconstructed day d lies in its window" ~count:60
    (make Gen.(triple (list_size (int_range 1 6) day_gen) (list_size (int_bound 3) (list_size (int_bound 30) pair_gen)) int))
    (fun (days, nfs, seed) ->
      let snapshots =
        Array.of_list
          (List.mapi
             (fun day files ->
               let files =
                 List.sort_uniq (fun (a, _, _) (b, _, _) -> compare a b) files
                 |> List.map (fun (ino, size, ctime) -> { Workload.Snapshot.ino; size; ctime })
               in
               { Workload.Snapshot.day; files = Array.of_list files })
             days)
      in
      let nfs = Array.of_list (List.map Array.of_list nfs) in
      let run n = Workload.Reconstruct.run params ~seed ~snapshots:(Array.sub snapshots 0 n) ~nfs in
      let ndays = Array.length snapshots in
      let full = run ndays in
      let prefix_len = ref 0 in
      for d = 0 to ndays - 1 do
        let ops = if d = ndays - 1 then full else run (d + 1) in
        let lo = (float_of_int d *. Workload.Op.seconds_per_day) +. 1.0 in
        let hi = (float_of_int (d + 1) *. Workload.Op.seconds_per_day) -. 1.0 in
        for i = 0 to Array.length ops - 1 do
          if ops.(i) <> full.(i) then Test.fail_reportf "prefix %d diverges at op %d" (d + 1) i;
          let t = Workload.Op.time_of ops.(i) in
          if i >= !prefix_len && (t < lo || t > hi) then
            Test.fail_reportf "day %d op %d at %.1f outside [%.0f, %.0f]" d i t lo hi
        done;
        prefix_len := Array.length ops
      done;
      Result.is_ok (Workload.Op.check_well_formed full))

(* --- Op-stream pins ---------------------------------------------------------------- *)

(* The paper-scale pipeline (Ffs.Params.paper_fs, 30 days, the default
   seed, reconstructed by Workload.Reconstruct.of_ground_truth), each
   output pinned by the CRC-32 of its unshared marshalled form: a
   reorder at equal op counts shows here, not only in image digests. *)
let pin_seed = 960117
let pin_days = 30

let pin_pipeline =
  lazy
    (let params = Ffs.Params.paper_fs in
     let profile =
       { (Workload.Ground_truth.scaled params ~days:pin_days) with Workload.Ground_truth.seed = pin_seed }
     in
     let gt = Workload.Ground_truth.generate params profile in
     let ops = gt.Workload.Ground_truth.ops in
     (ops, Workload.Snapshot.capture_nightly ops ~days:pin_days,
      Workload.Reconstruct.of_ground_truth params gt))

let crc_of v = Printf.sprintf "%08lx" (Util.Crc32.string (Marshal.to_string v [ Marshal.No_sharing ]))

let test_pin_ground_truth () =
  let ops, _, _ = Lazy.force pin_pipeline in
  check_int "ground-truth ops" 121_838 (Array.length ops);
  Alcotest.(check string) "ground-truth CRC" "28e62791" (crc_of ops)

let test_pin_snapshots () =
  let _, snaps, _ = Lazy.force pin_pipeline in
  check_int "one per day" pin_days (Array.length snaps);
  Alcotest.(check string) "snapshot CRC" "5e3572b5" (crc_of snaps)

let test_pin_reconstructed () =
  let _, _, recon = Lazy.force pin_pipeline in
  check_int "reconstructed ops" 98_034 (Array.length recon);
  Alcotest.(check string) "reconstructed CRC" "88e70ea0" (crc_of recon)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "workload"
    [
      ( "op",
        [
          tc "accessors" test_op_accessors;
          tc "stats" test_op_stats;
          tc "stable sort" test_op_sort_stable;
          tc "sort rejects NaN" test_op_sort_rejects_nan;
          tc "well-formedness checks" test_op_well_formed_detects;
        ] );
      ( "inode pool",
        [
          tc "alloc in group" test_pool_alloc_in_group;
          tc "spills" test_pool_spills;
          QCheck_alcotest.to_alcotest prop_pool_matches_model;
        ] );
      ( "ground truth",
        [
          tc "well-formed" test_ground_truth_well_formed;
          tc "deterministic" test_ground_truth_deterministic;
          tc "seed matters" test_ground_truth_seed_matters;
          tc "utilization targets" test_ground_truth_utilization_targets;
          tc "inos map to groups" test_ground_truth_inos_map_to_groups;
          tc "scaled 300 = default" test_scaled_300_is_default;
        ] );
      ( "snapshots",
        [ tc "capture" test_snapshot_capture ] );
      ( "nfs source",
        [ tc "ranges" test_nfs_source; tc "deterministic" test_nfs_deterministic ] );
      ( "reconstruction",
        [
          tc "well-formed" test_reconstruct_well_formed;
          tc "preserves final live set" test_reconstruct_preserves_final_live_set;
          tc "injects short-lived" test_reconstruct_injects_short_lived;
          tc "deterministic" test_reconstruct_deterministic;
        ] );
      ( "oracles",
        [
          QCheck_alcotest.to_alcotest prop_sort_matches_tuple_sort;
          QCheck_alcotest.to_alcotest prop_capture_matches_hashtbl;
          QCheck_alcotest.to_alcotest prop_reconstruct_day_window;
        ] );
      ( "op-stream pins",
        [
          tc "ground truth" test_pin_ground_truth;
          tc "snapshots" test_pin_snapshots;
          tc "reconstructed" test_pin_reconstructed;
        ] );
    ]
