(* Tests for cylinder-group allocation: block preference and the
   cylinder-scatter fallback, fragment fits, cluster allocation, and
   counter invariants under random operation sequences. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_opt = Alcotest.(check (option int))
let params = Ffs.Params.small_test_fs
let fresh () = Ffs.Cg.create params ~index:0
let fpb = params.Ffs.Params.frags_per_block

let test_initial_state () =
  let cg = fresh () in
  check_int "index" 0 (Ffs.Cg.index cg);
  check_int "all blocks free" (Ffs.Cg.data_blocks cg) (Ffs.Cg.free_block_count cg);
  check_int "all frags free" (Ffs.Cg.data_frags cg) (Ffs.Cg.free_frag_count cg);
  check_int "frags = blocks * fpb" (Ffs.Cg.data_blocks cg * fpb) (Ffs.Cg.data_frags cg);
  check_int "inodes" (Ffs.Params.inodes_per_group params) (Ffs.Cg.inodes_free cg);
  Ffs.Cg.check_invariants cg

let test_alloc_block_pref_exact () =
  let cg = fresh () in
  check_opt "preferred block taken" (Some 100) (Ffs.Cg.alloc_block cg ~pref:(Some 100));
  check_bool "block now used" false (Ffs.Cg.block_is_free cg 100);
  check_int "counter" (Ffs.Cg.data_blocks cg - 1) (Ffs.Cg.free_block_count cg);
  Ffs.Cg.check_invariants cg

let test_alloc_block_cylinder_scatter () =
  let cg = fresh () in
  (* occupy the preferred block; the fallback must take the next free in
     the same fs cylinder, scanning cyclically from the preference *)
  ignore (Ffs.Cg.alloc_block cg ~pref:(Some 10));
  check_opt "next in cylinder" (Some 11) (Ffs.Cg.alloc_block cg ~pref:(Some 10));
  (* fill the whole cylinder containing block 10 except block 3 *)
  let cyl = params.Ffs.Params.fs_cylinder_blocks in
  for b = 0 to cyl - 1 do
    if Ffs.Cg.block_is_free cg b && b <> 3 then
      match Ffs.Cg.alloc_block cg ~pref:(Some b) with
      | Some got when got = b -> ()
      | _ -> Alcotest.fail "setup alloc failed"
  done;
  (* pref 10 is used; only block 3 is free in the cylinder: the cyclic
     scan wraps around and lands behind the preference *)
  check_opt "wraps backward within cylinder" (Some 3) (Ffs.Cg.alloc_block cg ~pref:(Some 10));
  (* cylinder now full: falls through to the forward bitmap scan *)
  check_opt "mapsearch past the cylinder" (Some cyl) (Ffs.Cg.alloc_block cg ~pref:(Some 10));
  Ffs.Cg.check_invariants cg

let test_alloc_block_exhaustion () =
  let cg = fresh () in
  let n = Ffs.Cg.data_blocks cg in
  for _ = 1 to n do
    match Ffs.Cg.alloc_block cg ~pref:None with
    | Some _ -> ()
    | None -> Alcotest.fail "premature exhaustion"
  done;
  check_opt "full group" None (Ffs.Cg.alloc_block cg ~pref:None);
  check_int "zero free" 0 (Ffs.Cg.free_block_count cg);
  Ffs.Cg.check_invariants cg

let test_free_block_roundtrip () =
  let cg = fresh () in
  let b = Option.get (Ffs.Cg.alloc_block cg ~pref:(Some 5)) in
  Ffs.Cg.free_block cg b;
  check_bool "free again" true (Ffs.Cg.block_is_free cg 5);
  check_int "counters restored" (Ffs.Cg.data_blocks cg) (Ffs.Cg.free_block_count cg);
  Ffs.Cg.check_invariants cg

let test_alloc_frags_breaks_block () =
  let cg = fresh () in
  (* empty group: a 3-frag tail breaks a free block and returns the rest *)
  let pos = Option.get (Ffs.Cg.alloc_frags cg ~pref:(Some 0) ~count:3) in
  check_int "at block 0" 0 pos;
  check_bool "block no longer whole" false (Ffs.Cg.block_is_free cg 0);
  check_int "5 frags returned" (Ffs.Cg.data_frags cg - 3) (Ffs.Cg.free_frag_count cg);
  Ffs.Cg.check_invariants cg

let test_alloc_frags_prefers_partial () =
  let cg = fresh () in
  (* create a partial block at 0 with 5 free frags [3..7] *)
  ignore (Ffs.Cg.alloc_frags cg ~pref:(Some 0) ~count:3);
  (* a later request preferring block 50 must still land in the existing
     partial block rather than break a new one *)
  let pos = Option.get (Ffs.Cg.alloc_frags cg ~pref:(Some (50 * fpb)) ~count:4) in
  check_int "fits in the partial block" 3 pos;
  check_int "blocks unchanged" (Ffs.Cg.data_blocks cg - 1) (Ffs.Cg.free_block_count cg);
  Ffs.Cg.check_invariants cg

let test_alloc_frags_no_fit_breaks_new () =
  let cg = fresh () in
  ignore (Ffs.Cg.alloc_frags cg ~pref:(Some 0) ~count:6);
  (* only 2 frags left in the partial block: a 4-frag request breaks a
     fresh block *)
  let pos = Option.get (Ffs.Cg.alloc_frags cg ~pref:(Some 0) ~count:4) in
  check_int "new block broken" fpb pos;
  Ffs.Cg.check_invariants cg

let test_free_frags_merges_block () =
  let cg = fresh () in
  let pos = Option.get (Ffs.Cg.alloc_frags cg ~pref:(Some 0) ~count:5) in
  Ffs.Cg.free_frags cg ~pos ~count:5;
  check_bool "block whole again" true (Ffs.Cg.block_is_free cg 0);
  Ffs.Cg.check_invariants cg

let test_cluster_exact_at_pref () =
  let cg = fresh () in
  check_opt "pref honoured" (Some 40)
    (Ffs.Cg.alloc_cluster cg ~policy:`First_fit ~pref:(Some 40) ~len:7);
  check_int "7 blocks claimed" (Ffs.Cg.data_blocks cg - 7) (Ffs.Cg.free_block_count cg);
  Ffs.Cg.check_invariants cg

let test_cluster_first_fit_scans_forward () =
  let cg = fresh () in
  (* block the preferred run *)
  ignore (Ffs.Cg.alloc_block cg ~pref:(Some 42));
  check_opt "first fit after pref" (Some 43)
    (Ffs.Cg.alloc_cluster cg ~policy:`First_fit ~pref:(Some 40) ~len:5);
  Ffs.Cg.check_invariants cg

let test_cluster_best_fit () =
  let cg = fresh () in
  let nblocks = Ffs.Cg.data_blocks cg in
  (* carve the free space into runs: [0..2] free, [3] used, [4..6] free,
     [7] used, rest used except a huge tail; best fit for len 3 should
     pick an exact 3-run, not the big tail *)
  for b = 8 to nblocks - 100 do
    ignore (Ffs.Cg.alloc_block cg ~pref:(Some b))
  done;
  ignore (Ffs.Cg.alloc_block cg ~pref:(Some 3));
  ignore (Ffs.Cg.alloc_block cg ~pref:(Some 7));
  (* the preference points into the allocated region, so the exact-fit
     fast path cannot trigger; best fit must pick a 3-run over the big
     tail run *)
  check_opt "smallest adequate run" (Some 0)
    (Ffs.Cg.alloc_cluster cg ~policy:`Best_fit ~pref:(Some 8) ~len:3);
  (* whereas a free run exactly at the preference short-circuits *)
  check_opt "exact fit at pref wins" (Some (nblocks - 50))
    (Ffs.Cg.alloc_cluster cg ~policy:`Best_fit ~pref:(Some (nblocks - 50)) ~len:3);
  Ffs.Cg.check_invariants cg

let test_cluster_unavailable () =
  let cg = fresh () in
  let nblocks = Ffs.Cg.data_blocks cg in
  (* poke a hole every 3rd block so no 3-run survives *)
  let b = ref 0 in
  while !b < nblocks do
    ignore (Ffs.Cg.alloc_block cg ~pref:(Some !b));
    b := !b + 3
  done;
  check_opt "no run long enough" None
    (Ffs.Cg.alloc_cluster cg ~policy:`First_fit ~pref:None ~len:3);
  Ffs.Cg.check_invariants cg

let test_free_run_histogram () =
  let cg = fresh () in
  let nblocks = Ffs.Cg.data_blocks cg in
  check_int "longest run = whole group" nblocks (Ffs.Cg.longest_free_run cg);
  let h = Ffs.Cg.free_run_histogram cg ~max:8 in
  check_int "one giant run in last bucket" 1 h.(7);
  ignore (Ffs.Cg.alloc_block cg ~pref:(Some 1));
  let h = Ffs.Cg.free_run_histogram cg ~max:8 in
  check_int "isolated length-1 run" 1 h.(0)

let test_extent_histogram () =
  let cg = fresh () in
  let nblocks = Ffs.Cg.data_blocks cg in
  let total h = Array.fold_left (fun a (_, n) -> a + n) 0 h in
  let count_for h len =
    (* the bucket whose [lo, 2*lo) range holds [len] *)
    let (_, n) =
      Array.to_list h
      |> List.filter (fun (lo, _) -> lo <= len && len < 2 * lo)
      |> List.hd
    in
    n
  in
  let h = Ffs.Cg.extent_histogram cg in
  check_int "fresh group is one extent" 1 (total h);
  check_int "that extent is group-sized" 1 (count_for h nblocks);
  (* splitting the run in the middle leaves two extents in smaller buckets *)
  ignore (Ffs.Cg.alloc_block cg ~pref:(Some (nblocks / 2)));
  let h = Ffs.Cg.extent_histogram cg in
  check_int "split into two extents" 2 (total h);
  check_int "group-sized bucket emptied" 0 (count_for h nblocks);
  (* a fragment allocation removes its block from the free extents too:
     the head extent shrinks by one block, the count stays at two *)
  ignore (Ffs.Cg.alloc_frags cg ~pref:(Some 0) ~count:1);
  let h = Ffs.Cg.extent_histogram cg in
  check_int "partial block is not a free extent" 2 (total h)

let test_inodes () =
  let cg = fresh () in
  check_opt "first inode" (Some 0) (Ffs.Cg.alloc_inode cg);
  check_opt "second inode" (Some 1) (Ffs.Cg.alloc_inode cg);
  Ffs.Cg.free_inode cg 0;
  check_opt "lowest free reused" (Some 0) (Ffs.Cg.alloc_inode cg);
  check_int "dirs" 0 (Ffs.Cg.dirs cg);
  Ffs.Cg.add_dir cg;
  check_int "one dir" 1 (Ffs.Cg.dirs cg);
  Ffs.Cg.remove_dir cg;
  check_int "removed" 0 (Ffs.Cg.dirs cg)

let test_copy_independent () =
  let cg = fresh () in
  let dup = Ffs.Cg.copy cg in
  ignore (Ffs.Cg.alloc_block cg ~pref:(Some 0));
  check_bool "copy untouched" true (Ffs.Cg.block_is_free dup 0);
  check_int "copy counter untouched" (Ffs.Cg.data_blocks dup) (Ffs.Cg.free_block_count dup)

(* random op sequences keep counters consistent with bitmaps *)
let prop_invariants_under_random_ops =
  let open QCheck in
  let op_gen =
    Gen.(
      frequency
        [
          (4, map (fun p -> `Block (Some p)) (int_bound 400));
          (1, return (`Block None));
          (3, map2 (fun p c -> `Frags (p, 1 + (c mod 7))) (int_bound 3000) (int_bound 6));
          (2, map (fun p -> `Cluster (p, 2)) (int_bound 400));
          (2, return `Free_something);
        ])
  in
  Test.make ~name:"cg invariants hold under random alloc/free scripts" ~count:60
    (make Gen.(list_size (int_bound 120) op_gen))
    (fun script ->
      let cg = fresh () in
      let held = ref [] in
      List.iter
        (fun op ->
          match op with
          | `Block pref -> (
              match Ffs.Cg.alloc_block cg ~pref with
              | Some b -> held := (b * fpb, fpb) :: !held
              | None -> ())
          | `Frags (pref, count) -> (
              match Ffs.Cg.alloc_frags cg ~pref:(Some pref) ~count with
              | Some pos -> held := (pos, count) :: !held
              | None -> ())
          | `Cluster (pref, len) -> (
              match Ffs.Cg.alloc_cluster cg ~policy:`First_fit ~pref:(Some pref) ~len with
              | Some b -> held := (b * fpb, len * fpb) :: !held
              | None -> ())
          | `Free_something -> (
              match !held with
              | (pos, count) :: rest ->
                  Ffs.Cg.free_frags cg ~pos ~count;
                  held := rest
              | [] -> ()))
        script;
      Ffs.Cg.check_invariants cg;
      true)

(* shared generator for the allocation-script properties *)
let cg_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun p -> `Block (Some p)) (int_bound 400));
        (1, return (`Block None));
        (3, map2 (fun p c -> `Frags (p, 1 + (c mod 7))) (int_bound 3000) (int_bound 6));
        (2, map (fun p -> `Cluster (p, 2)) (int_bound 400));
        (2, return `Free_something);
      ])

(* run a script, tracking per-fragment ownership externally; [on_alloc]
   sees every run the allocator hands out *)
let run_cg_script ~on_alloc ~on_free script =
  let cg = fresh () in
  let held = ref [] in
  List.iter
    (fun op ->
      let got =
        match op with
        | `Block pref -> Option.map (fun b -> (b * fpb, fpb)) (Ffs.Cg.alloc_block cg ~pref)
        | `Frags (pref, count) ->
            Option.map (fun pos -> (pos, count)) (Ffs.Cg.alloc_frags cg ~pref:(Some pref) ~count)
        | `Cluster (pref, len) ->
            Option.map
              (fun b -> (b * fpb, len * fpb))
              (Ffs.Cg.alloc_cluster cg ~policy:`First_fit ~pref:(Some pref) ~len)
        | `Free_something -> None
      in
      match (op, got) with
      | `Free_something, _ -> (
          match !held with
          | (pos, count) :: rest ->
              Ffs.Cg.free_frags cg ~pos ~count;
              on_free cg ~pos ~count;
              held := rest
          | [] -> ())
      | _, Some (pos, count) ->
          on_alloc cg ~pos ~count;
          held := (pos, count) :: !held
      | _, None -> ())
    script;
  cg

(* every fragment the allocator returns must be one it did not already
   hand out: no double-claims, and the free-fragment counter always
   equals capacity minus what we hold *)
let prop_alloc_never_double_claims =
  let open QCheck in
  Test.make ~name:"cg allocation never double-claims a fragment" ~count:60
    (make Gen.(list_size (int_bound 120) cg_op_gen))
    (fun script ->
      let owned = Array.make (Ffs.Cg.data_frags (fresh ())) false in
      let owned_count = ref 0 in
      let ok = ref true in
      let cg =
        run_cg_script script
          ~on_alloc:(fun cg ~pos ~count ->
            for f = pos to pos + count - 1 do
              if owned.(f) then ok := false;
              if Ffs.Cg.frag_is_free cg f then ok := false;
              owned.(f) <- true;
              incr owned_count
            done)
          ~on_free:(fun _cg ~pos ~count ->
            for f = pos to pos + count - 1 do
              if not owned.(f) then ok := false;
              owned.(f) <- false;
              decr owned_count
            done)
      in
      !ok && Ffs.Cg.free_frag_count cg = Ffs.Cg.data_frags cg - !owned_count)

(* the cluster summary (free-block count, longest run, run histogram)
   must agree with a naive scan of the block bitmap *)
let prop_cluster_summary_consistent =
  let open QCheck in
  Test.make ~name:"cg cluster summary agrees with a naive block scan" ~count:60
    (make Gen.(list_size (int_bound 120) cg_op_gen))
    (fun script ->
      let cg =
        run_cg_script script ~on_alloc:(fun _ ~pos:_ ~count:_ -> ())
          ~on_free:(fun _ ~pos:_ ~count:_ -> ())
      in
      let nblocks = Ffs.Cg.data_blocks cg in
      (* collect maximal free runs from the public per-block view *)
      let runs = ref [] in
      let current = ref 0 in
      for b = 0 to nblocks - 1 do
        if Ffs.Cg.block_is_free cg b then incr current
        else if !current > 0 then begin
          runs := !current :: !runs;
          current := 0
        end
      done;
      if !current > 0 then runs := !current :: !runs;
      let free_blocks = List.fold_left ( + ) 0 !runs in
      let longest = List.fold_left max 0 !runs in
      let max_bucket = 8 in
      let hist = Array.make max_bucket 0 in
      List.iter
        (fun len -> hist.(min len max_bucket - 1) <- hist.(min len max_bucket - 1) + 1)
        !runs;
      Ffs.Cg.free_block_count cg = free_blocks
      && Ffs.Cg.longest_free_run cg = longest
      && Ffs.Cg.free_run_histogram cg ~max:max_bucket = hist)

(* Block-aligned and fragment-level claims and frees, mixed at random:
   after every step the index must audit clean and its run statistics
   must equal those of the same group rebuilt from its portable form
   (bitmaps only, index derived afresh). *)
let range_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun b len -> `Claim_blocks (b, 1 + len)) (int_bound 500) (int_bound 40));
        (3, map2 (fun f c -> `Claim_frags (f, 1 + c)) (int_bound 4000) (int_bound 20));
        (4, map (fun i -> `Free i) (int_bound 1000));
      ])

let rebuilt cg =
  let p = Ffs.Cg.to_portable cg in
  let regions = Ffs.Store.Layout.of_params params in
  let store =
    Ffs.Store.heap ~length:regions.Ffs.Store.Layout.region_bytes
      ~chunk_bytes:regions.Ffs.Store.Layout.region_bytes
  in
  Ffs.Cg.of_portable_into ~store ~base:0 params p

let prop_range_updates_match_rebuild =
  let open QCheck in
  Test.make ~name:"range claims/frees keep the index equal to a rebuild" ~count:40
    (make Gen.(list_size (int_bound 80) range_op_gen))
    (fun script ->
      let cg = fresh () in
      let nfrags = Ffs.Cg.data_frags cg in
      let held = ref [] in
      (* claim [pos ..+ count] if every fragment of it is free *)
      let claim pos count =
        let pos = pos mod nfrags in
        let count = min count (nfrags - pos) in
        let free = ref true in
        for f = pos to pos + count - 1 do
          if not (Ffs.Cg.frag_is_free cg f) then free := false
        done;
        if !free then begin
          Ffs.Cg.mark_frags_used cg ~pos ~count;
          held := (pos, count) :: !held
        end
      in
      List.for_all
        (fun op ->
          (match op with
          | `Claim_blocks (b, len) -> claim (b * fpb) (len * fpb)
          | `Claim_frags (f, c) -> claim f c
          | `Free i -> (
              match !held with
              | [] -> ()
              | l ->
                  let k = i mod List.length l in
                  let pos, count = List.nth l k in
                  Ffs.Cg.free_frags cg ~pos ~count;
                  held := List.filteri (fun j _ -> j <> k) l));
          let twin = rebuilt cg in
          Ffs.Cg.audit_index cg = []
          && Ffs.Cg.free_run_histogram cg ~max:64 = Ffs.Cg.free_run_histogram twin ~max:64
          && Ffs.Cg.extent_histogram cg = Ffs.Cg.extent_histogram twin
          && Ffs.Cg.longest_free_run cg = Ffs.Cg.longest_free_run twin)
        script)

(* Minor words allocated by [f], net of the measurement's own. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  f ();
  let w2 = Gc.minor_words () in
  int_of_float (w2 -. w1 -. (w1 -. w0))

(* The per-block allocate/free pair is closure-free: in native code a
   preference-hit [alloc_block] plus its [free_block] allocates only
   the returned option. *)
let test_pref_hit_pair_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let cg = fresh () in
    (* a fragmented neighbourhood, so the pair splits and merges runs *)
    List.iter (fun b -> ignore (Ffs.Cg.alloc_block cg ~pref:(Some b))) [ 10; 12; 14 ];
    let pair () =
      match Ffs.Cg.alloc_block cg ~pref:(Some 13) with
      | Some b -> Ffs.Cg.free_block cg b
      | None -> Alcotest.fail "pref 13 should be free"
    in
    pair ();
    let words = minor_words pair in
    if words > 8 then Alcotest.failf "pref-hit alloc+free allocated %d minor words" words;
    Ffs.Cg.check_invariants cg
  end

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cg"
    [
      ( "blocks",
        [
          tc "initial state" test_initial_state;
          tc "pref exact" test_alloc_block_pref_exact;
          tc "cylinder scatter" test_alloc_block_cylinder_scatter;
          tc "exhaustion" test_alloc_block_exhaustion;
          tc "free roundtrip" test_free_block_roundtrip;
          tc "pref-hit pair allocation" test_pref_hit_pair_allocation;
        ] );
      ( "fragments",
        [
          tc "breaks a block" test_alloc_frags_breaks_block;
          tc "prefers partial blocks" test_alloc_frags_prefers_partial;
          tc "no fit breaks new" test_alloc_frags_no_fit_breaks_new;
          tc "free merges" test_free_frags_merges_block;
        ] );
      ( "clusters",
        [
          tc "exact at pref" test_cluster_exact_at_pref;
          tc "first fit forward" test_cluster_first_fit_scans_forward;
          tc "best fit" test_cluster_best_fit;
          tc "unavailable" test_cluster_unavailable;
          tc "free run histogram" test_free_run_histogram;
          tc "extent histogram" test_extent_histogram;
        ] );
      ( "inodes/misc",
        [ tc "inodes" test_inodes; tc "copy" test_copy_independent ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_invariants_under_random_ops;
          QCheck_alcotest.to_alcotest prop_alloc_never_double_claims;
          QCheck_alcotest.to_alcotest prop_cluster_summary_consistent;
          QCheck_alcotest.to_alcotest prop_range_updates_match_rebuild;
        ] );
    ]
