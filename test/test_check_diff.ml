(* The fsck oracle behind the shared claim table. [Reference] keeps the
   audit and the orphan victim search as they were written before
   [Check] had one claim table: [run] builds its own per-fragment
   [Hashtbl] claim map, and [orphan_candidates] finds each file's name
   by scanning its parent directory's entries. The properties replay
   random fault plans through both and require the same events, the
   same problems (the reference lists [Claim_not_allocated] in
   [Hashtbl] bucket order; [Check.run] in ascending fragment order),
   the same repair logs and the same repaired images. *)

let check_bool = Alcotest.(check bool)

module Reference = struct
  open Ffs
  open Ffs.Check

  let run fs =
    let params = Fs.params fs in
    let problems = ref [] in
    let add p = problems := p :: !problems in
    let fpb = params.Params.frags_per_block in
    let total_frags = Params.total_frags params in
    (* 1: collect every fragment claim, flagging overlaps and range errors *)
    let owner : (int, int) Hashtbl.t = Hashtbl.create 4096 in
    let files = ref 0 and directories = ref 0 in
    let claim inum addr frags =
      if addr < 0 || frags <= 0 || addr + frags > total_frags then
        add (Bad_run { inum; addr; frags })
      else
        for a = addr to addr + frags - 1 do
          match Hashtbl.find_opt owner a with
          | Some first_owner ->
              add (Double_claim { fragment = a; first_owner; second_owner = inum })
          | None -> Hashtbl.replace owner a inum
        done
    in
    Fs.iter_all_inodes fs (fun ino ->
        (match ino.Inode.kind with
        | Inode.File -> incr files
        | Inode.Dir -> incr directories);
        Array.iter (fun e -> claim ino.Inode.inum (Inode.addr e) (Inode.frags e)) ino.Inode.entries;
        Array.iter (fun a -> claim ino.Inode.inum a fpb) ino.Inode.indirect_addrs);
    (* 2: every claim must be marked allocated in its group's bitmap *)
    let cgs = Fs.cg_states fs in
    Hashtbl.iter
      (fun fragment inum ->
        let cg = Params.group_of_frag params fragment in
        let local = fragment - Params.data_base params cg in
        if local < 0 || local >= Cg.data_frags cgs.(cg) then
          add (Bad_run { inum; addr = fragment; frags = 1 })
        else if Cg.frag_is_free cgs.(cg) local then
          add (Claim_not_allocated { fragment; owner = inum }))
      owner;
    (* 3: totals — leaked fragments show up here (allocated, unowned) *)
    let claimed = Hashtbl.length owner in
    let allocated = Fs.used_data_frags fs in
    if claimed <> allocated then add (Usage_mismatch { claimed; allocated });
    (* 4: per-group counters vs. a bitmap recount *)
    Array.iteri
      (fun cg_index cg ->
        let free_frag_recount = ref 0 and free_block_recount = ref 0 in
        for f = 0 to Cg.data_frags cg - 1 do
          if Cg.frag_is_free cg f then incr free_frag_recount
        done;
        for b = 0 to Cg.data_blocks cg - 1 do
          if Cg.block_is_free cg b then incr free_block_recount
        done;
        if !free_frag_recount <> Cg.free_frag_count cg then
          add
            (Group_counter_mismatch
               { cg = cg_index; what = "free fragments"; counter = Cg.free_frag_count cg;
                 recount = !free_frag_recount });
        if !free_block_recount <> Cg.free_block_count cg then
          add
            (Group_counter_mismatch
               { cg = cg_index; what = "free blocks"; counter = Cg.free_block_count cg;
                 recount = !free_block_recount }))
      cgs;
    (* 4a: the layout counters vs. a recount of the inode table *)
    for cg = 0 to params.Params.ncg - 1 do
      let optimal, counted = Fs.group_layout_counts fs cg in
      let optimal', counted' = Fs.group_layout_recount fs cg in
      let mismatch what counter recount =
        if counter <> recount then add (Layout_counter_mismatch { cg; what; counter; recount })
      in
      mismatch "optimal links" optimal optimal';
      mismatch "counted links" counted counted'
    done;
    (* 4b: the inode bitmap vs. the inode table, bit by bit.  A live
       inode whose bit reads free is the data-loss precursor — the next
       allocation of that slot would silently overwrite the file — and
       device corruption (bit rot, a torn region tail) is exactly how
       such bits change behind the counters' back.  Counters are audited
       too, but bit-level: opposite flips in one group cancel in any
       count. *)
    let ipg = Params.inodes_per_group params in
    Array.iteri
      (fun cg_index cg ->
        let free_inode_recount = ref 0 in
        for slot = 0 to ipg - 1 do
          let bit_free = Cg.inode_is_free cg slot in
          if bit_free then incr free_inode_recount;
          let live =
            match Fs.inode fs ((cg_index * ipg) + slot) with
            | _ -> true
            | exception Not_found -> false
          in
          if live = bit_free then
            add (Inode_bitmap_mismatch { cg = cg_index; slot; live })
        done;
        if !free_inode_recount <> Cg.inodes_free cg then
          add
            (Group_counter_mismatch
               { cg = cg_index; what = "free inodes"; counter = Cg.inodes_free cg;
                 recount = !free_inode_recount }))
      cgs;
    (* 5: directory tree — every inode referenced, every entry resolvable *)
    let referenced : (int, unit) Hashtbl.t = Hashtbl.create 4096 in
    Hashtbl.replace referenced (Fs.root fs) ();
    List.iter
      (fun dir ->
        List.iter
          (fun (name, inum) ->
            (match Fs.inode fs inum with
            | _ -> ()
            | exception Not_found -> add (Dangling_entry { dir; name; inum }));
            Hashtbl.replace referenced inum ())
          (Fs.dir_entries fs dir))
      (Fs.dir_inums fs);
    Fs.iter_all_inodes fs (fun ino ->
        if not (Hashtbl.mem referenced ino.Inode.inum) then
          add (Orphan_inode { inum = ino.Inode.inum }));
    (* 6: the derived extent index, run summary included, must agree with
       the bitmaps it summarises *)
    Array.iteri
      (fun cg_index cg ->
        List.iter (fun what -> add (Index_mismatch { cg = cg_index; what }))
          (Cg.audit_index cg))
      cgs;
    {
      problems = List.rev !problems;
      files = !files;
      directories = !directories;
      fragments_claimed = claimed;
    }

  let orphan_candidates fs =
    let referenced inum =
      match Fs.dir_of_inum fs inum with
      | dir -> (
          match List.find_opt (fun (_, i) -> i = inum) (Fs.dir_entries fs dir) with
          | Some (name, _) -> Some (dir, name)
          | None -> None)
      | exception Not_found -> None
    in
    Fs.fold_files fs ~init:[] ~f:(fun acc ino -> ino.Inode.inum :: acc)
    |> List.sort compare
    |> List.filter_map (fun inum ->
           Option.map (fun (dir, name) -> (inum, dir, name)) (referenced inum))
end

(* The plan through the public injectors in [Fault.Inject.apply]'s class
   order, with every orphan victim list checked against the reference
   search on the image as it stands. *)
let apply_checked fs ~rng spec =
  let events = ref [] in
  let inject n injector =
    for _ = 1 to n do
      Option.iter (fun e -> events := e :: !events) (injector fs ~rng)
    done
  in
  let orphan fs ~rng =
    let want = Reference.orphan_candidates fs in
    if Fault.Inject.orphan_candidates fs <> want then
      QCheck.Test.fail_reportf "orphan candidates differ (%d reference)" (List.length want);
    Fault.Inject.orphan_file fs ~rng
  in
  let open Fault.Plan in
  inject spec.duplicate_claims Fault.Inject.duplicate_claim;
  inject spec.drop_claims Fault.Inject.drop_claim;
  inject spec.forget_inodes Fault.Inject.forget_inode;
  inject spec.orphan_files orphan;
  inject spec.dangling_entries Fault.Inject.dangling_entry;
  inject spec.clear_bitmap_bits Fault.Inject.clear_bitmap_bit;
  inject spec.set_bitmap_bits Fault.Inject.set_bitmap_bit;
  inject spec.bad_runs Fault.Inject.bad_run;
  inject spec.zero_counter_groups Fault.Inject.zero_counters;
  List.rev !events

(* [problems] with its [Claim_not_allocated] block in ascending fragment
   order, every other problem where it stands *)
let in_fragment_order problems =
  let unallocated = function Ffs.Check.Claim_not_allocated _ -> true | _ -> false in
  let rec merge ps sorted =
    match (ps, sorted) with
    | p :: ps, s :: sorted when unallocated p -> s :: merge ps sorted
    | p :: ps, _ -> p :: merge ps sorted
    | [], _ -> []
  in
  merge problems (List.sort compare (List.filter unallocated problems))

(* One plan on [base]: injected by [Fault.Inject.apply] into one copy and
   by [apply_checked] into another, then audited and repaired on both. *)
let agrees base ~seed ~intensity =
  let spec = Fault.Plan.gen ~rng:(Util.Prng.create ~seed) ~intensity in
  let fs = Ffs.Fs.copy base and ref_fs = Ffs.Fs.copy base in
  let events = Fault.Inject.apply fs ~rng:(Util.Prng.create ~seed) spec in
  if apply_checked ref_fs ~rng:(Util.Prng.create ~seed) spec <> events then
    QCheck.Test.fail_report "injected events differ";
  let got = Ffs.Check.run fs and want = Reference.run ref_fs in
  if got.Ffs.Check.problems <> in_fragment_order want.Ffs.Check.problems then
    QCheck.Test.fail_reportf "problems differ:@.%a@.reference:@.%a" Ffs.Check.pp got
      Ffs.Check.pp want;
  if { got with problems = [] } <> { want with problems = [] } then
    QCheck.Test.fail_report "report totals differ";
  if Ffs.Check.repair_exn fs <> Ffs.Check.repair_exn ref_fs then
    QCheck.Test.fail_report "repair logs differ";
  if Ffs.Fs.digest fs <> Ffs.Fs.digest ref_fs then
    QCheck.Test.fail_report "repaired images differ";
  spec

let small_params = Ffs.Params.small_test_fs

(* two 10-day small images, one per allocator *)
let small_images =
  lazy
    (let days = 10 in
     let profile =
       { (Workload.Ground_truth.scaled small_params ~days) with Workload.Ground_truth.seed = 4242 }
     in
     let ops = (Workload.Ground_truth.generate small_params profile).Workload.Ground_truth.ops in
     Array.map
       (fun config -> (Aging.Replay.run ~config ~params:small_params ~days ops).Aging.Replay.fs)
       [| Ffs.Fs.default_config; Ffs.Fs.realloc_config |])

let prop_small =
  QCheck.Test.make ~name:"small aged images: audit, repair and victims match the reference"
    ~count:60
    QCheck.(triple bool small_int (int_range 1 16))
    (fun (realloc, seed, intensity) ->
      let images = Lazy.force small_images in
      ignore (agrees images.(if realloc then 1 else 0) ~seed ~intensity);
      true)

(* The 30-day paper image (test_cg_diff's paper pins, traditional
   allocator) under one plan that orphans a file. *)
let test_paper_plan () =
  let params = Ffs.Params.paper_fs and days = 30 in
  let profile =
    { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed = 960117 }
  in
  let ops =
    Workload.Reconstruct.of_ground_truth params (Workload.Ground_truth.generate params profile)
  in
  let fs = (Aging.Replay.run ~params ~days ops).Aging.Replay.fs in
  let spec = agrees fs ~seed:6 ~intensity:6 in
  check_bool "the plan orphans a file" true (spec.Fault.Plan.orphan_files > 0)

let () =
  Alcotest.run "check_diff"
    [
      ( "reference",
        [
          QCheck_alcotest.to_alcotest prop_small;
          Alcotest.test_case "30-day paper image, one plan" `Slow test_paper_plan;
        ] );
    ]
