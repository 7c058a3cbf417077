module Fs = Ffs.Fs
module Inode = Ffs.Inode
module Params = Ffs.Params
module Cg = Ffs.Cg

type event =
  | Duplicated_claim of { victim : int; thief : int; addr : int; frags : int }
  | Dropped_claim of { inum : int; addr : int; frags : int }
  | Forgot_inode of { inum : int }
  | Orphaned of { inum : int; dir : int; name : string }
  | Dangled of { dir : int; name : string; inum : int }
  | Cleared_bitmap_bit of { fragment : int }
  | Set_bitmap_bit of { fragment : int }
  | Corrupted_run of { inum : int; addr : int; frags : int }
  | Zeroed_counters of { cg : int }

(* deterministically sorted victim pools; recomputed per injection
   because earlier faults change the image *)

let file_inums fs =
  Fs.fold_files fs ~init:[] ~f:(fun acc ino -> ino.Inode.inum :: acc) |> List.sort compare

let files_with_entries fs =
  Fs.fold_files fs ~init:[] ~f:(fun acc ino ->
      if Array.length ino.Inode.entries > 0 then ino.Inode.inum :: acc else acc)
  |> List.sort compare

let pick rng = function
  | [] -> None
  | xs -> Some (List.nth xs (Util.Prng.int rng (List.length xs)))

let pick_valid_run fs rng =
  match pick rng (files_with_entries fs) with
  | None -> None
  | Some inum ->
      let ino = Fs.inode fs inum in
      (* earlier faults may already have planted bogus runs; never
         build on those *)
      let valid = Ffs.Check.run_in_data_area fs in
      Array.to_list ino.Inode.entries
      |> List.filter (fun e -> valid (Inode.addr e) (Inode.frags e))
      |> pick rng
      |> Option.map (fun e -> (inum, ino, e))

let duplicate_claim fs ~rng =
  match pick_valid_run fs rng with
  | None -> None
  | Some (victim, _, e) -> (
      match pick rng (List.filter (fun i -> i <> victim) (file_inums fs)) with
      | None -> None
      | Some thief ->
          let tho = Fs.inode fs thief in
          Fs.set_entries fs tho (Array.append tho.Inode.entries [| e |]);
          Some
            (Duplicated_claim
               { victim; thief; addr = Inode.addr e; frags = Inode.frags e }))

let drop_claim fs ~rng =
  match pick rng (files_with_entries fs) with
  | None -> None
  | Some inum ->
      let ino = Fs.inode fs inum in
      let n = Array.length ino.Inode.entries in
      let victim = Util.Prng.int rng n in
      let e = ino.Inode.entries.(victim) in
      Fs.set_entries fs ino
        (Array.init (n - 1) (fun i -> ino.Inode.entries.(if i < victim then i else i + 1)));
      Some (Dropped_claim { inum; addr = Inode.addr e; frags = Inode.frags e })

let forget_inode fs ~rng =
  match pick rng (file_inums fs) with
  | None -> None
  | Some inum ->
      Fs.forget_inode_exn fs inum;
      Some (Forgot_inode { inum })

let orphan_candidates fs =
  List.filter_map
    (fun inum ->
      match Fs.parent fs inum with
      | Some (dir, name) when Fs.lookup fs ~dir ~name = Some inum -> Some (inum, dir, name)
      | _ -> None)
    (file_inums fs)

let orphan_file fs ~rng =
  match pick rng (orphan_candidates fs) with
  | None -> None
  | Some (inum, dir, name) ->
      Fs.detach_entry_exn fs ~dir ~name;
      Some (Orphaned { inum; dir; name })

let dangling_entry fs ~rng =
  match pick rng (List.sort compare (Fs.dir_inums fs)) with
  | None -> None
  | Some dir ->
      let params = Fs.params fs in
      let n_inums = params.Params.ncg * Params.inodes_per_group params in
      let start = Util.Prng.int rng n_inums in
      let rec dead i =
        if i >= n_inums then None
        else begin
          let inum = (start + i) mod n_inums in
          match Fs.inode fs inum with _ -> dead (i + 1) | exception Not_found -> Some inum
        end
      in
      (match dead 0 with
      | None -> None
      | Some inum ->
          let rec fresh k =
            let name = if k = 0 then Fmt.str "dangling%d" inum else Fmt.str "dangling%d.%d" inum k in
            if Fs.lookup fs ~dir ~name = None then name else fresh (k + 1)
          in
          let name = fresh 0 in
          Fs.attach_entry_exn fs ~dir ~name ~inum;
          Some (Dangled { dir; name; inum }))

let clear_bitmap_bit fs ~rng =
  match pick_valid_run fs rng with
  | None -> None
  | Some (_, _, e) ->
      let fragment = Inode.addr e + Util.Prng.int rng (Inode.frags e) in
      let params = Fs.params fs in
      let cg = Params.group_of_frag params fragment in
      let local = fragment - Params.data_base params cg in
      Cg.corrupt_clear_frag (Fs.cg_states fs).(cg) local;
      Some (Cleared_bitmap_bit { fragment })

let set_bitmap_bit fs ~rng =
  let params = Fs.params fs in
  let cgs = Fs.cg_states fs in
  let ncg = params.Params.ncg in
  let start_cg = Util.Prng.int rng ncg in
  let rec in_group g tries =
    if tries >= ncg then None
    else begin
      let cg = cgs.((start_cg + g) mod ncg) in
      let n = Cg.data_frags cg in
      let start = Util.Prng.int rng n in
      let rec scan i =
        if i >= n then None
        else begin
          let f = (start + i) mod n in
          if Cg.frag_is_free cg f then Some ((start_cg + g) mod ncg, f) else scan (i + 1)
        end
      in
      match scan 0 with Some hit -> Some hit | None -> in_group (g + 1) (tries + 1)
    end
  in
  match in_group 0 0 with
  | None -> None
  | Some (cg_index, local) ->
      (* a crash between the allocation's bitmap-and-counter write and
         the inode write: the fragment is gone from the free pool but no
         file claims it *)
      let cg = cgs.(cg_index) in
      Cg.corrupt_set_frag cg local;
      Cg.corrupt_counters cg ~nffree:(Cg.free_frag_count cg - 1)
        ~nbfree:(Cg.free_block_count cg);
      Some (Set_bitmap_bit { fragment = Params.data_base params cg_index + local })

let bad_run fs ~rng =
  match pick rng (file_inums fs) with
  | None -> None
  | Some inum ->
      let params = Fs.params fs in
      let frags = 1 + Util.Prng.int rng params.Params.frags_per_block in
      let addr =
        if Util.Prng.bool rng then -(1 + Util.Prng.int rng 1000)
        else Params.total_frags params + Util.Prng.int rng 1000
      in
      let ino = Fs.inode fs inum in
      Fs.set_entries fs ino (Array.append ino.Inode.entries [| Inode.entry ~addr ~frags |]);
      Some (Corrupted_run { inum; addr; frags })

let zero_counters fs ~rng =
  let params = Fs.params fs in
  let cg = Util.Prng.int rng params.Params.ncg in
  Cg.corrupt_counters (Fs.cg_states fs).(cg) ~nffree:0 ~nbfree:0;
  Some (Zeroed_counters { cg })

let apply fs ~rng spec =
  let events = ref [] in
  let inject n cls injector =
    for _ = 1 to n do
      match injector fs ~rng with
      | Some e ->
          Obs.Metrics.inc Obs.Metrics.default ~labels:[ ("class", cls) ] "fault_injected_total";
          if Obs.Trace.enabled () then
            Obs.Trace.event "fault.inject" [ Obs.Trace.s "class" cls ];
          events := e :: !events
      | None -> ()
    done
  in
  (* structure-level faults (which may still allocate) strictly before
     bitmap and counter corruption; see the interface for the rationale *)
  inject spec.Plan.duplicate_claims "duplicate_claim" duplicate_claim;
  inject spec.Plan.drop_claims "drop_claim" drop_claim;
  inject spec.Plan.forget_inodes "forget_inode" forget_inode;
  inject spec.Plan.orphan_files "orphan_file" orphan_file;
  inject spec.Plan.dangling_entries "dangling_entry" dangling_entry;
  inject spec.Plan.clear_bitmap_bits "clear_bitmap_bit" clear_bitmap_bit;
  inject spec.Plan.set_bitmap_bits "set_bitmap_bit" set_bitmap_bit;
  inject spec.Plan.bad_runs "bad_run" bad_run;
  inject spec.Plan.zero_counter_groups "zero_counters" zero_counters;
  List.rev !events

let pp_event ppf = function
  | Duplicated_claim { victim; thief; addr; frags } ->
      Fmt.pf ppf "inode %d stole inode %d's run (addr %d, %d frags)" thief victim addr frags
  | Dropped_claim { inum; addr; frags } ->
      Fmt.pf ppf "inode %d lost its run at addr %d (%d frags leaked)" inum addr frags
  | Forgot_inode { inum } -> Fmt.pf ppf "inode %d vanished from the inode table" inum
  | Orphaned { inum; dir; name } ->
      Fmt.pf ppf "entry %S for inode %d vanished from directory %d" name inum dir
  | Dangled { dir; name; inum } ->
      Fmt.pf ppf "directory %d gained entry %S naming dead inode %d" dir name inum
  | Cleared_bitmap_bit { fragment } ->
      Fmt.pf ppf "bitmap bit for claimed fragment %d cleared" fragment
  | Set_bitmap_bit { fragment } ->
      Fmt.pf ppf "bitmap bit for free fragment %d set" fragment
  | Corrupted_run { inum; addr; frags } ->
      Fmt.pf ppf "inode %d gained bogus run (addr %d, %d frags)" inum addr frags
  | Zeroed_counters { cg } -> Fmt.pf ppf "group %d free counters zeroed" cg
