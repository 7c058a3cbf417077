(* Allocator comparison under a microscope: carve the free space into a
   sieve of one-block holes, then watch exactly which blocks each
   allocator hands to a new 6-block file.

   This is the paper's Section 2 criticism made concrete: the
   traditional allocator takes "just one free block in a good location"
   even when "a cluster of ten free blocks in a slightly worse location"
   exists; the realloc pass fixes the choice before the data reaches the
   disk.

   Run with:  dune exec examples/allocator_comparison.exe *)

let block_of params addr = (addr - Ffs.Params.data_base params 1) / params.Ffs.Params.frags_per_block

let demo ~name ~config =
  let params = Ffs.Params.small_test_fs in
  let fs = Ffs.Fs.create ~config params in
  let dir = Ffs.Fs.mkdir_in_cg_exn fs ~parent:(Ffs.Fs.root fs) ~name:"d" ~cg:1 in
  (* 40 single-block files, then delete every other one: a sieve of
     one-block holes at the front of the group, with a large free
     cluster beyond it *)
  let victims = ref [] in
  for i = 0 to 39 do
    let inum =
      Ffs.Fs.create_file_exn fs ~dir ~name:(Fmt.str "s%02d" i)
        ~size:params.Ffs.Params.block_bytes
    in
    if i mod 2 = 0 then victims := inum :: !victims
  done;
  List.iter (Ffs.Fs.delete_inum_exn fs) !victims;
  Fmt.pr "%s:@." name;
  Fmt.pr "  free space: 20 isolated one-block holes, then a large free cluster@.";
  let inum =
    Ffs.Fs.create_file_exn fs ~dir ~name:"big" ~size:(6 * params.Ffs.Params.block_bytes)
  in
  let ino = Ffs.Fs.inode fs inum in
  let blocks =
    Array.to_list (Array.map (fun e -> block_of params (Ffs.Inode.addr e)) ino.Ffs.Inode.entries)
  in
  Fmt.pr "  6-block file landed on blocks: %a@."
    Fmt.(list ~sep:(any ", ") int)
    blocks;
  (match Aging.Layout_score.file_score ino with
  | Some s -> Fmt.pr "  layout score: %.2f@." s
  | None -> ());
  (* what did that choice cost? time a read *)
  let drive = Disk.Drive.create (Disk.Drive.paper_config ()) in
  let engine = Ffs.Io_engine.create ~fs ~drive () in
  let elapsed =
    Ffs.Io_engine.elapsed_of engine (fun () -> Ffs.Io_engine.read_file engine ~inum)
  in
  Fmt.pr "  sequential read of the file: %.1f ms@.@." (elapsed *. 1000.0)

let () =
  demo ~name:"Traditional FFS (one block at a time, nearest free)"
    ~config:Ffs.Fs.default_config;
  demo ~name:"FFS + realloc (cluster reallocation before write-back)"
    ~config:Ffs.Fs.realloc_config;
  print_endline
    "The traditional allocator fills the nearby holes and fragments the file;\n\
     the realloc pass gathers the dirty blocks and moves them into the free\n\
     cluster, trading a slightly worse position for contiguity."
