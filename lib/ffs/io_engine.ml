type metadata_mode = Synchronous | Soft_updates

(* block-address tables, hashed and compared as ints; [Int.hash] equals
   [Hashtbl.hash], so the soft-update flush walks [dirty_meta] in the
   generic table's order *)
module Addrs = Hashtbl.Make (Int)

type t = {
  fs : Fs.t;
  drive : Disk.Drive.t;
  host_gap : float;
  metadata : metadata_mode;
  mutable clock : float;
  meta_cached : unit Addrs.t;
  dirty_meta : int Addrs.t;
      (* soft updates: metadata blocks with a pending delayed write
         (addr -> frags) *)
}

let create ~fs ~drive ?(host_gap = 0.7e-3) ?(metadata = Synchronous) () =
  {
    fs;
    drive;
    host_gap;
    metadata;
    clock = 0.0;
    meta_cached = Addrs.create 256;
    dirty_meta = Addrs.create 64;
  }

let fs t = t.fs
let clock t = t.clock

let reset t =
  t.clock <- 0.0;
  Disk.Drive.reset t.drive;
  Addrs.reset t.meta_cached;
  Addrs.reset t.dirty_meta

let sector_bytes t =
  (Disk.Drive.config t.drive).Disk.Drive.geometry.Disk.Geometry.sector_bytes

let spf t = Params.sectors_per_frag (Fs.params t.fs) ~sector_bytes:(sector_bytes t)

(* Issue one request for [frags] fragments at fragment address [addr];
   splits at the drive's transfer cap (FFS clusters are already below
   it, but metadata walks can be arbitrary). *)
let request t op ~addr ~frags =
  let params = Fs.params t.fs in
  let spf = spf t in
  let cap = Disk.Drive.max_transfer_sectors t.drive in
  let rec go lba sectors =
    if sectors > 0 then begin
      let n = min cap sectors in
      t.clock <- Disk.Drive.service t.drive ~now:(t.clock +. t.host_gap) op ~lba ~nsectors:n;
      go (lba + n) (sectors - n)
    end
  in
  go (Params.lba_of_frag params ~sector_bytes:(sector_bytes t) addr) (frags * spf)

let read_block t ~addr ~frags = request t Disk.Drive.Read ~addr ~frags
let write_block t ~addr ~frags = request t Disk.Drive.Write ~addr ~frags

(* Read a metadata block through the cache. *)
let meta_read t ~addr ~frags =
  if not (Addrs.mem t.meta_cached addr) then begin
    read_block t ~addr ~frags;
    Addrs.replace t.meta_cached addr ()
  end

(* A metadata update. Synchronously, every update is a disk write before
   the operation completes. Under soft updates a dirty metadata block is
   only written when a *different* block needs to go dirty in its place
   (modelling the aggregation window): re-dirtying the same inode or
   directory block is free. *)
let meta_write t ~addr ~frags =
  (match t.metadata with
  | Synchronous -> write_block t ~addr ~frags
  | Soft_updates ->
      if not (Addrs.mem t.dirty_meta addr) then begin
        if Addrs.length t.dirty_meta >= 8 then begin
          (* flush the oldest dirty blocks to bound the window *)
          Addrs.iter (fun a f -> write_block t ~addr:a ~frags:f) t.dirty_meta;
          Addrs.reset t.dirty_meta
        end;
        Addrs.replace t.dirty_meta addr frags
      end);
  Addrs.replace t.meta_cached addr ()

let fpb t = (Fs.params t.fs).Params.frags_per_block

(* The I/O plan of a file: data extents coalesced up to the cluster
   limit, with indirect-block fetches interposed at range boundaries. *)
type step = Data of { addr : int; frags : int } | Indirect of int

let io_plan t ino =
  let params = Fs.params t.fs in
  let fpb = params.Params.frags_per_block in
  (* the kernel's cluster I/O builds transfers up to the controller's
     limit (64 KB here), which exceeds the 7-block allocation cluster *)
  let cluster_frags = Disk.Drive.max_transfer_sectors t.drive / spf t in
  let steps = Util.Vec.create () in
  let flush_extent addr frags = if frags > 0 then Util.Vec.push steps (Data { addr; frags }) in
  let cur_addr = ref (-1) in
  let cur_frags = ref 0 in
  let lbn = ref 0 in
  let next_indirect = ref 0 in
  Array.iter
    (fun (e : Inode.entry) ->
      (* indirect blocks interpose at the range boundaries *)
      if
        !lbn >= params.Params.ndaddr
        && (!lbn - params.Params.ndaddr) mod params.Params.nindir = 0
        && !next_indirect < Array.length ino.Inode.indirect_addrs
      then begin
        flush_extent !cur_addr !cur_frags;
        cur_frags := 0;
        let count = if !lbn = params.Params.ndaddr + params.Params.nindir then 2 else 1 in
        for _ = 1 to count do
          if !next_indirect < Array.length ino.Inode.indirect_addrs then begin
            Util.Vec.push steps (Indirect ino.Inode.indirect_addrs.(!next_indirect));
            incr next_indirect
          end
        done
      end;
      let contiguous = !cur_frags > 0 && Inode.addr e = !cur_addr + !cur_frags in
      if contiguous && !cur_frags + Inode.frags e <= cluster_frags then
        cur_frags := !cur_frags + Inode.frags e
      else begin
        flush_extent !cur_addr !cur_frags;
        cur_addr := Inode.addr e;
        cur_frags := Inode.frags e
      end;
      if Inode.frags e = fpb then incr lbn)
    ino.Inode.entries;
  flush_extent !cur_addr !cur_frags;
  Util.Vec.to_array steps

let dir_first_frag t dir =
  let ino = Fs.inode t.fs dir in
  if Array.length ino.Inode.entries = 0 then None else Some (Inode.addr ino.Inode.entries.(0))

let read_file t ~inum =
  let params = Fs.params t.fs in
  let ino = Fs.inode t.fs inum in
  (* name lookup: the directory's first data fragment *)
  (match dir_first_frag t (Fs.dir_of_inum t.fs inum) with
  | Some addr -> meta_read t ~addr ~frags:1
  | None -> ());
  meta_read t ~addr:(Params.inode_block_addr params inum) ~frags:(fpb t);
  Array.iter
    (function
      | Data { addr; frags } -> read_block t ~addr ~frags
      | Indirect addr -> meta_read t ~addr ~frags:(fpb t))
    (io_plan t ino)

let overwrite_file t ~inum =
  let params = Fs.params t.fs in
  let ino = Fs.inode t.fs inum in
  (match dir_first_frag t (Fs.dir_of_inum t.fs inum) with
  | Some addr -> meta_read t ~addr ~frags:1
  | None -> ());
  meta_read t ~addr:(Params.inode_block_addr params inum) ~frags:(fpb t);
  Array.iter
    (function
      | Data { addr; frags } -> write_block t ~addr ~frags
      | Indirect addr -> meta_read t ~addr ~frags:(fpb t))
    (io_plan t ino);
  (* mtime update *)
  meta_write t ~addr:(Params.inode_block_addr params inum) ~frags:(fpb t)

let create_and_write t ~dir ~name ~size =
  let params = Fs.params t.fs in
  let inum = Fs.create_file_exn t.fs ~dir ~name ~size in
  (* synchronous metadata: the new inode, then the directory block *)
  meta_write t ~addr:(Params.inode_block_addr params inum) ~frags:(fpb t);
  (match dir_first_frag t dir with
  | Some addr -> meta_write t ~addr ~frags:1
  | None -> ());
  let ino = Fs.inode t.fs inum in
  Array.iter
    (function
      | Data { addr; frags } -> write_block t ~addr ~frags
      | Indirect addr -> write_block t ~addr ~frags:(fpb t))
    (io_plan t ino);
  inum

let sync t =
  (* the fsync path: pending delayed metadata goes to the drive, then
     the volume's backend store is made durable (a real fsync for
     mmap-backed volumes, free for the heap) *)
  Addrs.iter (fun a f -> write_block t ~addr:a ~frags:f) t.dirty_meta;
  Addrs.reset t.dirty_meta;
  Fs.sync t.fs

let elapsed_of t action =
  let before = t.clock in
  action ();
  t.clock -. before
