(** The sequential I/O benchmark (Section 5.1, Figures 4 and 5).

    For a given file size, writes a 32 MB corpus of fresh files onto the
    (aged) file system — no more than twenty-five files per directory,
    spreading the corpus across cylinder groups — then reads every file
    back in creation order. I/O is performed in 4 MB units at the
    system-call level, which the file system decomposes into clustered
    disk requests. Create timing includes FFS's synchronous metadata
    writes. Each point runs on its own fork of the file system
    ({!Ffs.Fs.copy}), so the aged image is not disturbed. *)

type point = {
  file_bytes : int;
  files : int;
  write_throughput : float;  (** bytes/second, create+write phase *)
  read_throughput : float;  (** bytes/second, read phase *)
  layout_score : float;  (** of the files the benchmark created *)
}

val default_sizes : int list
(** 16 KB ... 32 MB, with extra resolution around the 64 KB cluster
    boundary and the 104 KB indirect-block threshold. *)

val run_size :
  aged:Ffs.Fs.t ->
  drive:Disk.Drive.t ->
  ?corpus_bytes:int ->
  ?metadata:Ffs.Io_engine.metadata_mode ->
  file_bytes:int ->
  unit ->
  point
(** One benchmark run (default corpus 32 MB, synchronous metadata). *)

val run :
  ?pool:Par.Pool.t ->
  ?timings:Par.Timings.t ->
  aged:Ffs.Fs.t ->
  mk_drive:(unit -> Disk.Drive.t) ->
  ?corpus_bytes:int ->
  sizes:int list ->
  unit ->
  point list
(** The full sweep. Every size runs against its own fresh drive from
    [mk_drive], so the points are mutually independent and, when [pool]
    is given, the sweep fans out across domains with bit-identical
    results for any job count. *)
