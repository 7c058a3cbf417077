(** Ordered metadata-write sequences (the crash-exploration journal).

    A multi-write FFS operation — create, delete, rewrite, mkdir, rmdir
    — issues several distinct metadata writes (bitmaps, inode table,
    directory blocks, group descriptors). A power failure can land
    between any two of them, or after a reordered subset. This module
    is the vocabulary of those writes: {!Fs.record_journal} captures
    the sequence an operation performs, and {!Fs.apply_journal} replays
    prefixes of it to materialise every torn intermediate state for the
    crash explorer ({!Recover.Explore}). *)

type step =
  | Data_set of { addr : int; frags : int }
      (** data-bitmap write marking a fragment run allocated (global
          address) *)
  | Data_clear of { addr : int; frags : int }
      (** data-bitmap write returning a run to the free pool *)
  | Inode_slot_set of { inum : int }
  | Inode_slot_clear of { inum : int }
  | Inode_write of { ino : Inode.t }
      (** inode-table write carrying the record installed at that point
          in the operation (records are immutable: a later step of the
          same operation that writes the inode again installs another) *)
  | Inode_clear of { inum : int }
  | Dir_add of { dir : int; name : string; inum : int }
  | Dir_remove of { dir : int; name : string }
  | Dir_count of { cg : int; delta : int }

val pp_step : Format.formatter -> step -> unit
val pp : Format.formatter -> step list -> unit
