(** The corruption engine: perturb a live image the way torn metadata
    writes do.

    Victims (which file, which fragment, which group) are drawn from the
    supplied {!Util.Prng} stream against deterministically sorted views
    of the image, so equal seeds reproduce equal corruption. Every
    injector returns [None] when the image offers no victim (no files,
    no free fragment, ...) and an {!event} describing the concrete
    damage otherwise.

    After injection the image is inconsistent by design: run
    [Check.repair] before any further allocation. *)

type event =
  | Duplicated_claim of { victim : int; thief : int; addr : int; frags : int }
      (** [thief]'s inode now also claims [victim]'s run at [addr] *)
  | Dropped_claim of { inum : int; addr : int; frags : int }
      (** the run at [addr] vanished from [inum]'s inode; its fragments leak *)
  | Forgot_inode of { inum : int }
      (** the inode vanished wholesale; its directory entry dangles *)
  | Orphaned of { inum : int; dir : int; name : string }
      (** the entry [name] in [dir] vanished; the inode is unreferenced *)
  | Dangled of { dir : int; name : string; inum : int }
      (** [dir] gained an entry naming the dead inode [inum] *)
  | Cleared_bitmap_bit of { fragment : int }
      (** the claimed fragment reads free in its group's bitmap *)
  | Set_bitmap_bit of { fragment : int }
      (** the free fragment reads allocated (bitmap and free counter
          both updated, as by a crash mid-allocation before the inode
          write); no inode claims it, so it has leaked *)
  | Corrupted_run of { inum : int; addr : int; frags : int }
      (** [inum] gained a run with an out-of-range address *)
  | Zeroed_counters of { cg : int }
      (** group [cg]'s free-fragment and free-block counters read zero *)

val duplicate_claim : Ffs.Fs.t -> rng:Util.Prng.t -> event option
val drop_claim : Ffs.Fs.t -> rng:Util.Prng.t -> event option
val forget_inode : Ffs.Fs.t -> rng:Util.Prng.t -> event option
val orphan_file : Ffs.Fs.t -> rng:Util.Prng.t -> event option

val orphan_candidates : Ffs.Fs.t -> (int * int * string) list
(** {!orphan_file}'s victims: every named file as [(inum, dir, name)],
    ascending, read from {!Ffs.Fs.parent} without scanning a directory. *)

val dangling_entry : Ffs.Fs.t -> rng:Util.Prng.t -> event option
val clear_bitmap_bit : Ffs.Fs.t -> rng:Util.Prng.t -> event option
val set_bitmap_bit : Ffs.Fs.t -> rng:Util.Prng.t -> event option
val bad_run : Ffs.Fs.t -> rng:Util.Prng.t -> event option
val zero_counters : Ffs.Fs.t -> rng:Util.Prng.t -> event option

val apply : Ffs.Fs.t -> rng:Util.Prng.t -> Plan.spec -> event list
(** Execute a whole plan, in a fixed class order chosen so that the
    injectors that still {e allocate} (a dangling entry can extend its
    directory) run before the bitmap and counter corruptions that would
    make allocation unsafe: duplicates, drops, forgets, orphans,
    dangles, then bitmap clears, bitmap sets, bad runs, counter zeroing.
    Returns the events actually performed, in injection order (classes
    with no available victim inject fewer faults than requested). *)

val pp_event : Format.formatter -> event -> unit
