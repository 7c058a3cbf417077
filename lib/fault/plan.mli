(** Deterministic fault plans.

    A plan says {e how many} faults of each class to inject; the
    corruption engine ({!Inject}) picks the concrete victims by drawing
    from an explicit {!Util.Prng} stream against the live image, so a
    (seed, plan) pair reproduces the same corruption bit-for-bit on the
    same image. Each class maps to a real-world FFS failure — a torn
    metadata write that hit one structure of a multi-structure update —
    and to the [Check.problem] the audit reports for it:

    - [duplicate_claims]: a stale inode block reappears after a crash,
      so two inodes claim the same data run ([Double_claim]).
    - [drop_claims]: an inode-block write was lost after the bitmap
      write, leaking the run's fragments ([Usage_mismatch]).
    - [forget_inodes]: a whole inode vanishes but its directory entry
      survives ([Dangling_entry] plus leaked fragments).
    - [orphan_files]: the directory write was the one lost, leaving a
      live inode no directory references ([Orphan_inode]).
    - [dangling_entries]: a directory entry names a dead inode number
      ([Dangling_entry]).
    - [clear_bitmap_bits]: the bitmap write after an allocation was
      lost, so a claimed fragment reads free ([Claim_not_allocated]).
    - [set_bitmap_bits]: the bitmap write after a free was lost, so a
      free fragment reads allocated ([Usage_mismatch]).
    - [bad_runs]: a corrupted block pointer — address out of range
      ([Bad_run]).
    - [zero_counter_groups]: a torn group-descriptor write zeroes the
      free counts ([Group_counter_mismatch]). *)

type spec = {
  duplicate_claims : int;
  drop_claims : int;
  forget_inodes : int;
  orphan_files : int;
  dangling_entries : int;
  clear_bitmap_bits : int;
  set_bitmap_bits : int;
  bad_runs : int;
  zero_counter_groups : int;
}

val none : spec
(** All counts zero. *)

val count : spec -> int
(** Total faults requested. *)

val gen : rng:Util.Prng.t -> intensity:int -> spec
(** [intensity] faults distributed uniformly at random over the nine
    classes. Deterministic in the generator state. *)

val crash_points : rng:Util.Prng.t -> n_ops:int -> crashes:int -> int list
(** Up to [crashes] distinct operation indices in [[0, n_ops - 1]],
    sorted ascending: the replay crashes {e after} applying each indexed
    operation. Fewer points are returned when the workload is shorter
    than the request. *)

val pp : Format.formatter -> spec -> unit

val logical_seed : fault_seed:int -> int
(** The child seed for the {e logical} fault stream (crash points and
    metadata corruption draws). Sibling of {!device_seed}, so one
    [--fault-seed] reproduces a whole mixed logical+device fault run. *)

val device_seed : fault_seed:int -> int
(** The child seed for the {e device} fault stream, the seed of
    [Ffs.Store]'s fault layer ({!Ffs.Store.Device} plans). *)
