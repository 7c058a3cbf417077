(** Cylinder-group state and within-group allocation.

    Addresses at this level are {e local}: fragment indices into the
    group's data area ([0 .. data_frags-1]) and block-slot indices
    ([0 .. data_blocks-1]; block [b] covers fragments
    [b*frags_per_block ..+ frags_per_block]). {!Fs} converts to and from
    global fragment addresses.

    Every placement question — first free block, nearest-in-cylinder,
    partial-block fragment fit, cluster run — is answered by the group's
    {!Extent_index} in O(log). It is the group's only derived structure:
    its run summary doubles as the cluster summary ([cg_clustersum]).
    The index changes speed, never placement: test_cg_diff predicts
    every placement with a naive bit-by-bit scan over this interface's
    accessors and requires the allocators to match it.

    Invariants (checked by [check_invariants]):
    - a block-slot bit is set iff any of its fragments is set;
    - [free_frags] and [free_blocks] agree with the bitmaps;
    - the extent index agrees with the bitmaps. *)

type t

val create : Params.t -> index:int -> t
(** A standalone everything-free group over its own one-region heap
    {!Store} — unchanged behaviour for tests and scratch use. *)

val create_in : store:Store.t -> base:int -> Params.t -> index:int -> t
(** An everything-free group whose persisted bytes live at byte offset
    [base] of a shared volume [store], laid out by {!Store.Layout}. *)

val copy : t -> t
(** A deep standalone copy (fresh heap store, bytes and derived
    indexes all duplicated). *)

val rebind : t -> store:Store.t -> t
(** Rebind [t]'s views onto [store] at the same offsets, deep-copying
    the derived heap state. The caller must already have blitted the
    region's bytes into [store] — this is {!Fs.copy}'s plumbing for
    copying a whole volume with one store-to-store blit. *)

val index : t -> int
val data_frags : t -> int
val data_blocks : t -> int
val free_frag_count : t -> int
val free_block_count : t -> int

val inodes_free : t -> int
val dirs : t -> int

val block_is_free : t -> int -> bool
(** Is this block slot entirely free? *)

val frag_is_free : t -> int -> bool

(** {2 Allocation}

    Each allocator comes in two forms. The [_i] form, which {!Fs}'s
    write path uses, takes [-1] for "no preference" and answers [-1]
    for "none", so a search allocates nothing on the heap. The option
    form wraps it for callers off that path; the two place identically.
    A preference is never negative otherwise. *)

val alloc_block_i : t -> pref:int -> int
(** {!alloc_block} with a sentinel preference and result. *)

val alloc_block : t -> pref:int option -> int option
(** Allocate one full block. If [pref] (a block index, taken mod the
    group size) is free it is taken; otherwise the rotationally nearest
    free block in [pref]'s file-system cylinder, and failing that the
    first free block scanning forward from [pref] (wrapping within the
    group) — the original FFS behaviour of taking the nearest free block
    with no regard for the surrounding free run. With no preference the
    scan starts at the group's rotor. Returns the block index, or
    [None] if the group has no free block. *)

val claim_pref_run : t -> pref:int -> max:int -> int
(** [claim_pref_run t ~pref ~max] takes the free block [pref] and the
    free blocks directly after it, at most [max] blocks in all, as one
    claim, and returns how many it took: 0 when [pref] is not free.
    The blocks, the rotor and the pref-hit count come out as [max]
    successive {!alloc_block} calls, each preferring the block after
    the last, would leave them while they hit. [pref] must be a block
    index of the group and [max >= 1]. *)

val alloc_frags_i : t -> pref:int -> count:int -> int
(** {!alloc_frags} with a sentinel preference and result. *)

val alloc_frags : t -> pref:int option -> count:int -> int option
(** Allocate a run of [count] (1 .. frags_per_block-1) fragments inside a
    single block, as FFS does for file tails: first a fit inside an
    already-partial block (scanning forward from the preferred fragment
    address), otherwise by breaking a free block. Returns the local
    fragment index of the run start. *)

val free_block : t -> int -> unit
(** Return a full block to the free pool. *)

val free_frags : t -> pos:int -> count:int -> unit
(** Return a fragment run (possibly a whole block) to the free pool. *)

val alloc_cluster_i : t -> policy:[ `First_fit | `Best_fit ] -> pref:int -> len:int -> int
(** {!alloc_cluster} with a sentinel preference and result. *)

val alloc_cluster :
  t -> policy:[ `First_fit | `Best_fit ] -> pref:int option -> len:int -> int option
(** Allocate [len] consecutive free blocks for the realloc pass. If the
    run starting exactly at [pref] is free it is preferred (so a file's
    next cluster chains onto its previous one); otherwise the free runs
    of length >= [len] are searched with the given policy ([`First_fit]:
    first such run scanning forward from [pref]; [`Best_fit]: shortest
    adequate run, ties to the first). Returns the starting block index of
    the allocated run. *)

val longest_free_run : t -> int

val free_run_histogram : t -> max:int -> int array
(** [free_run_histogram t ~max] counts maximal free block runs by length;
    index [i] (1-based length) holds runs of length [i+1], with runs
    longer than [max] counted in the last slot. Index 0 = length-1
    runs. *)

val extent_histogram : t -> (int * int) array
(** Free extents by power-of-two length bucket, enumerated from the
    extent index: [(bucket_min, count)] pairs (see
    {!Extent_index.histogram}). *)

val alloc_inode : t -> int option
(** Lowest free inode slot (local index), or [None]. The search starts
    at a low-water slot below which no slot is free; every path that
    clears an inode bit through this module lowers it. *)

val free_inode : t -> int -> unit

val inode_is_free : t -> int -> bool
(** Is this inode slot's bitmap bit clear? Ground truth for
    [Check.run]'s inode-bitmap audit — the bit, not the [inodes_free]
    counter (which two opposite corruptions can leave plausible). *)

val add_dir : t -> unit
val remove_dir : t -> unit

val audit_index : t -> string list
(** Compare the extent index, run summary included, against the bitmaps
    (ground truth). One message per divergence; [[]] means consistent.
    Reads only, never raises; feeds [Check.run]'s index-consistency
    pass. *)

val check_bitmaps : t -> unit
(** Raises [Assert_failure] if internal counters disagree with the
    bitmaps, or the block bitmap with the fragment bitmap. *)

val check_invariants : t -> unit
(** {!check_bitmaps}, then raises [Error.Error Corrupt] if the derived
    index disagrees with the bitmaps ({!audit_index}). For tests. *)

(** {2 Repair plumbing}

    Used by [Check.repair] to rebuild a group's allocation state from
    the inode table's claims. *)

val reset : t -> unit
(** Return the group to the everything-free state: bitmaps cleared,
    extent index whole, counters full, directory count zero. The rotor
    is preserved (it is a search hint, not an invariant). *)

val mark_frags_used : t -> pos:int -> count:int -> unit
(** Mark a fragment run allocated, keeping block bits, counters and the
    extent index in sync. The run must currently be free. *)

val mark_inode_used : t -> int -> unit
(** Mark one inode slot allocated. The slot must currently be free. *)

(** {2 Fault injection}

    Torn-metadata-write primitives: each changes one structure {e
    without} the coordinated updates a live allocator performs, so the
    group becomes internally inconsistent until [Check.repair] rebuilds
    it. No allocation may run on a corrupted group. *)

val corrupt_clear_frag : t -> int -> unit
(** Flip a fragment bit to free behind the allocator's back (a lost
    bitmap write after an allocation). Counters and block bits are
    deliberately left stale. *)

val corrupt_set_frag : t -> int -> unit
(** Flip a fragment bit to used (a lost bitmap write after a free, or a
    stray write): the space leaks until repair reclaims it. *)

val corrupt_counters : t -> nffree:int -> nbfree:int -> unit
(** Overwrite the free-fragment and free-block counters (a torn
    group-descriptor write). *)

val corrupt_set_inode : t -> int -> unit
(** Set one inode-bitmap bit with no counter update (the bitmap half of
    an inode allocation landing alone). Idempotent. *)

val corrupt_clear_inode : t -> int -> unit
(** Clear one inode-bitmap bit with no counter update. Idempotent. *)

val corrupt_adjust_dirs : t -> int -> unit
(** Adjust the directory count by a delta, clamped at zero (a torn
    group-descriptor write during mkdir/rmdir). *)

val corrupt_index_toggle_free : t -> int -> unit
(** Flip one block's bit in the extent index's free hierarchy without
    touching the bitmaps (a torn summary write): the index now lies
    about the block until repair rebuilds it. *)

val corrupt_index_toggle_fit : t -> int -> len:int -> unit
(** Flip one block's membership in the [len]-fragment fit bucket of the
    extent index, bitmaps untouched. *)

(** {2 Portable form}

    The group's canonical serialisation: the persisted bytes (the three
    bitmaps, raw) plus the counters and the rotor. Derived state — the
    extent index — is rebuilt from the bitmaps on load, so the form is
    independent of the storage backend. Checkpoints, aged images and digests all go through it. *)

type portable = {
  p_index : int;
  p_frag_bits : string;
  p_block_bits : string;
  p_inode_bits : string;
  p_nffree : int;
  p_nbfree : int;
  p_nifree : int;
  p_ndirs : int;
  p_rotor : int;
}

val to_portable : t -> portable

val of_portable_into : store:Store.t -> base:int -> Params.t -> portable -> t
(** Rebuild a live group at byte offset [base] of [store] from its
    portable form. Raises [Error.Error Corrupt] if a bitmap string's
    length disagrees with the geometry. Counters are restored verbatim
    (not cross-checked), so inconsistent fault-injected states round-trip
    faithfully. *)
