(** The file-system simulator: FFS allocation policy over cylinder
    groups, with files, directories, and both of the paper's allocators.

    Files are written whole (the aging workload and the paper's
    benchmarks write each file sequentially at creation), so [create_file]
    performs the entire allocation walk a real FFS write stream would:
    block preference ({e next contiguous block, else nearest free in the
    group, else quadratic rehash over groups}), a forced cylinder-group
    switch at every indirect-block boundary, fragment allocation for the
    tails of small files, and — when the realloc allocator is enabled —
    cluster reallocation of each completed write window, exactly the
    McKusick enhancement the paper evaluates.

    {b Errors.} Every mutating entry point has an [_exn] form that raises
    {!Error.Error}; wrap one in {!Error.guard} to branch on the
    [(_, Error.t) result] instead. [create_file], [delete_file] and
    [rewrite_file] are that wrapping, ready-made. Read-only lookups
    ([inode], [dir_of_inum], [lookup]) keep their option/[Not_found]
    conventions.

    All data addresses are global fragment addresses (see {!Params}). *)

type t

type cluster_policy = [ `First_fit | `Best_fit ]

type config = {
  realloc : bool;  (** enable the realloc (cluster reallocation) pass *)
  cluster_policy : cluster_policy;  (** search policy inside realloc *)
}

type stats = {
  mutable blocks_allocated : int;
  mutable frags_allocated : int;
  mutable contiguous_allocations : int;
      (** block allocations that landed exactly after the previous block *)
  mutable cg_fallbacks : int;
      (** allocations that left the preferred cylinder group *)
  mutable realloc_attempts : int;
  mutable realloc_moves : int;  (** attempts that relocated a window *)
  mutable realloc_failures : int;  (** attempts that found no free cluster *)
  mutable indirect_switches : int;  (** cg switches forced by indirect blocks *)
}

val create : ?config:config -> ?backend:Store.spec -> Params.t -> t
(** Fresh, empty file system with a root directory in group 0. Default
    config: traditional allocator (realloc off), first-fit clusters.
    [backend] selects where the volume's persisted metadata bytes live
    (default {!Store.Heap_backend}; [Mmap_backend] for out-of-core
    volumes) — placements never depend on it. *)

val default_config : config
val realloc_config : config

val copy : t -> t
(** An independent fork: writes to either side never show in the other
    — used to run destructive benchmarks against one aged image
    repeatedly. The fork copies the metadata store, each group's free
    extent index and the inode tables' slot arrays, and shares what is
    never written in place: the inode records, and the directory states
    until either side's first write of each, which clones it. Forking
    writes the source only to mark its directory states shared, so
    several domains may fork one image at once while none writes it. *)

val params : t -> Params.t
val config : t -> config

val stats : t -> stats
(** The allocation counters, as a fresh record: the sum of one record
    per cylinder group (bumped by domains pinned to that group, see
    {!Locks.with_pin}) and one for unpinned callers. Mutating the
    result changes nothing. *)

val set_time : t -> float -> unit
(** Set the simulated clock used to stamp ctime/mtime. *)

val now : t -> float

(* Directories *)

val root : t -> int

val mkdir_exn : t -> parent:int -> name:string -> int
(** New directory placed by [dirpref]: among groups with at least the
    average number of free inodes, the one with the fewest directories.
    Returns its inode number. Raises {!Error.Error} with
    [Out_of_space], [Not_a_directory] or [Name_exists]. *)

val mkdir_in_cg_exn : t -> parent:int -> name:string -> cg:int -> int
(** New directory pinned to a specific cylinder group — the mechanism the
    paper's aging tool uses (one directory per group, files steered by
    inode number). Errors: those of {!mkdir_exn}, plus [Invalid_cg].
    Like every directory-table write ({!mkdir_exn}, {!rmdir_exn}) and
    the repair plumbing below, refused with [Cross_cg] under a
    {!Locks.with_pin}: pinned domains only read the directory table. *)

val rmdir_exn : t -> parent:int -> name:string -> unit
(** Remove an empty directory: its data fragments and inode return to
    the free pool. Raises {!Error.Error} with [No_such_name],
    [Directory_not_empty] or [Cannot_remove_root]. *)

val lookup : t -> dir:int -> name:string -> int option
val dir_entries : t -> int -> (string * int) list
(** Entries of a directory in insertion order. *)

val parent : t -> int -> (int * string) option
(** The entry naming an inode, as [(directory, name)]: the record every
    entry write keeps, so no directory is scanned. [None] for an inode
    no directory names. *)

val dir_of_inum : t -> int -> int
(** Parent directory of a file or directory. The root is its own
    parent. Raises [Not_found]. *)

val cg_of_inum : t -> int -> int

(* Files *)

val create_file : t -> dir:int -> name:string -> size:int -> (int, Error.t) result
(** Create and write a file of [size] bytes; returns its inode number.
    The inode is allocated in the directory's cylinder group when
    possible. Errors: [Out_of_space] if the data cannot be placed (all
    partial allocations are rolled back), [Name_exists],
    [Not_a_directory]; under a {!Locks.with_pin}, [Cross_cg] with the
    same full-rollback guarantee. *)

val create_file_exn : t -> dir:int -> name:string -> size:int -> int

val create_file_at_exn : t -> time:float -> dir:int -> name:string -> size:int -> int
(** {!create_file_exn} stamping the inode with an explicit [time]
    instead of the shared fs clock — what parallel replay uses so that
    worker interleaving never reads or writes the clock. *)

val delete_file : t -> dir:int -> name:string -> (unit, Error.t) result
(** Errors: [No_such_name], [Is_a_directory]. *)

val delete_file_exn : t -> dir:int -> name:string -> unit

val delete_inum_exn : t -> int -> unit
(** Raises {!Error.Error} with [No_such_inode] (also for numbers outside
    every group) or [Is_a_directory]; under a {!Locks.with_pin}, with
    [Cross_cg] for an inode of another group — refused before that
    group's tables are read — or with data or a directory entry outside
    the pinned group, in every case before any mutation. *)

val rewrite_file : t -> inum:int -> size:int -> (unit, Error.t) result
(** The paper's model of modification: truncate to zero, then write
    [size] bytes afresh (same inode, same directory). Errors:
    [No_such_inode], [Is_a_directory], [Out_of_space] — in the last
    case the truncation has still happened (as in the real syscall
    sequence), so the file is left empty. Under a {!Locks.with_pin},
    [Cross_cg] either before any mutation (an inode of another group,
    refused before that group's tables are read, or foreign old data)
    or after the truncation (allocation overflow), mirroring the
    [Out_of_space] contract. *)

val rewrite_file_exn : t -> inum:int -> size:int -> unit

val rewrite_file_at_exn : t -> time:float -> inum:int -> size:int -> unit
(** {!rewrite_file_exn} stamping mtime with an explicit [time] instead
    of the shared fs clock. *)

val inode : t -> int -> Inode.t
(** Raises [Not_found] for unallocated inode numbers, including numbers
    outside every group. *)

val set_entries : t -> ?indirect_addrs:int array -> Inode.t -> Inode.entry array -> unit
(** [set_entries t ino entries] replaces [ino], the record installed for
    its inode number, with a copy whose data runs are [entries] (and
    whose indirect blocks are [indirect_addrs], when given), and keeps
    the layout counters ({!layout_counts}) in step. Records are
    immutable ({!Inode.t}), so every claims edit outside the normal
    file API goes through here or through {!corrupt_inode}. Allocates
    nothing itself: freeing or marking the runs is the caller's
    business. *)

val corrupt_inode : t -> int -> (Inode.t -> Inode.t) -> unit
(** [corrupt_inode t inum f] installs [f ino] in place of [inum]'s
    record [ino] as a raw inode-table write: the layout counters keep
    [ino]'s share, so they are stale until {!Check.repair} (or
    {!rebuild_allocation}) recounts them — the analogue of the
    [Cg.corrupt_*] primitives, for tests. Raises [Not_found] like
    {!inode}. *)

val layout_counts : t -> int * int
(** [(optimal, counted)] over every regular file: the links from one
    data run to the next ([runs - 1] per file of two or more runs), and
    those whose next run starts where the previous ends. The sums of
    per-group counters, kept by every inode-table and entries write —
    no scan. The paper's aggregate layout score is [optimal / counted]. *)

val group_layout_counts : t -> int -> int * int
(** {!layout_counts} of the files whose inodes live in one group. *)

val group_layout_recount : t -> int -> int * int
(** What {!group_layout_counts} should say, recounted from the group's
    inode table: the figure fsck audits the counter against. *)

val file_exists : t -> int -> bool
val iter_files : t -> (Inode.t -> unit) -> unit
(** All regular files (not directories), in inode-number order. *)

val fold_files : t -> init:'a -> f:('a -> Inode.t -> 'a) -> 'a
val file_count : t -> int

val iter_all_inodes : t -> (Inode.t -> unit) -> unit
(** Files and directories both, in inode-number order. *)

val dir_inums : t -> int list
(** Every directory's inode number (including the root), unspecified
    order. *)

(* Space accounting *)

val total_data_frags : t -> int
val free_data_frags : t -> int
val used_data_frags : t -> int

val utilization : t -> float
(** Used fraction of the data area, in [0,1]. Like the paper, the
    minfree reserve is treated as ordinary free space. *)

val cg_states : t -> Cg.t array
(** The live cylinder-group states (for analysis; do not mutate). *)

val digest : t -> string
(** Canonical hex digest of the file system's logical content: params,
    config, clock, stats, every cylinder group's image, and the inode /
    directory / parent tables {e in sorted key order} — so two file
    systems with identical content hash identically even when their
    hashtables were populated in different orders. This is the digest
    the parallel-aging determinism gates compare; raw [Marshal] bytes of
    the whole [t] would depend on table history. *)

val digest_parts : t -> (string * string) list
(** The named component digests [digest] is built from (header, stats,
    cgs, inodes, dirs, parents) — for pinpointing which structure two
    images that should be identical actually differ in. *)

(* Portable form — the canonical serialisation checkpoints and aged
   images persist. *)

type portable_dir = {
  pd_inum : int;
  pd_names : (string * int) list;
  pd_order : string list;
  pd_live : int;
}

type portable_run = { addr : int; frags : int }
(** A data run as the portable form keeps it: the record {!Inode.entry}
    was before runs were packed into ints. *)

type portable_inode = {
  pi_inum : int;
  pi_kind : Inode.kind;
  pi_size : int;
  pi_entries : portable_run array;
  pi_indirect_addrs : int array;
  pi_ctime : float;
  pi_mtime : float;
}
(** An {!Inode.t} with its runs as {!portable_run} records, field for
    field in {!Inode.t}'s order, so images, checkpoints and digests
    marshal to the bytes they had when inodes held such records. *)

type portable = {
  pf_params : Params.t;
  pf_config : config;
  pf_clock : float;
  pf_root : int;
  pf_stats : stats;
  pf_cgs : Cg.portable array;
  pf_inodes : (int * portable_inode) list;
  pf_dirs : (int * portable_dir) list;
  pf_parents : (int * (int * string)) list;
}

val to_portable : t -> portable
(** Flatten to the canonical form: raw bitmap bytes plus counters per
    group (no derived indexes), tables as sorted
    association lists, each inode's packed runs unpacked into
    {!portable_run} records. Independent of the storage backend and
    safe to [Marshal]. *)

val of_portable : ?backend:Store.spec -> portable -> t
(** Rebuild a live file system (derived indexes reconstructed from the
    bitmaps, runs packed) on the chosen backend. Raises
    [Error.Error Corrupt] if a group's bitmap strings disagree with the
    geometry, or a run's [frags] lies outside [0..15] or its address
    does not pack. *)

val digest_portable : portable -> string
(** [digest_portable (to_portable t) = digest t]. *)

(* Storage backend *)

val store : t -> Store.t
(** The volume's metadata byte store (chunk index = group index). *)

val backend_name : t -> string
(** Display name of the live backend ("bytes", "mmap", "mmap:PATH"). *)

val sync : t -> unit
(** {!Store.sync}: on a resilient store, acknowledge the CRCs of the
    groups written since the last sync; then flush the backend to
    durable storage (fsync for file-backed mappings; no-op for the
    heap). *)

(* Repair & fault-injection plumbing — the raw directory and inode-table
   edits [Check.repair] and the fault injector are built from. These
   deliberately skip the data/bitmap bookkeeping the normal API
   performs; using them leaves the image inconsistent until
   [Check.repair] (or [rebuild_allocation]) runs. Whole-volume work:
   each is refused with [Cross_cg] under a {!Locks.with_pin}. *)

val detach_entry_exn : t -> dir:int -> name:string -> unit
(** Remove a directory entry without freeing the inode it names or its
    data (a torn directory write: the name is gone, the inode is not).
    Raises {!Error.Error} with [No_such_name] or [Not_a_directory]. *)

val attach_entry_exn : t -> dir:int -> name:string -> inum:int -> unit
(** Add a directory entry naming an arbitrary inode number — the
    reattachment half of orphan recovery, and (pointed at a dead inode
    number) the dangling-entry injection. Extends the directory's data
    if the entry count crosses a fragment boundary, so the file system's
    allocation state must be consistent when called. Raises
    {!Error.Error} with [Name_exists] or [Not_a_directory]. *)

val forget_inode_exn : t -> int -> unit
(** Drop a {e file} inode from the inode table, leaving its directory
    entry dangling, its bitmap bits set and its inode slot claimed (a
    lost inode-block write). Raises {!Error.Error} with [No_such_inode]
    or [Is_a_directory]. *)

val rebuild_allocation : t -> unit
(** Rebuild every cylinder group's bitmaps, counters, extent index, inode
    map and directory count, and the layout counters, from the inode and
    directory tables — the
    authoritative-claims half of fsck. Requires the surviving claims to
    be disjoint and in range (the repair pass prunes them first). *)

(* Crash-exploration journal — see {!Journal} and [Recover.Explore]. *)

val record_journal : t -> (unit -> 'a) -> 'a * Journal.step list
(** Run [f] with journal recording on: every metadata write the
    operation issues (bitmap updates, inode-table writes, directory
    edits, group-descriptor touches) is captured in order. Returns [f]'s
    value and the recorded sequence. Recording must not nest; if [f]
    raises, recording stops and the exception propagates (any partial
    sequence is discarded). Recording is off by default and costs one
    option check per metadata write when off. *)

val apply_journal : t -> Journal.step list -> unit
(** Replay recorded steps onto an image as the raw disk writes they
    model: each step changes exactly one structure with none of the
    coordinated bookkeeping the live operation performs. Applying a
    strict prefix (or a reordered subset) of an operation's journal to a
    copy of the pre-operation image materialises the torn state a power
    failure at that point would expose — internally inconsistent until
    {!Check.repair} runs. Tolerant by construction: steps whose target
    vanished with an elided earlier write (a [Dir_add] into a directory
    whose inode write was lost) land as the lost-write no-ops a real
    disk would exhibit. *)
