(** Per-cylinder-group indexed free-space summary.

    A buddy-style hierarchy layered over the group's allocation bitmaps
    so the allocator's searches become O(log) successor queries instead
    of word-by-word scans:

    - a {e free} hierarchy over block slots (bit set = block entirely
      free) and its complement, the {e used} hierarchy, answer "first
      free block at or after [b]" and "end of the free run starting at
      [b]" — the queries behind [ffs_alloccgblk]'s map search and the
      realloc pass's cluster search;
    - {e fit} hierarchies, one per fragment-run length [1 ..
      frags_per_block-1], list the partially-filled blocks whose longest
      in-block free-fragment run is at least that length — the query
      behind [ffs_alloccg]'s partial-block walk for file tails;
    - the {e run summary} — the simulator's [cg_clustersum] — counts
      the maximal free-block runs of each length, with a {e lengths}
      hierarchy (bit [l] set iff some run has length [l]) answering
      "shortest run of at least [l] blocks" in one successor query. Run
      lengths live at each run's two endpoints; when a block flips
      between free and used its run's bounds come from the used
      hierarchy ([e] = next used block - 1, [s = e - length e + 1]), so
      splitting and merging runs never walks the block map.

    Each hierarchy is a tree of 63-bit words: every upper-level bit
    records whether the word below it is nonzero, so a successor query
    descends at most [log63 nblocks] words.

    The index is {e derived} state: {!Cg} keeps it in sync with the
    fragment bitmap on every allocate/free, and {!Check.repair} rebuilds
    it from scratch (via {!reset} and the normal claim path) exactly as
    it rebuilds bitmaps and counters. It must never disagree with the
    bitmaps while the allocator runs; {!audit} reports any divergence,
    and the [corrupt_*] primitives let tests manufacture one. *)

type t

val create : nblocks:int -> fpb:int -> t
(** Everything free: [nblocks] block slots of [fpb] fragments each. *)

val copy : t -> t

val reset : t -> unit
(** Return to the everything-free state (repair pass 2 rebuilds from
    here through {!update}). *)

val update : t -> int -> maxrun:int -> unit
(** Record block [b]'s new fragment state, where [maxrun] is the longest
    free-fragment run inside the block ([fpb] = entirely free, [0] =
    entirely used, anything between = partial). Reclassifies the block
    in the free/used hierarchies, the fit buckets and the run summary. *)

val take_range : t -> first:int -> len:int -> unit
(** Blocks [first ..+ len], all entirely free, become entirely used:
    their free run splits once around the span, however long it is.
    The range forms are the index's one run-bookkeeping primitive;
    {!update}'s free/used flips are ranges of length 1. *)

val give_range : t -> first:int -> len:int -> unit
(** Blocks [first ..+ len], all entirely used, become entirely free:
    one merge joins them with the free runs on either side. *)

val block_maxrun : t -> int -> int
(** The recorded in-block longest free run (for audits and tests). *)

(** {2 Queries} — all successor-style, [O(log nblocks)]. *)

val succ_free : t -> start:int -> int option
(** First entirely-free block at index [>= start]. *)

val run_end : t -> int -> int
(** Last block of the free run holding free block [b]: one successor
    query on the used hierarchy. *)

val succ_fit : t -> count:int -> start:int -> int option
(** First partially-filled block at index [>= start] holding a free
    fragment run of [>= count] fragments ([1 <= count < fpb]). *)

val shortest_run : t -> len:int -> int option
(** Length of the shortest maximal free-block run of [>= len] blocks, if
    any — the cluster summary's "can this request succeed" and
    best-fit's target length in one query. *)

(** {2 Run statistics} — [O(nblocks)], from the run summary. *)

val longest_run : t -> int
(** Length of the longest free-block run (0 if none). *)

val run_histogram : t -> max:int -> int array
(** Free-block runs by length: slot [i] holds runs of length [i+1], runs
    longer than [max] folded into the last slot. *)

val histogram : t -> (int * int) array
(** Free extents bucketed by power-of-two length: [(bucket_min, count)]
    where bucket [i] holds extents of [2^i .. 2^(i+1)-1] blocks. Always
    covers lengths up to the group size; trailing empty buckets are
    kept so histograms of equal-sized groups align. *)

(** {2 Consistency} *)

val audit : t -> frag_free:(int -> bool) -> block_free:(int -> bool) -> string list
(** Compare every derived structure against the bitmaps (ground truth):
    per-block classification, fit memberships and stored max runs
    against the fragment map, the run summary against the block map
    (at most one message), and the internal summary levels of each
    hierarchy. Returns one message per divergence; [[]] means
    consistent. *)

(** {2 Fault injection}

    Skew the index {e without} touching the bitmaps — the analogue of a
    torn summary-structure write. Only {!Check.repair} may run
    afterwards; used by the audit regression tests. *)

val corrupt_toggle_free : t -> int -> unit
(** Flip block [b]'s bit in the free hierarchy (summaries updated, so
    the skew is only visible against the bitmaps). *)

val corrupt_toggle_fit : t -> int -> len:int -> unit
(** Flip block [b]'s membership in the [len]-fragment fit bucket. *)
