(** Per-cylinder-group lock table for intra-volume parallel aging.

    One mutex per cylinder group, guarding that group's bitmaps, extent
    index and cluster summaries, and its shard of the superblock-level
    tables: [Fs] keeps the inode and parent tables and the allocation
    counters per group (counters summed on read, as FFS sums its
    per-group [cs_summary]). There is no global lock. The lock
    hierarchy is cg locks only, always acquired in ascending group-id
    order, so acquisition order is acyclic and the table deadlock-free.

    A worker domain {e pins} itself to one group with {!with_pin};
    while pinned, [Fs] confines every allocation, free and table access
    to that group, raising {!Error.Cross_cg} before it reads anything
    of another group. Unpinned (serial) callers pay a single
    domain-local-storage read and touch no mutex. *)

type t

type stats = {
  acquisitions : int;  (** cg lock acquisitions *)
  contended : int;  (** acquisitions that had to block *)
  wait_seconds : float;  (** total wall-clock time spent blocked *)
}

val create : ncg:int -> t
val ncg : t -> int

val pinned : unit -> int option
(** The cylinder group the calling domain is pinned to, if any. *)

val with_pin : t -> cg:int -> (unit -> 'a) -> 'a
(** Hold group [cg]'s lock and pin the calling domain to it for the
    duration of [f]. Raises [Invalid_argument] if the domain is already
    pinned (no nesting — multi-group work uses {!with_cgs} or runs
    unpinned). *)

val with_cgs : t -> int list -> (unit -> 'a) -> 'a
(** Hold several group locks at once, acquired in ascending id order
    regardless of the order given (the deadlock-freedom rule), without
    pinning. For coordinator-side multi-group operations. *)

val stats : t -> stats
val diff : before:stats -> after:stats -> stats
