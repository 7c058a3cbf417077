(** In-memory inodes.

    Rather than a faithful on-disk pointer tree, an inode carries the
    flat list of its data runs in logical order, plus the addresses of
    its indirect (metadata) blocks. This preserves everything the
    paper's analysis needs — where each logical block landed, where the
    indirect blocks landed — without simulating pointer-block contents.

    Every address is a global fragment address. A full block run has
    [frags = frags_per_block]; the final run of a small file may be a
    shorter fragment run.

    A record is immutable, and so are its arrays once it is installed in
    an inode table: a write builds a new record ([{ ino with ... }]) and
    installs it, so a copy of the table may share every record. *)

type entry = { addr : int; frags : int }

type kind = File | Dir

type t = {
  inum : int;
  kind : kind;
  size : int;  (** bytes *)
  entries : entry array;  (** data runs, logical order *)
  indirect_addrs : int array;
      (** indirect metadata blocks, in the order they interpose in the
          logical block stream *)
  ctime : float;
  mtime : float;
}

val frag_count : t -> int
(** Total data fragments, excluding indirect blocks. *)

val total_frags_with_metadata : t -> int
(** Data fragments plus indirect-block fragments — the file's total space
    charge. *)

val optimal_links : entry array -> int
(** How many runs start exactly where their predecessor ends — the
    paper's optimally allocated blocks. A file with [n >= 2] runs has
    [n - 1] counted links, of which these are the optimal ones. *)

val pp : Format.formatter -> t -> unit
