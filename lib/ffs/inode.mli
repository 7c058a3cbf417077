(** In-memory inodes.

    Rather than a faithful on-disk pointer tree, an inode carries the
    flat list of its data runs in logical order, plus the addresses of
    its indirect (metadata) blocks. This preserves everything the
    paper's analysis needs — where each logical block landed, where the
    indirect blocks landed — without simulating pointer-block contents.

    Every address is a global fragment address. A full block run has
    [frags = frags_per_block]; the final run of a small file may be a
    shorter fragment run.

    A run is one packed [int] — the address above four bits of
    fragment count — as FFS keeps an inode's block map as a flat array
    of disk addresses ([di_db]). An [entries] array is therefore a flat
    int array: building or storing a run allocates nothing and runs no
    write barrier. {!Fs.portable} still persists runs as
    [{addr; frags}] records, so images and checkpoints are unchanged.

    A record is immutable, and so are its arrays once it is installed in
    an inode table: a write builds a new record ([{ ino with ... }]) and
    installs it, so a copy of the table may share every record. *)

type entry = private int
(** A data run: [frags] fragments starting at global fragment [addr]. *)

val entry : addr:int -> frags:int -> entry
(** Pack a run. [addr] may be any int whose shift by four bits does not
    overflow (negative addresses round-trip). Raises [Invalid_argument]
    unless [0 <= frags <= 15], which covers every legal block size
    ({!Params} caps [frags_per_block] at 8). *)

val addr : entry -> int
val frags : entry -> int

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
