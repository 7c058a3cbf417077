(** Allocation bitmaps.

    A fixed-length vector of bits; a {e set} bit means the resource is
    allocated. Includes the scanning primitives the allocators need
    (first clear bit, per-block fragment probes). Range operations and
    scans touch each byte once — a whole byte directly, a partial one
    through a mask — which is ample for cylinder-group-sized maps (a
    few thousand bits).

    The bits live in a {!Store}: {!create} gives a standalone map over
    its own little heap store, while {!of_store} views a byte range of a
    shared volume store — that is how every bitmap poke reaches the
    selected storage backend (and, on a checksummed store, its
    dirty-chunk tracking). *)

type t

val create : int -> t
(** All bits clear (everything free), in a standalone heap store. *)

val of_store : Store.t -> base:int -> len:int -> t
(** View [len] bits starting at byte [base] of [store]. The range must
    lie inside the store; the caller owns the layout. *)

val length : t -> int

val base : t -> int
(** The view's starting byte offset in its store. *)

(** [copy t] is a standalone (heap-backed) copy of the bits. *)
val copy : t -> t
val get : t -> int -> bool
val set : t -> int -> unit
val clear : t -> int -> unit

val set_range : t -> pos:int -> len:int -> unit
val clear_range : t -> pos:int -> len:int -> unit

val all_clear : t -> pos:int -> len:int -> bool
(** Is every bit in [\[pos, pos+len)] clear? *)

val all_set : t -> pos:int -> len:int -> bool

val count_set : t -> int
val count_clear : t -> int

val find_clear : t -> start:int -> int option
(** First clear bit at index >= [start] (no wrap). *)

val max_clear_run : t -> pos:int -> len:int -> int
(** Length of the longest clear run inside [\[pos, pos+len)] — a single
    table lookup when the range is one aligned byte (a block's fragment
    bits under the standard geometry). *)

val find_clear_fit : t -> pos:int -> len:int -> count:int -> int
(** First start in [\[pos, pos+len)] of [count] consecutive clear bits
    lying wholly inside the range, or [-1] when there is none —
    first-fit, same placement as a left-to-right scan; table-driven for
    one aligned byte. *)

val to_string : t -> string
(** The raw backing bytes ([ceil (len/8)] of them; padding bits zero) —
    the portable serialisation of the map's content. *)

val load : t -> string -> unit
(** Overwrite the map's bytes with a string from {!to_string} (the
    length must match exactly). *)
