(** CRC-32 (IEEE 802.3), the checksum behind {!Recover}'s container
    trailer, the workload fingerprints in checkpoints, and the store's
    per-chunk checksums. Slicing-by-8 over [int] tables, dependency
    free. *)

type t
(** Running checksum state. *)

val empty : t
(** Initial state. *)

val update : t -> string -> pos:int -> len:int -> t
(** Fold a substring into the running state. *)

val finish : t -> int32
(** Final checksum value of the bytes folded so far. *)

val string : string -> int32
(** One-shot checksum of a whole string. *)
