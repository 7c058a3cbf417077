(** Byte-size constants and human-readable formatting.

    The paper (and FFS) use power-of-two units: KB = 1024 bytes. *)

val kib : int
val mib : int
val gib : int

val kib_f : float
val mib_f : float

val bytes_of_kib : int -> int
val bytes_of_mib : int -> int

val pp_bytes : Format.formatter -> int -> unit
(** Render e.g. [96 KB], [4.0 MB], [512 B]; exact multiples print without
    a fractional part. *)

val mb_per_sec : bytes:int -> seconds:float -> float
(** Throughput in MB/sec (MB = 2^20). [nan] when [seconds = 0]. *)
