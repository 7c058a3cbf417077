(** Numbered names without a formatter.

    The aging replay names every file it creates after its workload
    inode, and the sequential-I/O benchmark names thousands of files
    per point. [Printf] and [string_of_int] each parse a format string
    per call; this builds the name in one allocation. *)

val numbered : string -> int -> string
(** [numbered prefix n] is [prefix ^ string_of_int n]: for [n >= 0] a
    single string allocation, no intermediate decimal string. *)
