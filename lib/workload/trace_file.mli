(** Plain-text workload traces.

    One operation per line — [C ino size time], [M ino size time],
    [D ino time] — with a version header. Times are seconds from the
    workload start, printed with enough precision to round-trip.
    The paper distributed its aging workload as a file in this spirit;
    the format lets `ffs_age --save-workload` output be re-run,
    diffed, or generated by external tools. *)

val save : path:string -> Op.t array -> unit

val load : path:string -> Op.t array
(** Raises [Failure] with a line number on malformed input. The loaded
    trace is validated with {!Op.check_well_formed}.

    Inode numbers are not just labels: the aging replayer
    ([Aging.Replay]) indexes a dense table by them, sized to the
    volume's inode count and doubled whenever a create names a larger
    one. A replay's memory therefore follows the trace's largest inode
    number, not its number of files: renumber a trace whose inodes are
    sparse (say, hashed 64-bit ids) into a dense range before
    replaying it. Negative inode numbers are rejected. *)

val to_string : Op.t array -> string
val of_string : string -> Op.t array
