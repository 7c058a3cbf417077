(** Nightly snapshots.

    A snapshot records, for every live file at the end of a day, what
    the paper's data collection recorded: inode number, size, and inode
    change time. Block lists are implicit (the replayer computes layout
    directly). Capturing snapshots from the ground-truth stream and then
    reconstructing a workload from them (see {!Reconstruct}) is how we
    reproduce the paper's Figure 1 fidelity experiment. *)

type file_record = { ino : int; size : int; ctime : float }

type t = { day : int; files : file_record array (* sorted by inode number *) }

val capture_nightly : Op.t array -> days:int -> t array
(** [capture_nightly ops ~days] replays the operation stream logically
    and snapshots the live set at the end of each day (element [d] =
    state at the end of day [d]). [ops] must be time-sorted and
    well-formed. *)

val live_bytes : t -> int
