(** Durable checkpoint store for aging runs.

    Each checkpoint ([ckpt-op<NNNNNNNNN>-day<NNNN>.ffsck]) is one
    {!Recover.Container} file in a directory, written atomically
    (temp + fsync + rename) and CRC-protected, carrying the whole
    portable replay state. The store keeps the last few checkpoints, and
    loading falls back past a corrupted or truncated newest file to the
    most recent valid one: losing power {e while} checkpointing
    therefore costs at most one checkpoint interval, never the run. *)

val save : dir:string -> keep:int -> Replay.checkpoint -> (string, Ffs.Error.t) result
(** Write a checkpoint into [dir] (created if missing) and prune all but
    the [keep] newest checkpoint files ([keep <= 0] keeps everything).
    Returns the path written; [Error (Io _)] on OS-level write
    failure. *)

val save_exn : dir:string -> keep:int -> Replay.checkpoint -> string

val load : path:string -> (Replay.checkpoint, Ffs.Error.t) result
(** Decode the checkpoint [path] holds; no image is built until
    {!Replay.run_resumable} resumes it. [Error (Corrupt _)] for a
    missing, truncated, bit-flipped, wrong-version or wrong-kind
    file. *)

val load_latest : dir:string -> (string * Replay.checkpoint, Ffs.Error.t) result
(** Newest valid checkpoint in [dir] (returning its path), skipping —
    with a logged warning — any newer file that fails validation.
    [Error (Corrupt _)] when the directory holds no loadable
    checkpoint. *)

val list : dir:string -> string list
(** Checkpoint files in [dir], newest first (empty for a missing
    directory). *)
