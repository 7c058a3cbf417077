(** The aging replayer (Section 3.2 of the paper).

    Applies a workload to an empty file system using the paper's
    placement trick: one directory is created per cylinder group up
    front, and every file is created in the directory of the group its
    original inode number maps to, so each group sees the same sequence
    of allocations and deallocations as on the original system.

    At the end of each simulated day the aggregate layout score and the
    utilization are recorded — the data behind Figures 1 and 2. *)

type result = {
  fs : Ffs.Fs.t;  (** the aged image *)
  daily_scores : float array;  (** aggregate layout score, end of each day *)
  daily_utilization : float array;
  skipped_ops : int;  (** operations dropped (e.g. transient no-space) *)
  ino_map : (int, int) Hashtbl.t;
      (** workload inode number -> live inode number in [fs] *)
}

exception Too_many_skips of { skipped : int; total : int; limit : float }
(** Raised as soon as skipped operations exceed [max_skip_fraction] of
    the workload: an experiment silently dropping a large share of its
    operations is not measuring what it claims to. *)

(** Why the replay dropped an operation. *)
type skip_cause =
  | Out_of_space  (** a create or modify the allocator found no room for *)
  | No_live_file
      (** a delete or modify of a file with no live inode: its create
          was skipped, or a crash repair or scrub lost it *)
  | Already_live  (** a create of a file that is already live *)

val default_max_skip_fraction : float
(** 0.9 — catastrophic-only by default; tighten per experiment. *)

val run :
  ?config:Ffs.Fs.config ->
  ?backend:Ffs.Store.spec ->
  ?progress:(day:int -> score:float -> unit) ->
  ?on_skip:(Workload.Op.t -> cause:skip_cause -> skipped:int -> unit) ->
  ?max_skip_fraction:float ->
  params:Ffs.Params.t ->
  days:int ->
  Workload.Op.t array ->
  result
(** Replay a time-sorted workload. [config] selects the allocator under
    test (default: traditional FFS); [backend] selects the volume's
    storage backend (default in-heap; the aged image is bit-identical
    either way). [on_skip] observes every dropped operation with its
    cause and the running skip count (default: ignore);
    [max_skip_fraction] bounds the tolerated skips as a fraction of the
    whole workload, raising {!Too_many_skips} mid-run when crossed. *)

(** {2 Intra-volume parallel replay}

    The same replay with several domains aging the {e one} volume.
    Each day's operations are partitioned into conflict-free batches by
    target cylinder group (the placement trick's own [ino -> group]
    map, so all ops on a file share a batch and keep their order); a
    worker executes a batch while holding that group's lock and pinned
    to it (see {!Ffs.Locks}), and any operation that needs state
    outside its group is deterministically rolled back and redone
    serially after the batches drain. The merged result is
    {b bit-identical at every jobs level}: same image digest
    ({!Ffs.Fs.digest}), same daily score series, same
    [ffs_alloc_blocks_total] — but not {!run}'s image, because deferred
    ops are redone at day end.

    No binary calls this engine: [ffs_age] ages every single-seed image
    with {!run_resumable}. It stays only for perfbench's [age-parallel]
    workload and its own tests. *)

type day_stats = {
  day : int;
  day_ops : int;  (** operations whose timestamp fell in this day *)
  deferred : int;  (** ops redone serially after the parallel phase *)
  batches : int;  (** conflict-free per-group batches *)
  lock_stats : Ffs.Locks.stats;  (** lock activity during the day *)
}

val run_parallel :
  ?config:Ffs.Fs.config ->
  ?backend:Ffs.Store.spec ->
  ?progress:(day:int -> score:float -> unit) ->
  ?on_skip:(Workload.Op.t -> cause:skip_cause -> skipped:int -> unit) ->
  ?max_skip_fraction:float ->
  ?on_day_stats:(day_stats -> unit) ->
  pool:Par.Pool.t ->
  params:Ffs.Params.t ->
  days:int ->
  Workload.Op.t array ->
  result
(** Replay a time-sorted workload on [pool]'s domains. Options as in
    {!run}; [on_day_stats] observes each day's batch/deferral/lock
    accounting after that day's barrier. Skip accounting is merged in
    canonical operation order, so {!Too_many_skips} behaviour matches
    across jobs levels too. Checkpoints and crash injection are not
    available in this mode — use the serial engine for those. *)

(** {2 Crash-consistent replay}

    The hostile-disk mode: the same replay, but power fails after
    selected operations. Each crash tears a burst of metadata writes
    (a seeded {!Fault.Plan}), then [Check.repair] restores consistency
    — exactly a reboot-time fsck — and the replay resumes. The daily
    score series therefore shows what the paper's Figure 1 curves look
    like when the aging run itself must survive recovery. *)

type recovery = {
  after_op : int;  (** index of the operation the crash followed *)
  day : int;  (** simulated day of the crash *)
  faults_injected : int;  (** torn writes actually performed *)
  problems_found : int;  (** problems the post-crash audit reported *)
  repair : Ffs.Check.repair_log;
  files_lost : int;
      (** workload files whose inode was unrecoverable; their later
          operations are skipped *)
}

type crash_result = { result : result; recoveries : recovery list }

val run_with_crashes :
  ?config:Ffs.Fs.config ->
  ?backend:Ffs.Store.spec ->
  ?progress:(day:int -> score:float -> unit) ->
  ?on_skip:(Workload.Op.t -> cause:skip_cause -> skipped:int -> unit) ->
  ?max_skip_fraction:float ->
  ?intensity:int ->
  params:Ffs.Params.t ->
  days:int ->
  crashes:int ->
  fault_seed:int ->
  Workload.Op.t array ->
  crash_result
(** Replay with [crashes] power failures at deterministic,
    [fault_seed]-drawn operation indices; each crash injects about
    [intensity] (default 4) torn metadata writes before recovery. With
    [crashes = 0] this is exactly {!run}. The final image is always
    fsck-clean: every crash is followed by a full repair. *)

(** {2 Checkpoint/resume}

    A long aging run can be paused and resumed with no effect on its
    result: the checkpoint carries the complete replay state — the file
    system image, the day and operation position, the layout-score
    history, the fault PRNG state and pending crash points, and a
    metrics-registry snapshot — and a resumed run is bit-identical to
    one that was never interrupted (same marshalled image, same score
    series, same counters).

    A checkpoint is a value: the image inside it is the portable form
    ({!Ffs.Fs.portable}: no derived indexes, no backend handles), every
    table is copied, and it is exactly what {!Checkpoint} persists. It
    stays valid while the run that took it continues, and resuming it
    does not consume it. *)

type checkpoint

val checkpoint_day : checkpoint -> int
(** Simulated days fully scored when the checkpoint was taken. *)

val checkpoint_next_op : checkpoint -> int
(** Index of the first operation the resumed run will apply. *)

val checkpoint_metrics : checkpoint -> Obs.Metrics.snapshot
(** The metrics registry as of the checkpoint; restore it with
    {!Obs.Metrics.restore} before resuming so counter totals match an
    uninterrupted run. *)

(** {3 Portable results}

    What {!Image} persists: the aged file system flattened to
    {!Ffs.Fs.portable}, the inode map as a sorted association list,
    everything else verbatim. *)

type portable_result = {
  pr_fs : Ffs.Fs.portable;
  pr_daily_scores : float array;
  pr_daily_utilization : float array;
  pr_skipped_ops : int;
  pr_ino_map : (int * int) list;
}

val portable_of_result : result -> portable_result
val result_of_portable : ?backend:Ffs.Store.spec -> portable_result -> result

val run_resumable :
  ?config:Ffs.Fs.config ->
  ?backend:Ffs.Store.spec ->
  ?progress:(day:int -> score:float -> unit) ->
  ?on_skip:(Workload.Op.t -> cause:skip_cause -> skipped:int -> unit) ->
  ?max_skip_fraction:float ->
  ?intensity:int ->
  ?resume:checkpoint ->
  ?should_stop:(unit -> bool) ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(checkpoint -> unit) ->
  ?scrub_every:int ->
  ?on_scrub:(Ffs.Check.scrub_log -> unit) ->
  params:Ffs.Params.t ->
  days:int ->
  crashes:int ->
  fault_seed:int ->
  Workload.Op.t array ->
  [ `Completed of crash_result | `Interrupted of checkpoint ]
(** The engine beneath {!run} and {!run_with_crashes}, with pause and
    resume.

    [resume] continues from a checkpoint instead of an empty file
    system, rebuilding its image on [backend]; the same workload,
    [days] and (for crash runs) fault schedule must be supplied — the
    checkpoint carries a workload fingerprint, and a mismatch (or an
    image that disagrees with its own geometry) raises
    {!Ffs.Error.Error} with [Corrupt _]. [should_stop] is polled
    between operations; when it returns [true] the run stops and
    returns [`Interrupted] with a checkpoint of the exact position.
    [checkpoint_every] > 0 calls
    [on_checkpoint] whenever that many further days complete (measured
    at the first operation past each boundary). [scrub_every] > 0 runs
    {!Ffs.Check.scrub_exn} on the same day-boundary cadence, before any
    checkpoint of the same boundary (so checkpoints capture the healed
    image) — the periodic self-healing hook for fault-injected stores;
    its findings go to [on_scrub]. A fault-injecting (resilient)
    [backend] must only be driven through this serial engine. Note the
    scrub cadence restarts at the resume day: device-fault schedules
    live in the store, not the checkpoint, so a resumed run re-arms its
    plan against the freshly rebuilt store.

    [config] matters only for fresh runs (a resumed image keeps its
    allocator). *)

val hot_inums : result -> since:float -> int list
(** Files in the aged image last modified at or after [since] — the
    paper's "hot set" (Section 5.2) when [since] is 30 days before the
    end. *)
