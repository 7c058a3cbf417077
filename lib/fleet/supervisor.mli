(** The fault-tolerant fleet supervisor.

    Ages every volume of a {!Spec.t} concurrently on a {!Par.Pool},
    treating each volume as an independent fault domain:

    - Each volume replays via {!Aging.Replay.run_resumable} with
      periodic durable checkpoints into its own {!Aging.Checkpoint}
      store, so any interruption — watchdog timeout, SIGINT drain, or
      [kill -9] of the whole fleet — costs at most one checkpoint
      interval of that volume's work.
    - A per-volume watchdog bounds each attempt's wall clock; on expiry
      the volume checkpoints at the next operation and the attempt
      counts as a failure (no domain is abandoned — the replay itself
      is asked to stop).
    - Failed attempts are retried inside the volume's pool task after
      a fixed exponential backoff with seeded jitter
      ({!Util.Backoff.delay}: 0.05 s doubling to a 1 s cap, +/-25%
      jitter seeded from the fleet seed and the volume id, so a
      resumed fleet sleeps as a straight one would). A volume whose
      consecutive-failure count (persisted in the manifest, so it
      survives restarts) reaches [quarantine_after] is
      {e quarantined}: the fleet degrades gracefully, keeps aging the
      other volumes, and reports the quarantined volume instead of
      aborting.
    - Every status transition atomically rewrites the {!Manifest}, so a
      killed fleet resumes exactly where the manifest says: completed
      volumes keep their recorded summaries, in-flight ones continue
      from their newest valid checkpoint, and the aggregate results are
      bit-identical to an uninterrupted run.

    Determinism: volume results depend only on the spec (workloads and
    fault schedules are regenerated from recorded seeds), never on
    scheduling, retries, or interruptions — the property every
    kill-and-resume test pins. *)

type config = {
  jobs : int;  (** concurrent volumes (pool size) *)
  max_retries : int;
      (** additional attempts per volume {e in this incarnation} after
          its first (so a volume is tried at most [1 + max_retries]
          times per run/resume); exhaustion marks it [Failed], which a
          later resume retries *)
  quarantine_after : int;
      (** consecutive failed attempts — accumulated across incarnations
          via the manifest — after which a volume is quarantined *)
  watchdog : float;  (** per-attempt wall-clock budget in seconds; 0 disables *)
  checkpoint_every : int;  (** days between durable volume checkpoints *)
  checkpoint_keep : int;  (** checkpoints retained per volume *)
  backend : Ffs.Store.spec;
      (** storage backend each volume's image lives on (default in-heap;
          [Mmap_backend] keeps the fleet's images out of the OCaml heap).
          A volume whose spec carries a device-fault plan is wrapped in
          {!Ffs.Store.resilient_spec} around this base, seeded from its
          own [fault_seed] ({!Fault.Plan.device_seed}) *)
  scrub_every : int;
      (** days between {!Ffs.Check.scrub_exn} passes on volumes running
          with device faults (clamped to at least 1 there; fault-free
          volumes never scrub) *)
  log : string -> unit;  (** progress lines; default drops them *)
  chaos : (int -> attempt:int -> unit) option;
      (** test hook, called before volume [id]'s attempt [n]; raising
          makes the attempt fail (how the tests and the smoke target
          force retries and quarantines) *)
  stop_after : int option;
      (** test hook: request a graceful stop once this many volumes have
          completed in this incarnation *)
}

val default_config : config
(** [jobs] = machine default, [max_retries] = 2, [quarantine_after] =
    3, no watchdog, checkpoint every simulated day, keep 2, in-heap
    backend, scrub every day on faulty volumes, no log, no test hooks.
    The backoff between attempts is not configurable: 0.05 s doubling
    to 1 s, +/-25% jitter (see above). *)

type outcome = {
  manifest : Manifest.t;  (** final state, as persisted *)
  interrupted : (int * int) option;
      (** [Some (completed, total)] when a stop request drained the
          fleet early — the {!Par.Pool.Interrupted} payload propagated
          into the result instead of a bare print *)
  retried : int;  (** retry attempts performed in this incarnation *)
}

val start :
  ?config:config -> state_dir:string -> Spec.t -> (outcome, Ffs.Error.t) result
(** Run a fresh fleet, persisting into [state_dir] (created if
    missing). [Error (Corrupt _)] if the directory already holds a
    manifest — an existing fleet must be [resume]d or given a fresh
    directory, never silently clobbered. *)

val resume : ?config:config -> state_dir:string -> unit -> (outcome, Ffs.Error.t) result
(** Continue the fleet recorded in [state_dir]'s manifest: [Done] and
    [Quarantined] volumes are left untouched, everything else runs
    (from its newest valid checkpoint when one exists). Idempotent — a
    resume of a completed fleet returns immediately. *)

val exit_code : outcome -> int
(** 130 when interrupted, 3 when any volume is failed or quarantined,
    0 otherwise — the [ffs_fleet] exit status contract. *)
