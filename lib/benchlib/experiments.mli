(** Experiment drivers: one entry per table and figure in the paper's
    evaluation. Each returns a printable report (tables and ASCII
    charts) and, when [csv_dir] is given, writes the underlying data as
    CSV for external plotting.

    Building a {!context} performs the expensive shared work once: the
    ground-truth workload, its nightly snapshots, the reconstructed
    workload, and the three aging replays (ground truth on traditional
    FFS; reconstruction on traditional FFS; reconstruction on
    FFS+realloc). Sequential-I/O sweeps are computed lazily and
    cached. *)

type context

val build :
  ?params:Ffs.Params.t ->
  ?days:int ->
  ?seed:int ->
  ?pool:Par.Pool.t ->
  ?timings:Par.Timings.t ->
  ?log:(string -> unit) ->
  unit ->
  context
(** Defaults: the paper file system, 300 days, fixed seed. [log]
    receives progress lines.

    The three replays (and the on-demand sequential-I/O sweeps) fan out on
    [pool]; without one a temporary pool sized to the machine is used
    for the replays and the on-demand sweeps run serially. Results are
    bit-identical for every pool size: each task derives its randomness
    from its own seed, never from execution order. Per-task wall-clock
    times accumulate into [timings]. *)

val days : context -> int

val aged_traditional : context -> Aging.Replay.result
val aged_realloc : context -> Aging.Replay.result

val seqio_points : context -> [ `Traditional | `Realloc ] -> Seqio.point list
(** The sequential-I/O sweep behind Figures 4 to 6 on one aged
    reconstruction image, computed on first use and cached. Every point
    runs on its own {!Ffs.Fs.copy} of the image, fanned out on the
    context's pool when it has one. *)

(** {2 Multi-seed aggregation}

    The paper draws every figure from a single workload draw. The
    multi-seed driver replays [seeds] independent workload draws
    through both allocators — a (seed x allocator) grid fanned out on
    the pool — and aggregates the end-of-run layout scores, so the
    headline numbers come with a mean and spread. *)

type seed_run = {
  seed : int;
  trad_scores : float array;  (** daily aggregate scores, traditional FFS *)
  realloc_scores : float array;  (** daily aggregate scores, FFS+realloc *)
}

type seed_summary = {
  runs : seed_run list;  (** in the order the seeds were given *)
  mean_trad : float;
  stddev_trad : float;
  mean_realloc : float;
  stddev_realloc : float;
  mean_reduction_pct : float;
      (** mean reduction in non-optimally allocated blocks, percent *)
  stddev_reduction_pct : float;
}

val default_seeds : seed:int -> n:int -> int list
(** [n] child seeds split off [seed] via {!Util.Prng.derive}. *)

val build_seeds :
  params:Ffs.Params.t ->
  days:int ->
  ?pool:Par.Pool.t ->
  ?timings:Par.Timings.t ->
  ?log:(string -> unit) ->
  workload:(int -> Workload.Op.t array) ->
  seeds:int list ->
  unit ->
  seed_summary
(** Replays [workload seed] for each of [seeds] on traditional FFS and
    on {!Ffs.Fs.realloc_config}. [workload] must be a [days]-day
    workload for [params] that depends on its seed alone; the summary
    is then deterministic for any pool size (and for no pool at all). *)

val seed_table : seed_summary -> string
(** The per-seed rows: seed, both end-of-run scores and the
    non-optimal-block reduction. *)

val seed_report : seed_summary -> string
(** {!seed_table} under a heading, plus the mean/stddev summary line. *)

val table1 : unit -> string
(** The benchmark configuration (hardware + file system parameters). *)

val fig1 : ?csv_dir:string -> context -> string
(** Aggregate layout score over time: real vs simulated aging. *)

val fig2 : ?csv_dir:string -> context -> string
(** Aggregate layout score over time: FFS vs FFS+realloc. *)

val fig3 : ?csv_dir:string -> context -> string
(** Layout score as a function of file size on the aged images. *)

val fig4 : ?csv_dir:string -> context -> string
(** Sequential read/write throughput vs file size, with raw-disk
    baselines. *)

val fig5 : ?csv_dir:string -> context -> string
(** Layout score of the files created by the sequential benchmark. *)

val fig6 : ?csv_dir:string -> context -> string
(** Layout score of the hot files vs the sequential files. *)

val table2 : ?csv_dir:string -> context -> string
(** Hot-file layout score and read/write throughput. *)

val shape_checks : context -> Paper_expect.shape_check list
(** The cross-experiment qualitative assertions listed in DESIGN.md. *)
