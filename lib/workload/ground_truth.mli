(** The synthetic "original file system" activity stream.

    Substitutes for the Harvard nightly snapshots' underlying activity
    (which we do not have): a research-group home-directory file system
    driven from 9% to 70–90% utilization over ten months, with

    - long-lived files (lognormal body, Pareto tail) created in a fixed
      set of directories with Zipf popularity;
    - modifications modelled as delete+rewrite (files are rarely updated
      in place, per Ousterhout85), biased toward recent and larger files;
    - deletions sized to track a target utilization trajectory, biased
      toward young files (most files die young, per Baker91);
    - same-day create+delete pairs ("short-lived files", the traffic the
      paper recovers from NFS traces), emitted in bursts.

    The stream is the {e ground truth}: replaying it directly gives the
    "Real" curve of Figure 1, while {!Reconstruct} degrades it through
    the paper's snapshot heuristics to give the "Simulated" curve. *)

type profile = {
  seed : int;
  days : int;
  directories : int;
  base_creates_per_day : float;
  modify_fraction : float;  (** modifies per create *)
  short_pairs_per_day : float;
  long_size : Util.Dist.t;
  short_size : Util.Dist.t;
  utilization_start : float;
  utilization_ramp_days : int;
  utilization_lo : float;
  utilization_hi : float;
}

val default : Ffs.Params.t -> profile
(** Calibrated against the paper's workload description: 300 days,
    roughly 800 k operations writing tens of gigabytes, utilization 9%
    at the start and 70–90% for most of the run. *)

val scaled : Ffs.Params.t -> days:int -> profile
(** A proportionally lighter profile for short runs and tests; at
    [days >= 300] it is {!default} with [days] replaced. *)

type t = {
  profile : profile;
  ops : Op.t array;  (** time-sorted, well-formed *)
  utilization_targets : float array;  (** per day *)
}

val generate : Ffs.Params.t -> profile -> t
(** Deterministic in [profile.seed]. *)
