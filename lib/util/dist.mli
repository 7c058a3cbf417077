(** Probability distributions used by the synthetic workload generators.

    File sizes on UNIX file systems are classically modelled as a lognormal
    body with a heavy (Pareto) tail; inter-arrival times as exponential or
    bursty mixtures; popularity as Zipf. Each sampler takes an explicit
    {!Prng.t} so callers control determinism. *)

type t
(** A distribution over floats, packaged with its sampler. *)

val sample : t -> Prng.t -> float
(** Draw one value. *)

val mean_estimate : t -> float
(** Analytic mean where known, used for sizing workloads a priori.
    For truncated/mixture forms this is the mean of the untruncated
    components and may slightly overestimate. *)

val constant : float -> t
(** Degenerate distribution. *)

val uniform : lo:float -> hi:float -> t
(** Uniform on [lo, hi). Requires [lo <= hi]. *)

val exponential : mean:float -> t
(** Exponential with the given mean ([mean > 0]). *)

val lognormal : mu:float -> sigma:float -> t
(** Lognormal: [exp (mu + sigma * N(0,1))]. *)

val lognormal_of_median : median:float -> sigma:float -> t
(** Lognormal parameterised by its median (the [exp mu] value), which is
    more intuitive for file sizes. *)

val pareto : xm:float -> alpha:float -> t
(** Pareto with scale [xm > 0] and shape [alpha > 0]; heavy-tailed for
    [alpha <= 2]. *)

val truncate : lo:float -> hi:float -> t -> t
(** Clamp samples into [lo, hi] (clamping, not rejection, so mass piles at
    the bounds — adequate for workload sizing). *)

val mixture : (t * float) array -> t
(** Mixture with the given component weights (non-negative, positive
    sum). *)

val zipf : n:int -> s:float -> t
(** Zipf over ranks 1..n with exponent [s]; returns the rank as a float.
    Sampling is O(log n) via a precomputed CDF. *)
