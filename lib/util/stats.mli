(** Descriptive statistics and histograms for experiment reporting. *)

val mean : float array -> float
(** Arithmetic mean; 0 for an empty array. *)

val stddev : float array -> float
(** Sample standard deviation (n-1 denominator); 0 for fewer than two
    points. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100]; array must be non-empty. *)

val ratio : float -> float -> float
(** [ratio a b] is [a /. b], or [nan] when [b = 0]. *)

val pct_change : from_:float -> to_:float -> float
(** Percentage change from [from_] to [to_]: [(to_ - from_) / from_ * 100].
    [nan] when [from_ = 0]. *)
