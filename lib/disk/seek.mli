(** Seek-time model.

    Seek time as a function of cylinder distance is fitted as
    [a + b*sqrt(d) + c*d] through three published operating points:
    track-to-track, average (taken at one third of the full stroke, the
    mean distance between two uniformly random cylinders), and full
    stroke. This is the standard curve shape from Ruemmler & Wilkes,
    "An introduction to disk drive modeling" (IEEE Computer, 1994). *)

type t

val create :
  single_ms:float -> average_ms:float -> full_ms:float -> max_cylinder:int -> t
(** [max_cylinder] is the largest possible distance (cylinders - 1).
    Requires [0 < single_ms <= average_ms <= full_ms]. *)

val default_for : Geometry.t -> average_ms:float -> t
(** A curve for the given geometry using typical early-90s ratios:
    track-to-track = average / 6.5, full stroke = average * 1.8. *)

val time : t -> int -> float
(** [time t distance] in seconds; 0 for distance 0. Distances beyond
    [max_cylinder] are clamped. *)
