(** Deterministic pseudo-random number generation.

    All stochastic components of the reproduction draw from this module so
    that every experiment is reproducible bit-for-bit from a seed. The
    generator is splitmix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny,
    high-quality 64-bit generator with cheap [split]. We do not use
    [Stdlib.Random] because its default state is shared and its algorithm
    changed across OCaml releases. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a fresh generator. Equal seeds give equal
    streams. *)

val copy : t -> t
(** Independent copy of the current state; the copy and the original
    produce identical subsequent streams. *)

val derive : seed:int -> index:int -> int
(** [derive ~seed ~index] is a child seed: the [index]-th split of a
    generator seeded with [seed], collapsed to a non-negative int.
    Distinct indices give statistically independent streams, so a
    parallel fan-out can hand stream [i] to task [i] and produce
    bit-identical results regardless of execution order or the number
    of domains. *)

val split : t -> t
(** [split t] derives a new generator whose stream is statistically
    independent of [t]'s remaining stream, and advances [t]. Use to give
    each subsystem its own stream so adding draws in one place does not
    perturb another. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). *)

val unit_float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [0,1]). *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller, polar form). *)

val pick : t -> 'a array -> 'a
(** Uniformly random element. Array must be non-empty. *)

val pick_weighted : t -> ('a * float) array -> 'a
(** Element drawn with probability proportional to its weight. Weights
    must be non-negative with a positive sum. *)
