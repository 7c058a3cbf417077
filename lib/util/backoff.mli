(** The retry-backoff schedule of the resilient store's transient-fault
    loop ({!Ffs.Store}). *)

val delay : base:float -> cap:float -> jitter:float -> seed:int -> attempt:int -> float
(** The sleep after failed attempt [attempt] (1-based):
    [min cap (base * 2^(attempt-1))], scaled by [1 - jitter + 2 jitter u]
    so it lies in [[1 - jitter, 1 + jitter]] times the capped base.
    [u] in [[0, 1)] is the first draw of a generator seeded with
    [Prng.derive ~seed ~index:attempt]: a pure function of
    [(seed, attempt)] that touches no other stream, so schedules are
    reproducible and adding a retry perturbs no other draw. *)
