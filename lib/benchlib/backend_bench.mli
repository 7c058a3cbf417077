(** Storage-backend benchmark ([BENCH_backend.json]).

    Ages the paper-geometry volume once per storage backend (in-heap
    [Bytes] and mmap'd file) and reports simulated days per second for
    each. The run {b asserts} that every backend produces the
    same image digest and allocation totals before reporting a single
    number — the differential guarantee the backend API makes. *)

type level = {
  backend : string;  (** [Ffs.Store.spec_name] of the backend measured *)
  seconds : float;
  days_per_sec : float;
  digest : string;  (** {!Ffs.Fs.digest} of the aged image *)
  blocks_allocated : int;
}

type result = {
  days : int;
  seed : int;
  digest : string;  (** shared by all levels, by assertion *)
  levels : level list;
}

val standard_days : int
(** 4 — long enough to exercise every allocator path, short enough for
    a verify gate. *)

val standard_seed : int

val run :
  ?days:int -> ?seed:int -> ?specs:Ffs.Store.spec list -> unit -> result
(** Raises [Failure] if the backends disagree on the image digest or
    allocation totals. *)

val to_json : result -> Obs.Json.t
val pp : result Fmt.t

val best_days_per_sec : Obs.Json.t -> float option
(** Fastest level in a committed baseline JSON, if readable. *)

val gate : baseline:Obs.Json.t -> result -> (unit, string) Stdlib.result
(** [Error] when the new best days/sec falls more than 30% below the
    baseline's. *)
