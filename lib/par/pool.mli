(** A fixed pool of worker domains fed by a mutex/condition task queue.

    The paper's evaluation is embarrassingly parallel: independent
    (seed, allocator, profile, days) replays with no shared state. This
    pool is the one place the repository spawns domains, all of them in
    {!create}; every compute fan-out (the three replays behind a figure
    context, the ablation grid, the sequential-I/O sweep, the
    FFS-vs-LFS rows, multi-seed aggregation) routes through it.

    Design:

    - A pool created with [~jobs:n] runs at most [n] tasks
      concurrently: [n - 1] worker domains plus the submitting caller,
      which {e participates} — while waiting for its batch it pops and
      runs queued tasks instead of blocking. [~jobs:1] therefore spawns
      no domains at all and degenerates to a plain serial map in the
      caller, and nested [parallel_map] calls (a pooled task fanning
      out again) cannot deadlock: the inner caller drains the queue
      itself.
    - Output order is deterministic: [parallel_map pool f xs] writes
      [f xs.(i)] into slot [i] regardless of which domain ran it or in
      what order tasks finished. With pure task functions (everything
      here derives its randomness from an explicit {!Util.Prng} seed),
      results are bit-identical for every [jobs] value.
    - A task that raises does not wedge the pool: the exception is
      caught on the worker, the batch completes, and the first failure
      (lowest index) is re-raised in the caller with its original
      backtrace. The pool remains usable afterwards.
    - Each task runs exactly once. The pool has no retry or timeout
      policy. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], floored at 1. *)

val create : ?jobs:int -> unit -> t
(** Spawn a pool of [jobs - 1] worker domains (default
    {!default_jobs}; values below 1 are clamped to 1). Call
    {!shutdown} when done, or use {!with_pool}. *)

val jobs : t -> int
(** The concurrency bound the pool was created with. *)

val shutdown : t -> unit
(** Stop the workers and join their domains; only call once all batches
    have returned. Idempotent. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)

(** {2 Graceful stop}

    A long sweep should survive being interrupted without losing the
    work already done: on a stop request, tasks already running drain
    to completion (flushing their {!Timings} entries and metrics as
    usual), queued tasks that have not started are skipped, and the
    batch raises {!Interrupted} so the caller can report partial
    results. The stop flag is sticky for the pool's lifetime. *)

exception Interrupted of { completed : int; total : int }
(** Raised by {!parallel_map} (after the batch has drained) when a stop
    request skipped at least one queued task. *)

val request_stop : t -> unit
(** Ask the pool to stop: safe to call from a signal handler or another
    domain. Idempotent. *)

val with_sigint : t -> (unit -> 'a) -> 'a
(** Run [f] with a SIGINT handler that calls {!request_stop} on the
    first [^C] (a second [^C] exits immediately with status 130); the
    previous handler is restored afterwards. *)

val parallel_map :
  ?timings:Timings.t ->
  ?label:('a -> string) ->
  t ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** [parallel_map pool f xs] applies [f] to every element, running up
    to [jobs pool] applications concurrently, and returns the results
    in input order. When [timings] is given, each task records its
    wall-clock time under [label x] (default ["task i"]). If any
    application raised, the lowest-index exception is re-raised with
    its backtrace after the whole batch has finished. *)

val parallel_list_map :
  ?timings:Timings.t ->
  ?label:('a -> string) ->
  t ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** {!parallel_map} over lists, preserving order. *)
