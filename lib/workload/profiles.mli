(** Alternative workload profiles — the paper's future work (Section 6):
    "we also plan to generate a variety of different aging workloads
    representative of different file system usage patterns, such as
    news, database, and personal computing workloads."

    Every profile emits the same {!Op} vocabulary, so the aging replayer
    and every benchmark run unchanged against any of them.

    - {!Home}: the research-group home directories the paper used
      (delegates to {!Ground_truth}).
    - {!News}: a news spool — a firehose of small articles expired in
      near-FIFO order after a retention period; high, flat utilization
      and relentless churn.
    - {!Database}: a handful of large table files periodically rewritten
      (grown), plus a rotation of medium-sized write-ahead logs; few
      operations, big extents.
    - {!Personal}: a personal workstation — bursty editing sessions on
      small documents, application caches that churn, weekends quiet. *)

type kind = Home | News | Database | Personal

val all : kind list
val name : kind -> string

val build : Ffs.Params.t -> kind -> days:int -> seed:int -> Op.t array
(** A time-sorted, well-formed workload. Deterministic in [seed]. *)
