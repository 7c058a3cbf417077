(** File-system consistency checking — an [fsck]-style audit that
    returns a structured report instead of asserting.

    The checks cross-reference three views of the same state: the inode
    table's block claims, the per-group allocation bitmaps, and the
    directory tree. On a correct image all views agree; any divergence
    is reported as a {!problem}. Tests use this to validate the
    simulator after adversarial workloads; {!check_invariants} is the
    assertion-style variant for use inside test oracles. The audit and
    {!repair} share one claim table: an [int] per fragment naming its
    owner, filled in ascending inode order, then walked once per group
    against the bitmaps. *)

type problem =
  | Double_claim of { fragment : int; first_owner : int; second_owner : int }
      (** two inodes claim the same fragment *)
  | Claim_not_allocated of { fragment : int; owner : int }
      (** an inode claims a fragment the bitmap says is free *)
  | Usage_mismatch of { claimed : int; allocated : int }
      (** total fragments claimed by inodes vs. marked used in bitmaps
          (after per-fragment problems are accounted) *)
  | Group_counter_mismatch of { cg : int; what : string; counter : int; recount : int }
  | Orphan_inode of { inum : int }  (** an inode no directory references *)
  | Dangling_entry of { dir : int; name : string; inum : int }
      (** a directory entry naming a nonexistent inode *)
  | Bad_run of { inum : int; addr : int; frags : int }
      (** a run {!run_in_data_area} rejects: a nonsensical address or
          length, an end past the volume (overflowing or not), or a
          group's metadata. One per run, never per fragment; it claims
          nothing. *)
  | Index_mismatch of { cg : int; what : string }
      (** the extent index (run summary included) disagrees with the
          group's bitmaps; [what] is the divergence in words *)
  | Inode_bitmap_mismatch of { cg : int; slot : int; live : bool }
      (** an inode-bitmap bit contradicts the inode table: [live] means
          a live inode's slot is marked free (the dangerous direction —
          the next allocation of that slot would silently overwrite the
          file), [not live] a marked slot holds no inode.  Bit-level on
          purpose: device corruption can flip bits in both directions
          within one group, leaving every {e counter} plausible. *)
  | Layout_counter_mismatch of { cg : int; what : string; counter : int; recount : int }
      (** a group's layout counter ({!Fs.group_layout_counts}: [what]
          is "optimal links" or "counted links") disagrees with a
          recount of its files' runs — a write of an inode's entries
          that bypassed {!Fs.set_entries} *)

type report = {
  problems : problem list;
  files : int;
  directories : int;
  fragments_claimed : int;
}

val run : Fs.t -> report
(** The audit. Problems come in pass order: [Bad_run]s and
    [Double_claim]s as the claim table fills; [Claim_not_allocated]s in
    ascending fragment order; [Usage_mismatch]; free-fragment and
    free-block [Group_counter_mismatch]es; [Layout_counter_mismatch]es;
    [Inode_bitmap_mismatch]es and free-inode counts; [Dangling_entry]s
    in {!Fs.dir_inums} order; [Orphan_inode]s ascending;
    [Index_mismatch]es. *)

val is_clean : report -> bool

val check_invariants : Fs.t -> unit
(** Every group's {!Cg.check_invariants}, then a clean {!run}; raises
    {!Error.Error} [Corrupt] with the report otherwise. For test
    oracles and the crash explorer. It replaces [Fs.check_invariants],
    which did not check orphans, dangling entries or inode bits. *)

val run_in_data_area : Fs.t -> int -> int -> bool
(** [run_in_data_area fs addr frags]: do the [frags] fragments from
    [addr] all lie in groups' data areas? [frags] is bounded before
    [addr + frags] is formed. The one run validator: the audit,
    {!repair} and fault injection share it. *)

val pp_problem : Format.formatter -> problem -> unit
val pp : Format.formatter -> report -> unit

(** {2 Repair}

    The active half of fsck: where {!run} reports divergence between the
    inode table, the bitmaps and the directory tree, {!repair} makes the
    views agree again, treating the inode table's claims as the
    authoritative record (as fsck does — data already on disk wins over
    summary structures). *)

type repair_log = {
  bad_runs_cleared : int;
      (** runs {!run_in_data_area} rejects, dropped whole *)
  double_claims_resolved : int;
      (** runs dropped because an earlier inode already claimed a
          fragment (first owner wins, the later run is lost whole) *)
  leaked_frags_reclaimed : int;
      (** fragments marked allocated that no surviving inode claims *)
  missing_frags_remarked : int;
      (** fragments claimed by an inode but marked free in the bitmap *)
  groups_rebuilt : int;
      (** cylinder groups whose counters (the layout counters
          included) changed when rebuilt *)
  dangling_cleared : int;  (** directory entries naming dead inodes, removed *)
  orphans_reattached : int;
      (** unreferenced inodes given an entry in [lost+found] *)
  lost_found : int option;
      (** the directory the orphans went to, when there were any *)
}

val repair : Fs.t -> (repair_log, Error.t) result
(** Repair in place, in four deterministic passes: (1) prune invalid and
    double-claimed runs from the inode table, arbitrating in ascending
    inode order (direct runs before indirect blocks); (2) rebuild every
    group's bitmaps, counters, extent index and layout counters from
    the surviving claims; (3) remove directory entries naming dead inodes; (4)
    reattach unreferenced inodes to a [lost+found] directory under the
    root, creating it if needed.

    Postconditions: {!run} reports a clean image, and repair is
    idempotent — a second call returns a log for which
    {!repair_is_noop} holds. [Error Out_of_space] in the pathological
    case where the orphan reattachment cannot allocate [lost+found] on
    a completely full disk.

    Each run is recorded as an [fsck.repair] trace span, and the
    non-zero log fields are accumulated into the
    [fsck_repair_actions_total{action}] counter. *)

val repair_exn : Fs.t -> repair_log
(** Like {!repair} but raises {!Error.Error}. *)

val repair_is_noop : repair_log -> bool
(** Did the repair find nothing to fix? ([lost_found] is ignored: an
    image that {e has} a lost+found directory is not dirty.) *)

val pp_repair : Format.formatter -> repair_log -> unit

(** {2 Scrub}

    The device-level sweep: walk the store's chunks verifying per-chunk
    checksums ({!Store.scrub}), then always run the logical audit, and
    escalate to {!repair} when either view found damage. Quarantined or
    torn chunks lose bytes at the store level; the inode table lives in
    the OCaml heap and is authoritative, so repair rebuilds the affected
    groups' bitmaps from it — which is why a scrubbed volume loses no
    user data. *)

type scrub_log = {
  store_report : Store.scrub_report;  (** the chunk walk's findings *)
  problems_found : int;  (** logical problems the audit saw before repair *)
  repaired : bool;  (** whether repair ran (and converged) *)
}

val scrub : Fs.t -> (scrub_log, Error.t) result
(** One scrub cycle. Postconditions on [Ok]: the audit is clean, and
    scrub is idempotent — an immediately repeated scrub finds nothing
    (mismatched chunks are re-blessed once the audit accepts their
    content). [Error Media_error] when the store's quarantine spares are
    exhausted — the volume should be failed, not trusted.

    Recorded as a [store.scrub] trace span; observes [scrub_seconds] and
    bumps [scrub_chunks_total] / [scrub_repaired_total]. *)

val scrub_exn : Fs.t -> scrub_log
(** Like {!scrub} but raises {!Error.Error}. *)

val scrub_is_clean : scrub_log -> bool
(** Did the scrub find nothing at either level? *)

val pp_scrub : Format.formatter -> scrub_log -> unit
