(** The paper's workload-reconstruction heuristics (Section 3.1).

    Given only the nightly snapshots (inode number, size, ctime — no
    pathnames, no intra-day activity), rebuild a replayable workload:

    - a file present in a snapshot but not its predecessor was {e
      created}, at its recorded ctime;
    - a file whose size or ctime changed between snapshots was {e
      modified} — modelled as delete + rewrite at the new ctime (files
      are seldom updated in place);
    - a file that disappeared was {e deleted} at a {e random} time within
      the day's span of other activity (snapshots say nothing about when);
    - the short-lived files invisible to snapshots are re-injected from
      NFS trace days: each workload day borrows one randomly chosen trace
      day, places its files in the cylinder groups with the most changes
      that day, and time-shifts each directory's operations to the peak
      activity period of the group it joins.

    The result deliberately inherits the paper's information loss: it
    approximates the ground truth, and comparing the two replays is the
    Figure 1 experiment. *)

val run :
  Ffs.Params.t ->
  seed:int ->
  snapshots:Snapshot.t array ->
  nfs:Nfs_source.day_trace array ->
  Op.t array
(** Time-sorted, well-formed workload. Deterministic in [seed]. *)

val of_ground_truth : Ffs.Params.t -> Ground_truth.t -> Op.t array
(** The paper's reconstructed workload: [gt]'s nightly snapshots over
    [gt.profile.days], ten NFS trace days at the profile's short-lived
    pair rate, and {!run}, the last two seeded 17 and 23 past
    [gt.profile.seed]. Everything comes from [gt.profile], so one
    ground truth names one reconstruction. *)
