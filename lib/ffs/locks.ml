(* Per-cylinder-group lock table for intra-volume parallel aging.

   Granularity follows the mfmount exemplar: one mutex per cylinder
   group guards that group's bitmaps, extent index, cluster summaries
   and its shard of the superblock-level tables ([Fs] keeps the inode
   and parent tables and the allocation counters per group, summing the
   counters on read as FFS sums its per-group [cs_summary]). There is
   no global lock: a domain pinned to group [g] touches only group
   [g]'s state and reads tables no pinned domain writes.

   Lock hierarchy: cg locks only, always acquired in ascending id order
   ({!with_cgs} enforces this by sorting), so the order is acyclic and
   deadlock-free.

   A domain that holds a cg lock records the pinned group id in
   domain-local storage; [Fs] consults {!pinned} to confine every
   allocation, free and table access to the pinned group, refusing
   anything else with [Cross_cg] before it reads foreign state. Serial
   callers have no pin and touch no mutex. *)

type t = {
  cg_locks : Mutex.t array;
  acq_count : int Atomic.t;
  cont_count : int Atomic.t;
  wait_ns : int Atomic.t;
}

type stats = { acquisitions : int; contended : int; wait_seconds : float }

(* The pinned group of the calling domain, or -1 outside any
   [with_pin]; workers set it for the duration of a batch. *)
let pin_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref (-1))

let create ~ncg =
  {
    cg_locks = Array.init ncg (fun _ -> Mutex.create ());
    acq_count = Atomic.make 0;
    cont_count = Atomic.make 0;
    wait_ns = Atomic.make 0;
  }

let ncg t = Array.length t.cg_locks

let pinned () =
  match !(Domain.DLS.get pin_key) with -1 -> None | p -> Some p

(* Acquire [m], counting the acquisition and — when the fast-path
   try_lock fails — the contention and the wall-clock wait. The timed
   slow path only runs under real contention, so the uncontended cost
   is one try_lock plus two atomic increments. *)
let lock_timed t m =
  Atomic.incr t.acq_count;
  if not (Mutex.try_lock m) then begin
    Atomic.incr t.cont_count;
    let t0 = Unix.gettimeofday () in
    Mutex.lock m;
    let waited = Unix.gettimeofday () -. t0 in
    Atomic.fetch_and_add t.wait_ns (int_of_float (waited *. 1e9)) |> ignore;
    let m = Obs.Metrics.default in
    Obs.Metrics.inc m ~labels:[ ("scope", "cg") ] "ffs_lock_contended_total";
    Obs.Metrics.observe m ~labels:[ ("scope", "cg") ] "ffs_lock_wait_seconds" waited
  end;
  Obs.Metrics.inc Obs.Metrics.default ~labels:[ ("scope", "cg") ] "ffs_lock_acquisitions_total"

let with_pin t ~cg f =
  assert (cg >= 0 && cg < ncg t);
  let pin = Domain.DLS.get pin_key in
  if !pin >= 0 then invalid_arg "Locks.with_pin: domain already pinned";
  lock_timed t t.cg_locks.(cg);
  pin := cg;
  Fun.protect
    ~finally:(fun () ->
      pin := -1;
      Mutex.unlock t.cg_locks.(cg))
    f

let with_cgs t cgs f =
  let cgs = List.sort_uniq compare cgs in
  List.iter
    (fun cg ->
      assert (cg >= 0 && cg < ncg t);
      lock_timed t t.cg_locks.(cg))
    cgs;
  Fun.protect
    ~finally:(fun () -> List.iter (fun cg -> Mutex.unlock t.cg_locks.(cg)) (List.rev cgs))
    f

let stats t =
  {
    acquisitions = Atomic.get t.acq_count;
    contended = Atomic.get t.cont_count;
    wait_seconds = float_of_int (Atomic.get t.wait_ns) /. 1e9;
  }

let diff ~before ~after =
  {
    acquisitions = after.acquisitions - before.acquisitions;
    contended = after.contended - before.contended;
    wait_seconds = after.wait_seconds -. before.wait_seconds;
  }
