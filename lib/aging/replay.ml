let src = Logs.Src.create "aging.replay" ~doc:"file-system aging replayer"

module Log = (val Logs.src_log src : Logs.LOG)

type result = {
  fs : Ffs.Fs.t;
  daily_scores : float array;
  daily_utilization : float array;
  skipped_ops : int;
  ino_map : (int, int) Hashtbl.t;
}

exception Too_many_skips of { skipped : int; total : int; limit : float }

type skip_cause = Out_of_space | No_live_file | Already_live

let () =
  Printexc.register_printer (function
    | Too_many_skips { skipped; total; limit } ->
        Some
          (Fmt.str "Aging.Replay.Too_many_skips (%d of %d operations, limit %.0f%%)"
             skipped total (100.0 *. limit))
    | _ -> None)

(* --- the replay engine ---------------------------------------------------- *)

(* State of one in-progress replay, factored out so that the plain run
   and the crash-injecting run share every operation and day-rollover
   semantic (and therefore produce identical images when no crash is
   injected). *)
type engine = {
  fs : Ffs.Fs.t;
  group_dirs : int array;
  ino_map : (int, int) Hashtbl.t;
  daily_scores : float array;
  daily_utilization : float array;
  days : int;
  total_ops : int;
  max_skip_fraction : float;
  on_skip : Workload.Op.t -> cause:skip_cause -> skipped:int -> unit;
  progress : day:int -> score:float -> unit;
  mutable skipped : int;
  mutable next_day : int;
}

let make_engine ~config ~backend ~progress ~on_skip ~max_skip_fraction ~params ~days ~total_ops =
  let fs = Ffs.Fs.create ~config ~backend params in
  let ncg = params.Ffs.Params.ncg in
  (* one directory per cylinder group, pinned *)
  let group_dirs =
    Array.init ncg (fun cg ->
        Ffs.Fs.mkdir_in_cg_exn fs ~parent:(Ffs.Fs.root fs) ~name:(Fmt.str "cg%03d" cg) ~cg)
  in
  {
    fs;
    group_dirs;
    ino_map = Hashtbl.create 4096;
    daily_scores = Array.make days 1.0;
    daily_utilization = Array.make days 0.0;
    days;
    total_ops;
    max_skip_fraction;
    on_skip;
    progress;
    skipped = 0;
    next_day = 0;
  }

let day_end d = float_of_int (d + 1) *. Workload.Op.seconds_per_day

let metrics = Obs.Metrics.default

let finish_day e =
  let d = e.next_day in
  e.daily_scores.(d) <- Layout_score.aggregate e.fs;
  e.daily_utilization.(d) <- Ffs.Fs.utilization e.fs;
  Obs.Metrics.inc metrics "replay_days_total";
  if Obs.Trace.enabled () then
    Obs.Trace.event "replay.day"
      [
        Obs.Trace.i "day" d;
        Obs.Trace.f "score" e.daily_scores.(d);
        Obs.Trace.f "utilization" e.daily_utilization.(d);
      ];
  e.progress ~day:d ~score:e.daily_scores.(d);
  e.next_day <- e.next_day + 1

let skip e op cause =
  e.skipped <- e.skipped + 1;
  Obs.Metrics.inc metrics "replay_skips_total";
  e.on_skip op ~cause ~skipped:e.skipped;
  if float_of_int e.skipped > e.max_skip_fraction *. float_of_int e.total_ops then
    raise (Too_many_skips { skipped = e.skipped; total = e.total_ops; limit = e.max_skip_fraction })

let op_kind = function
  | Workload.Op.Create _ -> "create"
  | Workload.Op.Delete _ -> "delete"
  | Workload.Op.Modify _ -> "modify"

(* One static label set per op kind: a counter call with metrics off
   then costs the registry's flag load and allocates nothing. *)
let create_labels = Some [ ("kind", "create") ]
let delete_labels = Some [ ("kind", "delete") ]
let modify_labels = Some [ ("kind", "modify") ]

let count_op op =
  Obs.Metrics.inc metrics
    ?labels:
      (match op with
      | Workload.Op.Create _ -> create_labels
      | Workload.Op.Delete _ -> delete_labels
      | Workload.Op.Modify _ -> modify_labels)
    "replay_ops_total"

(* out of space is an expected outcome at high utilization (the op is
   skipped, as the paper's aging tool does); every other error means the
   replay itself is broken, so it escapes *)
let skip_if_full e op = function
  | Ok _ -> ()
  | Error Ffs.Error.Out_of_space ->
      Log.warn (fun m ->
          m "out of space replaying %s inode %d; op skipped" (op_kind op)
            (Workload.Op.ino_of op));
      skip e op Out_of_space
  | Error err -> Ffs.Error.raise_ err

let apply e op =
  Ffs.Fs.set_time e.fs (Workload.Op.time_of op);
  count_op op;
  match op with
  | Workload.Op.Create { ino; size; _ } -> (
      match Hashtbl.find_opt e.ino_map ino with
      | Some _ ->
          (* shouldn't happen in a well-formed workload *)
          skip e op Already_live
      | None ->
          let ipg = Ffs.Params.inodes_per_group (Ffs.Fs.params e.fs) in
          let cg = ino / ipg mod Array.length e.group_dirs in
          let dir = e.group_dirs.(cg) in
          Ffs.Fs.create_file e.fs ~dir ~name:("f" ^ string_of_int ino) ~size
          |> Result.map (fun inum -> Hashtbl.replace e.ino_map ino inum)
          |> skip_if_full e op)
  | Workload.Op.Delete { ino; _ } -> (
      match Hashtbl.find_opt e.ino_map ino with
      | None -> skip e op No_live_file
      | Some inum ->
          Ffs.Fs.delete_inum_exn e.fs inum;
          Hashtbl.remove e.ino_map ino)
  | Workload.Op.Modify { ino; size; _ } -> (
      match Hashtbl.find_opt e.ino_map ino with
      | None -> skip e op No_live_file
      | Some inum -> skip_if_full e op (Ffs.Fs.rewrite_file e.fs ~inum ~size))

let step e op =
  while e.next_day < e.days && Workload.Op.time_of op >= day_end e.next_day do
    finish_day e
  done;
  apply e op

let finish e =
  while e.next_day < e.days do
    finish_day e
  done;
  {
    fs = e.fs;
    daily_scores = e.daily_scores;
    daily_utilization = e.daily_utilization;
    skipped_ops = e.skipped;
    ino_map = e.ino_map;
  }

let default_max_skip_fraction = 0.9

(* --- intra-volume parallel replay ------------------------------------------ *)

(* Per-day accounting of a parallel replay, handed to [on_day_stats]
   after each day's barrier. *)
type day_stats = {
  day : int;
  day_ops : int;
  deferred : int;  (** ops that fell back to the serial phase *)
  batches : int;  (** per-cg conflict-free batches executed *)
  lock_stats : Ffs.Locks.stats;  (** lock activity during the day *)
}

(* What one op of a parallel batch came to; the coordinator reads a
   day's outcomes in canonical op order. *)
type outcome = Applied | Skipped | Deferred

(* A batch's private state. The shared [ino_map] is read-only while the
   batches run: each batch writes its creates ([Some inum]) and deletes
   ([None]) into its own [overlay], which the coordinator folds in after
   the join. Batches own disjoint workload inodes (the partition key is
   the inode's group), so fold order does not matter.

   [deferred] holds the workload inodes with a deferred op earlier in
   this batch. Once a file's op defers, every later op on it this day
   must defer too — otherwise a Modify after a deferred Create would see
   "no such file" and skip, where the serial order (create, then
   modify) applies both. Batch contents don't depend on the jobs level,
   so deferral decisions stay jobs-independent. *)
type batch = { overlay : (int, int option) Hashtbl.t; deferred : (int, unit) Hashtbl.t }

let new_batch () = { overlay = Hashtbl.create 64; deferred = Hashtbl.create 8 }

let batch_lookup e b ino =
  match Hashtbl.find_opt b.overlay ino with
  | Some v -> v
  | None -> Hashtbl.find_opt e.ino_map ino

(* a top-level function, not a per-op closure over [b] *)
let defer b ino =
  Hashtbl.replace b.deferred ino ();
  Deferred

(* One operation executed on a worker pinned to its cylinder group.
   Returns the outcome instead of acting on the engine's shared skip
   state: the coordinator merges outcomes in canonical operation order,
   so skip accounting (and [Too_many_skips]) is identical at every jobs
   level. [Deferred] means the op needs state outside its group — it was
   rolled back (or deterministically part-done, for a rewrite's
   truncation) and the serial phase will redo it with the whole volume
   visible. *)
let papply e b op =
  let time = Workload.Op.time_of op in
  match op with
  | _ when Hashtbl.mem b.deferred (Workload.Op.ino_of op) -> Deferred
  | Workload.Op.Create { ino; size; _ } -> (
      match batch_lookup e b ino with
      | Some _ ->
          count_op op;
          Skipped
      | None -> (
          let ipg = Ffs.Params.inodes_per_group (Ffs.Fs.params e.fs) in
          let cg = ino / ipg mod Array.length e.group_dirs in
          let dir = e.group_dirs.(cg) in
          match Ffs.Fs.create_file_at e.fs ~time ~dir ~name:("f" ^ string_of_int ino) ~size with
          | Ok inum ->
              Hashtbl.replace b.overlay ino (Some inum);
              count_op op;
              Applied
          | Error (Ffs.Error.Cross_cg _ | Ffs.Error.Out_of_space) -> defer b ino
          | Error err -> Ffs.Error.raise_ err))
  | Workload.Op.Delete { ino; _ } -> (
      match batch_lookup e b ino with
      | None ->
          count_op op;
          Skipped
      | Some inum -> (
          match Ffs.Fs.delete_inum e.fs inum with
          | Ok () ->
              Hashtbl.replace b.overlay ino None;
              count_op op;
              Applied
          | Error (Ffs.Error.Cross_cg _) -> defer b ino
          | Error err -> Ffs.Error.raise_ err))
  | Workload.Op.Modify { ino; size; _ } -> (
      match batch_lookup e b ino with
      | None ->
          count_op op;
          Skipped
      | Some inum -> (
          match Ffs.Fs.rewrite_file_at e.fs ~time ~inum ~size with
          | Ok () ->
              count_op op;
              Applied
          | Error (Ffs.Error.Cross_cg _ | Ffs.Error.Out_of_space) -> defer b ino
          | Error err -> Ffs.Error.raise_ err))

(* Replay with several domains aging the one volume.

   Each day's slice of the (time-sorted) op stream is partitioned by
   target cylinder group — the same [ino -> group] map the placement
   trick uses, and the same key for a file's create, modify and delete,
   so every op on one file lands in one batch and batch order preserves
   per-file order. Batches are conflict-free by construction: a worker
   pins its group's lock (see [Ffs.Locks]) and every placement decision
   inside the batch depends only on that group's state. Ops that need
   the whole volume (allocator overflow, indirect-range placement,
   foreign-group frees) deterministically raise [Cross_cg], are rolled
   back, and re-run serially in canonical index order after the
   parallel phase — so the merged result, and therefore the image
   digest, score series and counters, is bit-identical at every jobs
   level. *)
let run_parallel ?(config = Ffs.Fs.default_config) ?(backend = Ffs.Store.Heap_backend)
    ?(progress = fun ~day:_ ~score:_ -> ()) ?(on_skip = fun _ ~cause:_ ~skipped:_ -> ())
    ?(max_skip_fraction = default_max_skip_fraction)
    ?(on_day_stats = fun (_ : day_stats) -> ()) ~pool ~params ~days ops =
  Obs.Trace.span "replay.run_parallel"
    [ Obs.Trace.i "days" days; Obs.Trace.i "ops" (Array.length ops);
      Obs.Trace.i "jobs" (Par.Pool.jobs pool) ]
  @@ fun () ->
  let e =
    make_engine ~config ~backend ~progress ~on_skip ~max_skip_fraction ~params ~days
      ~total_ops:(Array.length ops)
  in
  let ncg = params.Ffs.Params.ncg in
  let locks = Ffs.Locks.create ~ncg in
  let ipg = Ffs.Params.inodes_per_group params in
  let key op = Workload.Op.ino_of op / ipg mod ncg in
  let n = Array.length ops in
  let pos = ref 0 in
  for d = 0 to days - 1 do
    assert (e.next_day = d);
    let fin = day_end d in
    let lo = !pos in
    while !pos < n && Workload.Op.time_of ops.(!pos) < fin do
      incr pos
    done;
    let hi = !pos in
    let buckets = Array.make ncg [] in
    for idx = hi - 1 downto lo do
      buckets.(key ops.(idx)) <- idx :: buckets.(key ops.(idx))
    done;
    let nonempty =
      Array.to_list (Array.init ncg Fun.id)
      |> List.filter (fun cg -> buckets.(cg) <> [])
      |> Array.of_list
    in
    let locks_before = Ffs.Locks.stats locks in
    (* phase 1: conflict-free per-group batches on the pool; each op's
       outcome goes to its own slot of the day's array *)
    let outcomes = Array.make (hi - lo) Applied in
    let overlays =
      Par.Pool.parallel_map pool
        (fun cg ->
          let b = new_batch () in
          Ffs.Locks.with_pin locks ~cg (fun () ->
              List.iter (fun idx -> outcomes.(idx - lo) <- papply e b ops.(idx)) buckets.(cg));
          b.overlay)
        nonempty
    in
    Array.iter
      (Hashtbl.iter (fun ino -> function
         | Some inum -> Hashtbl.replace e.ino_map ino inum
         | None -> Hashtbl.remove e.ino_map ino))
      overlays;
    (* deterministic merge: skips, then the serial redo of deferred ops
       (unpinned, whole volume visible), each in canonical op order *)
    Array.iteri
      (fun i -> function
        | Skipped ->
            (* [papply] skips only a create of a live file and a delete
               or modify of a file that is not live *)
            let op = ops.(lo + i) in
            skip e op (match op with Workload.Op.Create _ -> Already_live | _ -> No_live_file)
        | Applied | Deferred -> ())
      outcomes;
    let deferred = ref 0 in
    Array.iteri
      (fun i -> function
        | Deferred ->
            incr deferred;
            apply e ops.(lo + i)
        | Applied | Skipped -> ())
      outcomes;
    (* canonical clock: the serial replay leaves the fs clock at the
       last applied op's timestamp *)
    if hi > lo then Ffs.Fs.set_time e.fs (Workload.Op.time_of ops.(hi - 1));
    finish_day e;
    on_day_stats
      {
        day = d;
        day_ops = hi - lo;
        deferred = !deferred;
        batches = Array.length nonempty;
        lock_stats = Ffs.Locks.diff ~before:locks_before ~after:(Ffs.Locks.stats locks);
      }
  done;
  (* stragglers past the last day boundary, exactly as the serial engine
     applies them (scored by [finish] below) *)
  while !pos < n do
    apply e ops.(!pos);
    incr pos
  done;
  finish e

(* --- crash-consistent replay ---------------------------------------------- *)

type recovery = {
  after_op : int;
  day : int;
  faults_injected : int;
  problems_found : int;
  repair : Ffs.Check.repair_log;
  files_lost : int;
}

type crash_result = { result : result; recoveries : recovery list }

(* a forgotten inode is unrecoverable: drop its workload mapping so
   later operations on it are skipped rather than misdirected. Shared
   by crash recovery and the scrub hook — any repair may conclude an
   inode cannot be salvaged. *)
let drop_lost_mappings e =
  let lost =
    Hashtbl.fold
      (fun ino inum acc ->
        (* presence alone does not prove the mapping still points at
           the workload's file: repair may recycle a forgotten file's
           inum for its own lost+found directory, so a mapping whose
           inode is no longer a plain file is as lost as a vanished
           one *)
        match Ffs.Fs.inode e.fs inum with
        | inode -> if inode.Ffs.Inode.kind <> Ffs.Inode.File then ino :: acc else acc
        | exception Not_found -> ino :: acc)
      e.ino_map []
  in
  List.iter (fun ino -> Hashtbl.remove e.ino_map ino) lost;
  (* the placement trick's per-group directories are infrastructure,
     not workload data: if the repair concluded one was unrecoverable,
     recreate it so its group keeps receiving the workload's
     allocations instead of failing every later create *)
  Array.iteri
    (fun cg inum ->
      match Ffs.Fs.inode e.fs inum with
      | _ -> ()
      | exception Not_found ->
          e.group_dirs.(cg) <-
            Ffs.Fs.mkdir_in_cg_exn e.fs ~parent:(Ffs.Fs.root e.fs)
              ~name:(Fmt.str "cg%03d" cg) ~cg)
    e.group_dirs;
  lost

let crash e ~after_op ~rng ~intensity =
  (* power fails just after operation [after_op]: a burst of torn
     metadata writes, then fsck-with-repair brings the image back to
     consistency before the replay resumes with the next day's traffic *)
  let spec = Fault.Plan.gen ~rng ~intensity in
  let events = Fault.Inject.apply e.fs ~rng spec in
  let before = Ffs.Check.run e.fs in
  let repair = Ffs.Check.repair_exn e.fs in
  Obs.Metrics.inc metrics "replay_crashes_total";
  let lost = drop_lost_mappings e in
  if Obs.Trace.enabled () then
    Obs.Trace.event "replay.crash"
      [
        Obs.Trace.i "after_op" after_op;
        Obs.Trace.i "faults" (List.length events);
        Obs.Trace.i "problems" (List.length before.Ffs.Check.problems);
        Obs.Trace.i "files_lost" (List.length lost);
      ];
  {
    after_op;
    day = min (e.days - 1) e.next_day;
    faults_injected = List.length events;
    problems_found = List.length before.Ffs.Check.problems;
    repair;
    files_lost = List.length lost;
  }

(* --- checkpoint/resume ----------------------------------------------------- *)

(* The complete state of a paused replay: everything [engine] holds
   except its callbacks (closures don't marshal; the caller re-supplies
   them on resume), plus the position in the op stream, the fault PRNG
   state, the not-yet-fired crash points, the recoveries so far, and a
   snapshot of the metrics registry. The fs is flattened to its
   canonical {!Ffs.Fs.portable} (raw bitmap bytes, no derived indexes,
   no backend handles — an mmap-backed volume's [Fs.t] must never meet
   [Marshal]), the inode map to a sorted association list, and every
   mutable piece is copied: a checkpoint is a value, stable while the
   run continues, and it is exactly what {!Checkpoint} marshals. *)
type checkpoint = {
  pc_fs : Ffs.Fs.portable;
  pc_group_dirs : int array;
  pc_ino_map : (int * int) list;  (* sorted by workload inode *)
  pc_daily_scores : float array;
  pc_daily_utilization : float array;
  pc_days : int;
  pc_total_ops : int;
  pc_skipped : int;
  pc_next_day : int;
  pc_next_op : int;  (* index of the first op not yet applied *)
  pc_ops_crc : int32;  (* fingerprint of the workload being replayed *)
  pc_fault_rng : Util.Prng.t;
  pc_pending_crashes : int list;
  pc_recoveries : recovery list;  (* reverse chronological *)
  pc_metrics : Obs.Metrics.snapshot;
}

(* Each op's kind, ino, size and time bits, streamed through CRC-32 from
   one reused buffer: nothing the size of the workload is built. The
   buffer is viewed as a string only for the synchronous [update]. *)
let ops_fingerprint ops =
  let buf = Bytes.create 25 in
  let view = Bytes.unsafe_to_string buf in
  Util.Crc32.finish
    (Array.fold_left
       (fun crc op ->
         Bytes.set_uint8 buf 0
           (match op with Workload.Op.Create _ -> 0 | Delete _ -> 1 | Modify _ -> 2);
         Bytes.set_int64_le buf 1 (Int64.of_int (Workload.Op.ino_of op));
         Bytes.set_int64_le buf 9 (Int64.of_int (Workload.Op.bytes_written op));
         Bytes.set_int64_le buf 17 (Int64.bits_of_float (Workload.Op.time_of op));
         Util.Crc32.update crc view ~pos:0 ~len:25)
       Util.Crc32.empty ops)

let checkpoint_day ck = ck.pc_next_day
let checkpoint_next_op ck = ck.pc_next_op
let checkpoint_metrics ck = ck.pc_metrics

let sorted_bindings h = Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [] |> List.sort compare

(* What Image persists: the aged fs flattened to its portable form, the
   inode map sorted, everything else verbatim *)
type portable_result = {
  pr_fs : Ffs.Fs.portable;
  pr_daily_scores : float array;
  pr_daily_utilization : float array;
  pr_skipped_ops : int;
  pr_ino_map : (int * int) list;  (* sorted by workload inode *)
}

let portable_of_result (r : result) =
  {
    pr_fs = Ffs.Fs.to_portable r.fs;
    pr_daily_scores = Array.copy r.daily_scores;
    pr_daily_utilization = Array.copy r.daily_utilization;
    pr_skipped_ops = r.skipped_ops;
    pr_ino_map = sorted_bindings r.ino_map;
  }

let result_of_portable ?backend pr =
  let ino_map = Hashtbl.create (max 4096 (List.length pr.pr_ino_map)) in
  List.iter (fun (k, v) -> Hashtbl.replace ino_map k v) pr.pr_ino_map;
  {
    fs = Ffs.Fs.of_portable ?backend pr.pr_fs;
    daily_scores = Array.copy pr.pr_daily_scores;
    daily_utilization = Array.copy pr.pr_daily_utilization;
    skipped_ops = pr.pr_skipped_ops;
    ino_map;
  }

let corrupt_resume fmt = Fmt.kstr (fun m -> Ffs.Error.raise_ (Ffs.Error.Corrupt m)) fmt

(* The engine a checkpoint resumes, its image rebuilt on [backend];
   the checkpoint itself is left untouched, so it can be resumed again *)
let engine_of_checkpoint ~backend ~progress ~on_skip ~max_skip_fraction ~days ~ops ~ops_crc ck =
  if ck.pc_ops_crc <> ops_crc () then
    corrupt_resume "resume: checkpoint was taken against a different workload";
  if ck.pc_days <> days then
    corrupt_resume "resume: checkpoint is for a %d-day run, not %d days" ck.pc_days days;
  if ck.pc_total_ops <> Array.length ops then
    corrupt_resume "resume: checkpoint expects %d operations, workload has %d" ck.pc_total_ops
      (Array.length ops);
  let ino_map = Hashtbl.create (max 4096 (List.length ck.pc_ino_map)) in
  List.iter (fun (k, v) -> Hashtbl.replace ino_map k v) ck.pc_ino_map;
  {
    fs = Ffs.Fs.of_portable ~backend ck.pc_fs;
    group_dirs = Array.copy ck.pc_group_dirs;
    ino_map;
    daily_scores = Array.copy ck.pc_daily_scores;
    daily_utilization = Array.copy ck.pc_daily_utilization;
    days;
    total_ops = ck.pc_total_ops;
    max_skip_fraction;
    on_skip;
    progress;
    skipped = ck.pc_skipped;
    next_day = ck.pc_next_day;
  }

(* --- the resumable driver -------------------------------------------------- *)

let run_resumable ?(config = Ffs.Fs.default_config) ?(backend = Ffs.Store.Heap_backend)
    ?(progress = fun ~day:_ ~score:_ -> ()) ?(on_skip = fun _ ~cause:_ ~skipped:_ -> ())
    ?(max_skip_fraction = default_max_skip_fraction) ?(intensity = 4) ?resume
    ?(should_stop = fun () -> false) ?(checkpoint_every = 0)
    ?(on_checkpoint = fun (_ : checkpoint) -> ()) ?(scrub_every = 0)
    ?(on_scrub = fun (_ : Ffs.Check.scrub_log) -> ()) ~params ~days ~crashes ~fault_seed
    ops =
  (* only checkpoints and resumes read the fingerprint, a pass over the
     whole workload: computed on first use, then kept *)
  let crc = ref None in
  let ops_crc () =
    match !crc with
    | Some c -> c
    | None ->
        let c = ops_fingerprint ops in
        crc := Some c;
        c
  in
  let e, rng, pending0, recoveries0, start_op =
    match resume with
    | None ->
        let e =
          make_engine ~config ~backend ~progress ~on_skip ~max_skip_fraction ~params ~days
            ~total_ops:(Array.length ops)
        in
        (* the logical stream is a derived child of --fault-seed, the
           sibling of the device stream ([Fault.Plan.device_seed]), so one
           seed reproduces a whole mixed-fault run *)
        let rng = Util.Prng.create ~seed:(Fault.Plan.logical_seed ~fault_seed) in
        let points = Fault.Plan.crash_points ~rng ~n_ops:(Array.length ops) ~crashes in
        (e, rng, points, [], 0)
    | Some ck ->
        let e =
          engine_of_checkpoint ~backend ~progress ~on_skip ~max_skip_fraction ~days ~ops
            ~ops_crc ck
        in
        (e, Util.Prng.copy ck.pc_fault_rng, ck.pc_pending_crashes, ck.pc_recoveries, ck.pc_next_op)
  in
  let recoveries = ref recoveries0 in
  let pending = ref pending0 in
  let last_ckpt_day = ref e.next_day in
  let last_scrub_day = ref e.next_day in
  let n = Array.length ops in
  let interrupted = ref None in
  let i = ref start_op in
  (* outside the loop: a closure built per op would allocate per op *)
  let take () =
    {
      pc_fs = Ffs.Fs.to_portable e.fs;
      pc_group_dirs = Array.copy e.group_dirs;
      pc_ino_map = sorted_bindings e.ino_map;
      pc_daily_scores = Array.copy e.daily_scores;
      pc_daily_utilization = Array.copy e.daily_utilization;
      pc_days = e.days;
      pc_total_ops = e.total_ops;
      pc_skipped = e.skipped;
      pc_next_day = e.next_day;
      pc_next_op = !i;
      pc_ops_crc = ops_crc ();
      pc_fault_rng = Util.Prng.copy rng;
      pc_pending_crashes = !pending;
      pc_recoveries = !recoveries;
      pc_metrics = Obs.Metrics.snapshot metrics;
    }
  in
  while !interrupted = None && !i < n do
    let idx = !i in
    step e ops.(idx);
    (match !pending with
    | p :: rest when p = idx ->
        pending := rest;
        recoveries := crash e ~after_op:idx ~rng ~intensity :: !recoveries
    | _ -> ());
    incr i;
    if scrub_every > 0 && e.next_day >= !last_scrub_day + scrub_every then begin
      (* scrub before any checkpoint of the same day boundary, so the
         checkpoint captures the healed image *)
      last_scrub_day := e.next_day;
      let log = Ffs.Check.scrub_exn e.fs in
      (* a repairing scrub may have discarded unrecoverable inodes
         (a torn sync can take out a bitmap region wholesale);
         reconcile the workload map exactly as a crash recovery does,
         so their later operations are skipped, not misdirected *)
      if log.Ffs.Check.repaired then ignore (drop_lost_mappings e);
      on_scrub log
    end;
    if should_stop () then interrupted := Some (take ())
    else if checkpoint_every > 0 && e.next_day >= !last_ckpt_day + checkpoint_every then begin
      last_ckpt_day := e.next_day;
      Obs.Metrics.inc metrics "replay_checkpoints_total";
      on_checkpoint (take ())
    end
  done;
  match !interrupted with
  | Some ck -> `Interrupted ck
  | None -> `Completed { result = finish e; recoveries = List.rev !recoveries }

(* --- the original entry points, now thin wrappers -------------------------- *)

let completed_exn = function
  | `Completed r -> r
  | `Interrupted _ -> assert false (* no should_stop was supplied *)

let run ?(config = Ffs.Fs.default_config) ?backend
    ?(progress = fun ~day:_ ~score:_ -> ()) ?(on_skip = fun _ ~cause:_ ~skipped:_ -> ())
    ?(max_skip_fraction = default_max_skip_fraction) ~params ~days ops =
  Obs.Trace.span "replay.run"
    [ Obs.Trace.i "days" days; Obs.Trace.i "ops" (Array.length ops) ]
  @@ fun () ->
  (completed_exn
     (run_resumable ~config ?backend ~progress ~on_skip ~max_skip_fraction ~params ~days
        ~crashes:0 ~fault_seed:0 ops))
    .result

let run_with_crashes ?(config = Ffs.Fs.default_config) ?backend
    ?(progress = fun ~day:_ ~score:_ -> ()) ?(on_skip = fun _ ~cause:_ ~skipped:_ -> ())
    ?(max_skip_fraction = default_max_skip_fraction) ?(intensity = 4) ~params ~days
    ~crashes ~fault_seed ops =
  completed_exn
    (run_resumable ~config ?backend ~progress ~on_skip ~max_skip_fraction ~intensity
       ~params ~days ~crashes ~fault_seed ops)

let hot_inums (result : result) ~since =
  Ffs.Fs.fold_files result.fs ~init:[] ~f:(fun acc ino ->
      if ino.Ffs.Inode.mtime >= since then ino.Ffs.Inode.inum :: acc else acc)
