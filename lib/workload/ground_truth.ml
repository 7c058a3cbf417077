type profile = {
  seed : int;
  days : int;
  directories : int;
  base_creates_per_day : float;
  modify_fraction : float;
  short_pairs_per_day : float;
  long_size : Util.Dist.t;
  short_size : Util.Dist.t;
  utilization_start : float;
  utilization_ramp_days : int;
  utilization_lo : float;
  utilization_hi : float;
}

let long_size_dist =
  (* lognormal body of small files with a Pareto tail of big ones *)
  Util.Dist.mixture
    [|
      (Util.Dist.lognormal_of_median ~median:6144.0 ~sigma:1.5, 0.93);
      (Util.Dist.truncate ~lo:65536.0 ~hi:16777216.0 (Util.Dist.pareto ~xm:131072.0 ~alpha:1.25), 0.07);
    |]
  |> Util.Dist.truncate ~lo:512.0 ~hi:16777216.0

let short_size_dist =
  (* mostly tiny lock/spool files, some large temporaries *)
  Util.Dist.mixture
    [|
      (Util.Dist.lognormal_of_median ~median:2048.0 ~sigma:1.4, 0.75);
      (Util.Dist.uniform ~lo:65536.0 ~hi:786432.0, 0.25);
    |]
  |> Util.Dist.truncate ~lo:256.0 ~hi:4194304.0

let default _params =
  {
    seed = 960117;
    days = 300;
    directories = 96;
    base_creates_per_day = 70.0;
    modify_fraction = 0.35;
    short_pairs_per_day = 1350.0;
    long_size = long_size_dist;
    short_size = short_size_dist;
    utilization_start = 0.09;
    utilization_ramp_days = 50;
    utilization_lo = 0.70;
    utilization_hi = 0.90;
  }

let scaled params ~days =
  let base = default params in
  if days >= base.days then { base with days }
  else begin
    (* a short run must still reach the paper's 70-90% plateau: size the
       creation rate so the tripled ramp-phase rate fills the disk to
       the plateau within the (shortened) ramp *)
    let ramp_days = max 3 (days / 6) in
    let mean_size = Util.Dist.mean_estimate base.long_size in
    let data = float_of_int (Ffs.Params.data_bytes params) in
    let target = 0.78 *. data in
    let base_creates = target /. (2.5 *. float_of_int ramp_days *. mean_size) in
    (* short-lived churn must also fit the file system: the paper rate
       assumes the 502 MB disk *)
    let data_ratio = Float.min 1.0 (data /. (485.0 *. 1048576.0)) in
    {
      base with
      days;
      utilization_ramp_days = ramp_days;
      base_creates_per_day = Float.max 20.0 base_creates;
      short_pairs_per_day = Float.max 40.0 (base.short_pairs_per_day *. data_ratio);
      (* no single file may dominate a small file system *)
      long_size = Util.Dist.truncate ~lo:512.0 ~hi:(data /. 8.0) base.long_size;
    }
  end

type t = {
  profile : profile;
  ops : Op.t array;
  utilization_targets : float array;
}

(* --- live-file bookkeeping ---------------------------------------------- *)

type live_file = {
  ino : int;
  dir : int;
  mutable size : int;
  mutable frags : int;  (* space charge, fragments *)
  created : float;
  mutable last_op : float;
}

type live_set = {
  files : live_file Util.Vec.t;
  pos : int array;  (* ino -> index in [files], -1 when not live *)
}

let live_create params =
  let ninos = params.Ffs.Params.ncg * Ffs.Params.inodes_per_group params in
  { files = Util.Vec.create (); pos = Array.make ninos (-1) }

let live_count ls = Util.Vec.length ls.files

let live_add ls f =
  Util.Vec.push ls.files f;
  ls.pos.(f.ino) <- Util.Vec.length ls.files - 1

let live_remove ls ino =
  let i = ls.pos.(ino) in
  if i < 0 then invalid_arg "live_remove: not live";
  let last_index = Util.Vec.length ls.files - 1 in
  let last = Util.Vec.get ls.files last_index in
  ignore (Util.Vec.pop ls.files);
  ls.pos.(ino) <- -1;
  if i <> last_index then begin
    Util.Vec.set ls.files i last;
    ls.pos.(last.ino) <- i
  end

let live_sample ls rng =
  if live_count ls = 0 then None
  else Some (Util.Vec.get ls.files (Util.Prng.int rng (live_count ls)))

(* --- space accounting ----------------------------------------------------- *)

(* fragments a file of [size] bytes charges, including indirect blocks *)
let frag_charge params size =
  let full, tail = Ffs.Params.blocks_of_size params size in
  let fpb = params.Ffs.Params.frags_per_block in
  let data_blocks = full in
  let indirect =
    if data_blocks <= params.Ffs.Params.ndaddr then 0
    else begin
      let beyond = data_blocks - params.Ffs.Params.ndaddr in
      let singles = (beyond + params.Ffs.Params.nindir - 1) / params.Ffs.Params.nindir in
      if beyond > params.Ffs.Params.nindir then singles + 1 else singles
    end
  in
  (full * fpb) + tail + (indirect * fpb)

(* --- utilization trajectory ------------------------------------------------ *)

let utilization_targets profile rng =
  let targets = Array.make profile.days profile.utilization_start in
  let mid = (profile.utilization_lo +. profile.utilization_hi) /. 2.0 in
  for day = 1 to profile.days - 1 do
    let prev = targets.(day - 1) in
    let next =
      if day < profile.utilization_ramp_days then
        profile.utilization_start
        +. ((mid -. profile.utilization_start)
            *. float_of_int day
            /. float_of_int profile.utilization_ramp_days)
      else begin
        let step = Util.Prng.gaussian rng *. 0.012 in
        let cleanup = if Util.Prng.chance rng 0.03 then -0.04 else 0.0 in
        let burst = if Util.Prng.chance rng 0.02 then 0.03 else 0.0 in
        let v = prev +. step +. cleanup +. burst in
        Float.min profile.utilization_hi (Float.max profile.utilization_lo v)
      end
    in
    targets.(day) <- next
  done;
  targets

(* --- generation -------------------------------------------------------------- *)

let generate params profile =
  let rng = Util.Prng.create ~seed:profile.seed in
  let size_rng = Util.Prng.split rng in
  let time_rng = Util.Prng.split rng in
  let dir_zipf = Util.Dist.zipf ~n:profile.directories ~s:0.9 in
  let pool = Inode_pool.create params in
  let ncg = params.Ffs.Params.ncg in
  (* directories round-robin over the groups, like dirpref on an empty
     file system *)
  let dir_cg = Array.init profile.directories (fun i -> i mod ncg) in
  let live = live_create params in
  let ops = Util.Vec.create () in
  let data_frags = float_of_int (params.Ffs.Params.ncg * Ffs.Params.data_blocks_per_group params
                                 * params.Ffs.Params.frags_per_block) in
  let used_frags = ref 0 in
  let targets = utilization_targets profile rng in
  let day_seconds = Op.seconds_per_day in
  (* a timestamp inside the working day, bell-shaped around 14:30 *)
  let worktime day =
    let hours = 14.5 +. (Util.Prng.gaussian time_rng *. 3.0) in
    let hours = Float.min 23.5 (Float.max 0.5 hours) in
    (float_of_int day *. day_seconds) +. (hours *. 3600.0)
  in
  let pick_dir () = int_of_float (Util.Dist.sample dir_zipf rng) - 1 in
  let fresh_size dist = int_of_float (Util.Dist.sample dist size_rng) in
  let emit_create ~dir ~size ~time =
    match Inode_pool.alloc pool ~cg:dir_cg.(dir) with
    | None -> None
    | Some ino ->
        let f = { ino; dir; size; frags = frag_charge params size; created = time; last_op = time } in
        live_add live f;
        used_frags := !used_frags + f.frags;
        Util.Vec.push ops (Op.Create { ino; size; time });
        Some f
  in
  (* inode numbers freed during a day only become reusable at the next
     day boundary: a same-day reuse could otherwise sort its create
     before the previous owner's delete *)
  let freed_today = ref [] in
  let emit_delete f ~time =
    let time = Float.max time (f.last_op +. 1.0) in
    used_frags := !used_frags - f.frags;
    live_remove live f.ino;
    freed_today := f.ino :: !freed_today;
    Util.Vec.push ops (Op.Delete { ino = f.ino; time })
  in
  let emit_modify f ~size ~time =
    let time = Float.max time (f.last_op +. 1.0) in
    used_frags := !used_frags - f.frags;
    f.size <- size;
    f.frags <- frag_charge params size;
    f.last_op <- time;
    used_frags := !used_frags + f.frags;
    Util.Vec.push ops (Op.Modify { ino = f.ino; size; time })
  in
  (* victim selection: sample a few candidates, prefer the youngest
     (deletes) or the largest (modifies) *)
  let sample_candidates n =
    let rec loop i acc = if i = 0 then acc else loop (i - 1) (live_sample live rng :: acc) in
    List.filter_map Fun.id (loop n [])
  in
  let young_victim () =
    match sample_candidates 6 with
    | [] -> None
    | c :: cs ->
        if Util.Prng.chance rng 0.65 then
          Some (List.fold_left (fun a b -> if b.created > a.created then b else a) c cs)
        else Some c
  in
  let modify_victim () =
    match sample_candidates 4 with
    | [] -> None
    | c :: cs ->
        if Util.Prng.chance rng 0.5 then
          Some (List.fold_left (fun a b -> if b.size > a.size then b else a) c cs)
        else Some c
  in
  for day = 0 to profile.days - 1 do
    let noise mean = Float.max 0.0 (mean *. (1.0 +. (Util.Prng.gaussian rng *. 0.25))) in
    (* activity is heavier while the file system fills (the group moved
       their data in); afterwards creation settles to a steady trickle *)
    let ramp_boost = if day < profile.utilization_ramp_days then 3.0 else 1.0 in
    let creates_n = int_of_float (noise (profile.base_creates_per_day *. ramp_boost)) in
    let modifies_n = int_of_float (float_of_int creates_n *. profile.modify_fraction) in
    let shorts_n = int_of_float (noise profile.short_pairs_per_day) in
    for _ = 1 to creates_n do
      let dir = pick_dir () in
      let size = fresh_size profile.long_size in
      match emit_create ~dir ~size ~time:(worktime day) with
      | None -> ()
      | Some f ->
          (* some files are rewritten a few times on their first day
             (edit-save cycles) — activity the nightly snapshots cannot
             see, so the reconstructed workload will lack it *)
          if Util.Prng.chance rng 0.2 then
            for _ = 1 to 1 + Util.Prng.int rng 3 do
              let scale = exp (Util.Prng.gaussian size_rng *. 0.3) in
              let size = max 512 (int_of_float (float_of_int f.size *. scale)) in
              emit_modify f ~size ~time:(f.last_op +. (60.0 +. Util.Prng.float time_rng 7200.0))
            done
    done;
    for _ = 1 to modifies_n do
      match modify_victim () with
      | Some f ->
          let scale = exp (Util.Prng.gaussian size_rng *. 0.4) in
          let size = max 512 (int_of_float (float_of_int f.size *. scale)) in
          emit_modify f ~size ~time:(worktime day)
      | None -> ()
    done;
    (* deletions: bring usage back toward the day's target *)
    let target_frags = targets.(day) *. data_frags in
    let give_up = ref 0 in
    while float_of_int !used_frags > target_frags && live_count live > 0 && !give_up < 100000 do
      incr give_up;
      match young_victim () with
      | Some f -> emit_delete f ~time:(worktime day)
      | None -> give_up := max_int
    done;
    (* short-lived create+delete pairs, in bursts *)
    let bursts = 3 + Util.Prng.int rng 4 in
    let burst_centers =
      Array.init bursts (fun _ ->
          (float_of_int day *. day_seconds) +. (3600.0 *. (8.0 +. Util.Prng.float time_rng 12.0)))
    in
    for _ = 1 to shorts_n do
      let dir = pick_dir () in
      let size = fresh_size profile.short_size in
      let center = burst_centers.(Util.Prng.int rng bursts) in
      let time = center +. (Util.Prng.gaussian time_rng *. 1200.0) in
      let time =
        Float.max (float_of_int day *. day_seconds)
          (Float.min (((float_of_int day +. 1.0) *. day_seconds) -. 120.0) time)
      in
      match emit_create ~dir ~size ~time with
      | None -> ()
      | Some f ->
          let lifetime = -1200.0 *. log (1.0 -. Util.Prng.unit_float time_rng) in
          let time =
            Float.min (((float_of_int day +. 1.0) *. day_seconds) -. 1.0) (time +. 30.0 +. lifetime)
          in
          emit_delete f ~time
    done;
    List.iter (Inode_pool.free pool) !freed_today;
    freed_today := []
  done;
  let ops = Util.Vec.to_array ops in
  Op.sort_by_time ops;
  { profile; ops; utilization_targets = targets }
