let day_seconds = Op.seconds_per_day

(* Allocate unused inode numbers for a day's injected short-lived files.
   A slot qualifies if no snapshot-visible or already-injected operation
   touches it that day. A per-group cursor keeps the scan linear in the
   number of allocations plus the density of used low slots. *)
module Day_pool = struct
  type t = {
    ipg : int;
    ncg : int;
    cursors : int array;
    blocked : Bytes.t;  (* nonzero at an ino unavailable today *)
  }

  let create params ~blocked =
    {
      ipg = Ffs.Params.inodes_per_group params;
      ncg = params.Ffs.Params.ncg;
      cursors = Array.make params.Ffs.Params.ncg 0;
      blocked;
    }

  let alloc t ~cg =
    let rec try_cg attempt =
      if attempt >= t.ncg then None
      else begin
        let c = (cg + attempt) mod t.ncg in
        let rec scan slot =
          if slot >= t.ipg then None
          else begin
            let ino = (c * t.ipg) + slot in
            if Bytes.get t.blocked ino <> '\000' then scan (slot + 1)
            else begin
              t.cursors.(c) <- slot + 1;
              Bytes.set t.blocked ino '\001';
              Some ino
            end
          end
        in
        match scan t.cursors.(c) with Some _ as r -> r | None -> try_cg (attempt + 1)
      end
    in
    try_cg 0
end

(* snapshots are sorted by ino: the last record holds the largest *)
let max_ino (s : Snapshot.t) =
  let n = Array.length s.files in
  if n = 0 then -1 else s.files.(n - 1).ino

(* A trace day's directory tags, most pairs first, each with its mean
   pair offset. Depends only on the trace, so it is built once per trace
   day rather than once per replayed day. *)
let rank_tags trace =
  let tag_count : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let tag_offset_sum : (int, float) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (p : Nfs_source.pair) ->
      Hashtbl.replace tag_count p.dir_tag
        (1 + Option.value ~default:0 (Hashtbl.find_opt tag_count p.dir_tag));
      Hashtbl.replace tag_offset_sum p.dir_tag
        (p.offset +. Option.value ~default:0.0 (Hashtbl.find_opt tag_offset_sum p.dir_tag)))
    trace;
  Hashtbl.fold (fun tag count acc -> (tag, count) :: acc) tag_count []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.map (fun (tag, count) -> (tag, Hashtbl.find tag_offset_sum tag /. float_of_int count))
  |> Array.of_list

(* Every op of day [d] is clamped into [d*86400 + 1, (d+1)*86400 - 1],
   so sorting each day alone and appending the days gives the stable
   global time order without a final sort. *)
let run params ~seed ~snapshots ~nfs =
  assert (Array.length snapshots > 0);
  let rng = Util.Prng.create ~seed in
  let ncg = params.Ffs.Params.ncg in
  let ipg = Ffs.Params.inodes_per_group params in
  let cg_of_ino ino = ino / ipg in
  let days_ops = Util.Vec.create () in
  let ndays = Array.length snapshots in
  (* Every inode live at the start or end of the day is off-limits for
     injected files. Between days the map holds exactly the previous
     snapshot's inos: each day adds [cur]'s and the injected ones, then
     clears every ino one of its deletes freed. *)
  let ninos = 1 + Array.fold_left (fun m s -> max m (max_ino s)) ((ncg * ipg) - 1) snapshots in
  let blocked = Bytes.make ninos '\000' in
  let ranked_tags = Array.map rank_tags nfs in
  for d = 0 to ndays - 1 do
    let prev = if d = 0 then [||] else snapshots.(d - 1).Snapshot.files in
    let cur = snapshots.(d).Snapshot.files in
    let day_start = float_of_int d *. day_seconds in
    let day_end = day_start +. day_seconds in
    let clamp time = Float.max (day_start +. 1.0) (Float.min (day_end -. 2.0) time) in
    let day_ops = Util.Vec.create () in
    Array.iter (fun (r : Snapshot.file_record) -> Bytes.set blocked r.ino '\001') cur;
    let nprev = Array.length prev and ncur = Array.length cur in
    (* creates and modifies, from one walk of [cur] against [prev] *)
    let j = ref 0 in
    Array.iter
      (fun (r : Snapshot.file_record) ->
        while !j < nprev && prev.(!j).Snapshot.ino < r.ino do
          incr j
        done;
        if !j < nprev && prev.(!j).Snapshot.ino = r.ino then begin
          let old = prev.(!j) in
          if old.size <> r.size || old.ctime <> r.ctime then
            Util.Vec.push day_ops (Op.Modify { ino = r.ino; size = r.size; time = clamp r.ctime })
        end
        else Util.Vec.push day_ops (Op.Create { ino = r.ino; size = r.size; time = clamp r.ctime }))
      cur;
    (* the span of known activity, for placing the guessed delete times *)
    let lo = ref infinity and hi = ref neg_infinity in
    Util.Vec.iter
      (fun op ->
        lo := Float.min !lo (Op.time_of op);
        hi := Float.max !hi (Op.time_of op))
      day_ops;
    let lo, hi =
      if !lo > !hi then (day_start +. (8.0 *. 3600.0), day_start +. (20.0 *. 3600.0)) else (!lo, !hi)
    in
    (* deletes: in the previous snapshot, gone now; time unknown. The walk
       keeps [prev]'s ino order, which fixes the order of the draws. *)
    let j = ref 0 in
    Array.iter
      (fun (r : Snapshot.file_record) ->
        while !j < ncur && cur.(!j).Snapshot.ino < r.ino do
          incr j
        done;
        if not (!j < ncur && cur.(!j).Snapshot.ino = r.ino) then begin
          let time = clamp (lo +. Util.Prng.float rng (Float.max 1.0 (hi -. lo))) in
          Util.Vec.push day_ops (Op.Delete { ino = r.ino; time })
        end)
      prev;
    (* --- NFS short-lived injection --------------------------------- *)
    if Array.length nfs > 0 then begin
      let trace_index = Util.Prng.int rng (Array.length nfs) in
      let trace = nfs.(trace_index) in
      (* rank groups by today's change count *)
      let changes = Array.make ncg 0 in
      let time_sum = Array.make ncg 0.0 in
      Util.Vec.iter
        (fun op ->
          let c = cg_of_ino (Op.ino_of op) in
          changes.(c) <- changes.(c) + 1;
          time_sum.(c) <- time_sum.(c) +. Op.time_of op)
        day_ops;
      let ranked =
        Array.init ncg Fun.id |> Array.to_list
        |> List.filter (fun c -> changes.(c) > 0)
        |> List.sort (fun a b -> compare changes.(b) changes.(a))
        |> Array.of_list
      in
      let ranked = if Array.length ranked = 0 then [| 0 |] else ranked in
      let peak c =
        if changes.(c) = 0 then day_start +. (14.0 *. 3600.0)
        else time_sum.(c) /. float_of_int changes.(c)
      in
      let tag_target : (int, int * float) Hashtbl.t = Hashtbl.create 16 in
      Array.iteri
        (fun rank (tag, mean_offset) ->
          let cg = ranked.(rank mod Array.length ranked) in
          (* shift the tag's operations so their mean lands on the
             target group's activity peak *)
          let shift = peak cg -. (day_start +. mean_offset) in
          Hashtbl.replace tag_target tag (cg, shift))
        ranked_tags.(trace_index);
      let day_pool = Day_pool.create params ~blocked in
      Array.iter
        (fun (p : Nfs_source.pair) ->
          let cg, shift = Hashtbl.find tag_target p.dir_tag in
          match Day_pool.alloc day_pool ~cg with
          | None -> ()
          | Some ino ->
              let create_time = clamp (day_start +. p.offset +. shift) in
              let delete_time =
                Float.max (create_time +. 1.0) (Float.min (day_end -. 1.0) (create_time +. p.lifetime))
              in
              Util.Vec.push day_ops (Op.Create { ino; size = p.size; time = create_time });
              Util.Vec.push day_ops (Op.Delete { ino; time = delete_time }))
        trace
    end;
    (* back to [cur]'s inos: clear what the day's deletes freed *)
    Util.Vec.iter
      (function Op.Delete { ino; _ } -> Bytes.set blocked ino '\000' | Op.Create _ | Op.Modify _ -> ())
      day_ops;
    let day_ops = Util.Vec.to_array day_ops in
    Op.sort_by_time day_ops;
    Util.Vec.push days_ops day_ops
  done;
  Array.concat (Array.to_list (Util.Vec.to_array days_ops))

(* The paper's aging workload (Section 3): nightly snapshots of the
   ground truth plus same-day files borrowed from ten NFS trace days,
   each stage seeded off the ground truth's own seed. *)
let of_ground_truth params (gt : Ground_truth.t) =
  let profile = gt.profile in
  let snapshots = Snapshot.capture_nightly gt.ops ~days:profile.days in
  let nfs =
    Nfs_source.generate ~seed:(profile.seed + 17) ~trace_days:10
      ~pairs_per_day:profile.short_pairs_per_day
  in
  run params ~seed:(profile.seed + 23) ~snapshots ~nfs
