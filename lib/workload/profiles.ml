type kind = Home | News | Database | Personal

let all = [ Home; News; Database; Personal ]

let name = function
  | Home -> "home"
  | News -> "news"
  | Database -> "database"
  | Personal -> "personal"

let day_seconds = Op.seconds_per_day

(* emit a Create now and queue the inode for deletion later *)
type emitter = {
  params : Ffs.Params.t;
  pool : Inode_pool.t;
  ops : Op.t Util.Vec.t;
  rng : Util.Prng.t;
  last_op : (int, float) Hashtbl.t;  (* per-inode monotonicity *)
}

let emitter params ~seed =
  {
    params;
    pool = Inode_pool.create params;
    ops = Util.Vec.create ();
    rng = Util.Prng.create ~seed;
    last_op = Hashtbl.create 4096;
  }

let monotonic e ino time =
  let time =
    match Hashtbl.find_opt e.last_op ino with
    | Some last when time <= last -> last +. 1.0
    | Some _ | None -> time
  in
  Hashtbl.replace e.last_op ino time;
  time

let emit_create e ~cg ~size ~time =
  match Inode_pool.alloc e.pool ~cg with
  | None -> None
  | Some ino ->
      let time = monotonic e ino time in
      Util.Vec.push e.ops (Op.Create { ino; size; time });
      Some ino

let emit_delete e ~ino ~time =
  let time = monotonic e ino time in
  Inode_pool.free e.pool ino;
  Hashtbl.remove e.last_op ino;
  (* the inode may be reallocated; its clock restarts at this delete *)
  Hashtbl.replace e.last_op ino time;
  Util.Vec.push e.ops (Op.Delete { ino; time })

let emit_modify e ~ino ~size ~time =
  let time = monotonic e ino time in
  Util.Vec.push e.ops (Op.Modify { ino; size; time })

let finish e =
  let ops = Util.Vec.to_array e.ops in
  Op.sort_by_time ops;
  ops

(* --- news ------------------------------------------------------------------- *)

let article_size =
  Util.Dist.mixture
    [|
      (Util.Dist.lognormal_of_median ~median:2200.0 ~sigma:0.8, 0.92);
      (Util.Dist.uniform ~lo:65536.0 ~hi:524288.0, 0.08);
    |]
  |> Util.Dist.truncate ~lo:512.0 ~hi:1048576.0

let build_news params ~days ~seed =
  let e = emitter params ~seed in
  let ncg = params.Ffs.Params.ncg in
  (* size the arrival rate so the spool plateaus around 80% full at the
     retention period *)
  let retention = 6 in
  let data = float_of_int (Ffs.Params.data_bytes params) in
  let mean_article = Util.Dist.mean_estimate article_size in
  let per_day = int_of_float (0.8 *. data /. mean_article /. float_of_int retention) in
  let expiry = Queue.create () in
  for day = 0 to days - 1 do
    let day_start = float_of_int day *. day_seconds in
    for n = 0 to per_day - 1 do
      let cg = Util.Prng.int e.rng ncg in
      let time = day_start +. (86400.0 *. float_of_int n /. float_of_int per_day) in
      let size = int_of_float (Util.Dist.sample article_size e.rng) in
      match emit_create e ~cg ~size ~time with
      | Some ino -> Queue.add (ino, day + retention) expiry
      | None -> ()
    done;
    let rec expire () =
      match Queue.peek_opt expiry with
      | Some (ino, due) when due <= day ->
          ignore (Queue.pop expiry);
          emit_delete e ~ino ~time:(day_start +. 120.0 +. Util.Prng.float e.rng 1800.0);
          expire ()
      | _ -> ()
    in
    expire ()
  done;
  finish e

(* --- database ----------------------------------------------------------------- *)

let build_database params ~days ~seed =
  let e = emitter params ~seed in
  let ncg = params.Ffs.Params.ncg in
  let data = Ffs.Params.data_bytes params in
  (* a dozen tables taking ~55% of the disk, logs rotating through ~15% *)
  let tables = 12 in
  let table_size () = (data * 55 / 100 / tables) + Util.Prng.int e.rng (data / 100) in
  let table_inos =
    Array.init tables (fun i ->
        let size = table_size () in
        match emit_create e ~cg:(i mod ncg) ~size ~time:(600.0 +. float_of_int (i * 120)) with
        | Some ino -> ino
        | None -> failwith "database profile: could not place a table")
  in
  (* write-ahead logs scale with the file system (~0.5%% each) *)
  let log_size = max (64 * 1024) (data / 200) in
  let live_logs = Queue.create () in
  for day = 0 to days - 1 do
    let day_start = float_of_int day *. day_seconds in
    (* checkpoint: a few tables rewritten, slightly grown *)
    let checkpoints = 2 + Util.Prng.int e.rng 3 in
    for _ = 1 to checkpoints do
      let ino = table_inos.(Util.Prng.int e.rng tables) in
      let size = table_size () in
      emit_modify e ~ino ~size ~time:(day_start +. 3600.0 +. Util.Prng.float e.rng 72000.0)
    done;
    (* write-ahead logs: created through the day, kept for two days *)
    let logs_today = 16 + Util.Prng.int e.rng 8 in
    for n = 0 to logs_today - 1 do
      let time = day_start +. (86400.0 *. float_of_int n /. float_of_int logs_today) in
      match emit_create e ~cg:(Util.Prng.int e.rng ncg) ~size:log_size ~time with
      | Some ino -> Queue.add (ino, day + 2) live_logs
      | None -> ()
    done;
    let rec expire () =
      match Queue.peek_opt live_logs with
      | Some (ino, due) when due <= day ->
          ignore (Queue.pop live_logs);
          emit_delete e ~ino ~time:(day_start +. 1800.0 +. Util.Prng.float e.rng 3600.0);
          expire ()
      | _ -> ()
    in
    expire ()
  done;
  finish e

(* --- personal ------------------------------------------------------------------- *)

let document_size =
  Util.Dist.lognormal_of_median ~median:12288.0 ~sigma:1.2
  |> Util.Dist.truncate ~lo:512.0 ~hi:2097152.0

let cache_size =
  Util.Dist.lognormal_of_median ~median:4096.0 ~sigma:1.0
  |> Util.Dist.truncate ~lo:256.0 ~hi:262144.0

let build_personal params ~days ~seed =
  let e = emitter params ~seed in
  let ncg = params.Ffs.Params.ncg in
  let documents = Util.Vec.create () in
  (* downloads, installs and media accumulate toward ~45% of the disk
     over the run; a fraction is deleted after a retention period *)
  let data = Ffs.Params.data_bytes params in
  let bulk_per_day = data * 45 / 100 / days in
  let bulk_size = Util.Dist.truncate ~lo:65536.0 ~hi:(float_of_int (data / 16))
      (Util.Dist.lognormal_of_median ~median:524288.0 ~sigma:1.0) in
  let bulk_pending = Queue.create () in
  for day = 0 to days - 1 do
    let day_start = float_of_int day *. day_seconds in
    let weekend = day mod 7 >= 5 in
    (* bulk arrivals (downloads, installs), some expiring after a week *)
    let bulk_today = ref 0 in
    while !bulk_today < bulk_per_day do
      let size = int_of_float (Util.Dist.sample bulk_size e.rng) in
      let time = day_start +. (3600.0 *. (10.0 +. Util.Prng.float e.rng 10.0)) in
      (match emit_create e ~cg:(Util.Prng.int e.rng ncg) ~size ~time with
      | Some ino ->
          if Util.Prng.chance e.rng 0.35 then
            Queue.add (ino, day + 3 + Util.Prng.int e.rng 11) bulk_pending
      | None -> ());
      bulk_today := !bulk_today + size
    done;
    let rec expire_bulk () =
      match Queue.peek_opt bulk_pending with
      | Some (ino, due) when due <= day ->
          ignore (Queue.pop bulk_pending);
          emit_delete e ~ino ~time:(day_start +. 600.0 +. Util.Prng.float e.rng 3600.0);
          expire_bulk ()
      | _ -> ()
    in
    expire_bulk ();
    let sessions = if weekend then 1 else 2 + Util.Prng.int e.rng 3 in
    for _ = 1 to sessions do
      let session_start = day_start +. (3600.0 *. (9.0 +. Util.Prng.float e.rng 10.0)) in
      (* an editing session: save a document several times (modify),
         sometimes a new one *)
      let doc =
        if Util.Vec.length documents > 0 && Util.Prng.chance e.rng 0.7 then
          Some (Util.Vec.get documents (Util.Prng.int e.rng (Util.Vec.length documents)))
        else begin
          let size = int_of_float (Util.Dist.sample document_size e.rng) in
          match emit_create e ~cg:(Util.Prng.int e.rng ncg) ~size ~time:session_start with
          | Some ino ->
              Util.Vec.push documents ino;
              Some ino
          | None -> None
        end
      in
      (match doc with
      | Some ino ->
          let saves = 1 + Util.Prng.int e.rng 5 in
          for s = 1 to saves do
            let size = int_of_float (Util.Dist.sample document_size e.rng) in
            emit_modify e ~ino ~size
              ~time:(session_start +. (600.0 *. float_of_int s))
          done
      | None -> ());
      (* application caches: a burst of small files, most deleted at
         session end *)
      let cache_files = 20 + Util.Prng.int e.rng 30 in
      for c = 0 to cache_files - 1 do
        let time = session_start +. (30.0 *. float_of_int c) in
        let size = int_of_float (Util.Dist.sample cache_size e.rng) in
        match emit_create e ~cg:(Util.Prng.int e.rng ncg) ~size ~time with
        | Some ino ->
            if Util.Prng.chance e.rng 0.85 then
              emit_delete e ~ino ~time:(time +. 3600.0 +. Util.Prng.float e.rng 7200.0)
        | None -> ()
      done
    done
  done;
  finish e

(* --- dispatch --------------------------------------------------------------------- *)

let build params kind ~days ~seed =
  match kind with
  | Home ->
      let profile = { (Ground_truth.scaled params ~days) with Ground_truth.seed } in
      (Ground_truth.generate params profile).Ground_truth.ops
  | News -> build_news params ~days ~seed
  | Database -> build_database params ~days ~seed
  | Personal -> build_personal params ~days ~seed
