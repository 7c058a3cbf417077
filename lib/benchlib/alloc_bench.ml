type side = { seconds : float; allocs : int; allocs_per_sec : float }

type result = {
  days : int;
  seed : int;
  ops : int;
  utilization : float;
  scan : side;
  indexed : side;
  speedup : float;
  checksum : int;
}

let standard_days = 10
let standard_seed = 960117
let default_ops = 200_000

(* one schedule entry; drawn up front so the stream is independent of
   allocation outcomes (both modes replay the identical array) *)
type op =
  | Block of { cg : int; pref : int }
  | Frags of { cg : int; pref : int; count : int }
  | Cluster of { cg : int; pref : int; len : int }
  | Free of { cg : int }

let make_schedule ~rng ~ncg ~nblocks ~nfrags ~fpb ~ops =
  Array.init ops (fun _ ->
      let cg = Util.Prng.int rng ncg in
      (* half allocations, half frees: the image stays near its aged
         utilization instead of drifting to full *)
      match Util.Prng.int rng 10 with
      | 0 | 1 | 2 -> Block { cg; pref = Util.Prng.int rng nblocks }
      | 3 | 4 -> Frags { cg; pref = Util.Prng.int rng nfrags; count = 1 + Util.Prng.int rng (fpb - 1) }
      | 5 -> Cluster { cg; pref = Util.Prng.int rng nblocks; len = 2 + Util.Prng.int rng 6 }
      | _ -> Free { cg })

(* the three allocation entry points of one search implementation *)
type impl = {
  block : Ffs.Cg.t -> pref:int option -> int option;
  frags : Ffs.Cg.t -> pref:int option -> count:int -> int option;
  cluster :
    Ffs.Cg.t -> policy:[ `First_fit | `Best_fit ] -> pref:int option -> len:int -> int option;
}

let indexed_impl =
  { block = Ffs.Cg.alloc_block; frags = Ffs.Cg.alloc_frags; cluster = Ffs.Cg.alloc_cluster }

let scan_impl =
  {
    block = Ffs.Cg.Reference.alloc_block;
    frags = Ffs.Cg.Reference.alloc_frags;
    cluster = Ffs.Cg.Reference.alloc_cluster;
  }

(* replay the schedule over [cgs] through [impl], returning (successful
   allocs, placement-trace checksum) *)
let replay impl cgs fpb schedule =
  let held = Array.make (Array.length cgs) [] in
  let allocs = ref 0 and cksum = ref 0 in
  let record pos count =
    incr allocs;
    cksum := ((!cksum * 1000003) + ((pos * 16) + count)) land max_int
  in
  Array.iter
    (fun op ->
      match op with
      | Block { cg; pref } -> (
          match impl.block cgs.(cg) ~pref:(Some pref) with
          | Some b ->
              record (b * fpb) fpb;
              held.(cg) <- (b * fpb, fpb) :: held.(cg)
          | None -> ())
      | Frags { cg; pref; count } -> (
          match impl.frags cgs.(cg) ~pref:(Some pref) ~count with
          | Some pos ->
              record pos count;
              held.(cg) <- (pos, count) :: held.(cg)
          | None -> ())
      | Cluster { cg; pref; len } -> (
          match impl.cluster cgs.(cg) ~policy:`First_fit ~pref:(Some pref) ~len with
          | Some b ->
              record (b * fpb) (len * fpb);
              held.(cg) <- (b * fpb, len * fpb) :: held.(cg)
          | None -> ())
      | Free { cg } -> (
          match held.(cg) with
          | (pos, count) :: rest ->
              Ffs.Cg.free_frags cgs.(cg) ~pos ~count;
              held.(cg) <- rest
          | [] -> ()))
    schedule;
  (!allocs, !cksum)

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let run ?(days = standard_days) ?(seed = standard_seed) ?(ops = default_ops) () =
  let params = Ffs.Params.small_test_fs in
  let fpb = params.Ffs.Params.frags_per_block in
  let profile =
    { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed }
  in
  let gt = Workload.Ground_truth.generate params profile in
  let aged = (Aging.Replay.run ~params ~days gt.Workload.Ground_truth.ops).Aging.Replay.fs in
  let base = Ffs.Fs.cg_states aged in
  let nblocks = Ffs.Cg.data_blocks base.(0) and nfrags = Ffs.Cg.data_frags base.(0) in
  let utilization =
    let total = Array.fold_left (fun a cg -> a + Ffs.Cg.data_frags cg) 0 base in
    let free = Array.fold_left (fun a cg -> a + Ffs.Cg.free_frag_count cg) 0 base in
    float_of_int (total - free) /. float_of_int (max 1 total)
  in
  let rng = Util.Prng.create ~seed in
  let schedule =
    make_schedule ~rng ~ncg:(Array.length base) ~nblocks ~nfrags ~fpb ~ops
  in
  (* each repetition gets its own copy of the aged groups and a short
     warm-up; both modes maintain the extent index — only the searches
     differ. Best-of-3: the schedule replays in tens of milliseconds,
     so a single timing is at the mercy of scheduler noise, and the
     regression gate needs a stable figure. The placement trace must
     not vary across repetitions. *)
  let measure impl =
    let warmup = Array.sub schedule 0 (min (ops / 10) (Array.length schedule)) in
    let one () =
      let cgs = Array.map Ffs.Cg.copy base in
      let warm = Array.map Ffs.Cg.copy base in
      ignore (replay impl warm fpb warmup);
      let r = ref (0, 0) in
      let s = timed (fun () -> r := replay impl cgs fpb schedule) in
      (!r, s)
    in
    let res0, s0 = one () in
    let seconds = ref s0 in
    for _ = 2 to 3 do
      let res, s = one () in
      if res <> res0 then failwith "alloc bench: repetitions diverged";
      if s < !seconds then seconds := s
    done;
    let allocs, cksum = res0 in
    let seconds = !seconds in
    ({ seconds; allocs; allocs_per_sec = float_of_int allocs /. seconds }, cksum)
  in
  let scan, ck_scan = measure scan_impl in
  let indexed, ck_indexed = measure indexed_impl in
  if ck_scan <> ck_indexed || scan.allocs <> indexed.allocs then
    failwith "alloc bench: scan and indexed placement traces diverged";
  {
    days;
    seed;
    ops;
    utilization;
    scan;
    indexed;
    speedup = indexed.allocs_per_sec /. scan.allocs_per_sec;
    checksum = ck_scan;
  }

let side_json s =
  Obs.Json.Obj
    [
      ("seconds", Obs.Json.Float s.seconds);
      ("allocs", Obs.Json.Int s.allocs);
      ("allocs_per_sec", Obs.Json.Float s.allocs_per_sec);
    ]

let to_json r =
  Obs.Json.Obj
    ([
      ("benchmark", Obs.Json.String "alloc");
      ("image", Obs.Json.Obj
          [
            ("fs", Obs.Json.String "small_test_fs");
            ("days", Obs.Json.Int r.days);
            ("seed", Obs.Json.Int r.seed);
            ("utilization", Obs.Json.Float r.utilization);
          ]);
      ("ops", Obs.Json.Int r.ops);
      ("scan", side_json r.scan);
      ("indexed", side_json r.indexed);
      ("speedup", Obs.Json.Float r.speedup);
      ("checksum", Obs.Json.Int r.checksum);
    ]
    @ Bench_env.json_fields ())

let pp ppf r =
  Fmt.pf ppf
    "@[<v>alloc bench: %d ops on the standard aged image (%d days, seed %d, %.0f%% \
     full)@ scan:    %7.0f allocs/sec (%d allocs in %.3fs)@ indexed: %7.0f \
     allocs/sec (%d allocs in %.3fs)@ speedup: %.2fx@]"
    r.ops r.days r.seed (100. *. r.utilization) r.scan.allocs_per_sec r.scan.allocs
    r.scan.seconds r.indexed.allocs_per_sec r.indexed.allocs r.indexed.seconds r.speedup

let indexed_allocs_per_sec json =
  Option.bind (Obs.Json.member "indexed" json) (fun side ->
      Option.bind (Obs.Json.member "allocs_per_sec" side) Obs.Json.to_float)

let gate ~baseline r =
  match indexed_allocs_per_sec baseline with
  | None -> Ok ()
  | Some old when old <= 0. -> Ok ()
  | Some old ->
      let now = r.indexed.allocs_per_sec in
      if now >= 0.8 *. old then Ok ()
      else
        Error
          (Fmt.str
             "alloc bench regression: indexed %.0f allocs/sec is %.0f%% below the \
              committed baseline %.0f (limit 20%%)"
             now
             (100. *. (1. -. (now /. old)))
             old)
