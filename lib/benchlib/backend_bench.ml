(* Storage-backend throughput: the same paper-geometry aging run timed
   on the in-heap Bytes store and the mmap'd file store. The run asserts
   the backends agree bit-for-bit before any number is reported. *)

type level = {
  backend : string;
  seconds : float;
  days_per_sec : float;
  digest : string;
  blocks_allocated : int;
}

type result = {
  days : int;
  seed : int;
  digest : string;
  levels : level list;
}

let standard_days = 4
let standard_seed = 960117
let default_specs = [ Ffs.Store.Heap_backend; Ffs.Store.Mmap_backend None ]

let run ?(days = standard_days) ?(seed = standard_seed) ?(specs = default_specs) () =
  let params = Ffs.Params.paper_fs in
  let profile = { (Workload.Ground_truth.scaled params ~days) with seed } in
  let ops = (Workload.Ground_truth.generate params profile).Workload.Ground_truth.ops in
  let measure spec =
    let t0 = Unix.gettimeofday () in
    let r = Aging.Replay.run ~backend:spec ~params ~days ops in
    let seconds = Unix.gettimeofday () -. t0 in
    {
      backend = Ffs.Store.spec_name spec;
      seconds;
      days_per_sec = float_of_int days /. seconds;
      digest = Ffs.Fs.digest r.Aging.Replay.fs;
      blocks_allocated = (Ffs.Fs.stats r.Aging.Replay.fs).Ffs.Fs.blocks_allocated;
    }
  in
  let levels = List.map measure specs in
  (* the correctness claim the bench rides on: the backend must not
     change a single bit of the aged image *)
  (match levels with
  | [] -> ()
  | l0 :: rest ->
      List.iter
        (fun (l : level) ->
          if l.digest <> l0.digest || l.blocks_allocated <> l0.blocks_allocated then
            failwith
              (Fmt.str
                 "backend bench: results diverged across backends: %s (%s, %d blocks) \
                  vs %s (%s, %d blocks)"
                 l0.backend l0.digest l0.blocks_allocated l.backend l.digest
                 l.blocks_allocated))
        rest);
  let l0 = List.hd levels in
  { days; seed; digest = l0.digest; levels }

let to_json r =
  Obs.Json.Obj
    ([
      ("benchmark", Obs.Json.String "backend");
      ("days", Obs.Json.Int r.days);
      ("seed", Obs.Json.Int r.seed);
      ("digest", Obs.Json.String r.digest);
      ( "levels",
        Obs.Json.List
          (List.map
             (fun l ->
               Obs.Json.Obj
                 [
                   ("backend", Obs.Json.String l.backend);
                   ("seconds", Obs.Json.Float l.seconds);
                   ("days_per_sec", Obs.Json.Float l.days_per_sec);
                 ])
             r.levels) );
    ]
    @ Bench_env.json_fields ())

let pp ppf r =
  Fmt.pf ppf
    "@[<v>backend bench: %d days aged per backend (seed %d), digest %s@ %a@]" r.days r.seed
    r.digest
    (Fmt.list ~sep:Fmt.cut (fun ppf l ->
         Fmt.pf ppf "%-6s %6.2f days/sec (%.3fs)" l.backend l.days_per_sec l.seconds))
    r.levels

let best_days_per_sec json =
  match Obs.Json.member "levels" json with
  | Some (Obs.Json.List levels) ->
      List.fold_left
        (fun acc l ->
          match Option.bind (Obs.Json.member "days_per_sec" l) Obs.Json.to_float with
          | Some v -> Some (match acc with None -> v | Some a -> Float.max a v)
          | None -> acc)
        None levels
  | _ -> None

let gate ~baseline r =
  match best_days_per_sec baseline with
  | None -> Ok ()
  | Some old when old <= 0. -> Ok ()
  | Some old ->
      let now = List.fold_left (fun a l -> Float.max a l.days_per_sec) 0.0 r.levels in
      if now >= 0.7 *. old then Ok ()
      else
        Error
          (Fmt.str
             "backend bench regression: %.2f days/sec is %.0f%% below the committed \
              baseline %.2f (limit 30%%)"
             now
             (100. *. (1. -. (now /. old)))
             old)
