type volume = {
  id : int;
  seed : int;
  days : int;
  geometry : string;
  realloc : bool;
  policy : Ffs.Fs.cluster_policy;
  profile : Workload.Profiles.kind;
  crashes : int;
  fault_seed : int;
  device_faults : Ffs.Store.Device.plan option;
}

type t = { fleet_seed : int; volumes : volume array }

let geometry_names = [ "small"; "paper" ]

let params_of_geometry = function
  | "paper" -> Ok Ffs.Params.paper_fs
  | "small" -> Ok Ffs.Params.small_test_fs
  | other -> Error (Ffs.Error.Corrupt (Fmt.str "unknown fleet geometry %S" other))

let nth_of rng l = List.nth l (Util.Prng.int rng (List.length l))

let generate ?(geometries = [ "small" ]) ?(profiles = Workload.Profiles.all)
    ?(fault_rate = 0.0) ?(device_fault_rate = 0.0) ~volumes ~days ~seed () =
  if volumes <= 0 then invalid_arg "Fleet.Spec.generate: volumes must be positive";
  if geometries = [] then invalid_arg "Fleet.Spec.generate: no geometries";
  if profiles = [] then invalid_arg "Fleet.Spec.generate: no profiles";
  List.iter
    (fun g ->
      match params_of_geometry g with
      | Ok _ -> ()
      | Error e -> Ffs.Error.raise_ e)
    geometries;
  let vols =
    Array.init volumes (fun i ->
        (* two child streams per volume: one is the workload seed itself,
           the other drives the heterogeneity draws, so adding a draw
           never perturbs the workloads *)
        let vseed = Util.Prng.derive ~seed ~index:(2 * i) in
        let rng = Util.Prng.create ~seed:(Util.Prng.derive ~seed ~index:(2 * i + 1)) in
        let geometry = nth_of rng geometries in
        let profile = nth_of rng profiles in
        let realloc = Util.Prng.bool rng in
        let policy = if Util.Prng.bool rng then `First_fit else `Best_fit in
        let crashes = Fault.Plan.crashes_for_rate ~rng ~rate:fault_rate in
        let fault_seed = Util.Prng.bits30 rng in
        (* drawn after every original field, so a zero rate leaves the
           pre-device-fault fleets bit-identical *)
        let device_faults =
          if device_fault_rate <= 0.0 then None
          else begin
            let latent = Fault.Plan.crashes_for_rate ~rng ~rate:device_fault_rate in
            let bitrot = Fault.Plan.crashes_for_rate ~rng ~rate:(2.0 *. device_fault_rate) in
            let torn = Fault.Plan.crashes_for_rate ~rng ~rate:(device_fault_rate /. 2.0) in
            let plan =
              {
                Ffs.Store.Device.transient = 0.002 *. device_fault_rate;
                latent;
                bitrot;
                torn;
                horizon = max 1 days;
              }
            in
            if Ffs.Store.Device.is_none plan then None else Some plan
          end
        in
        {
          id = i;
          seed = vseed;
          days;
          geometry;
          realloc;
          policy;
          profile;
          crashes;
          fault_seed;
          device_faults;
        })
  in
  { fleet_seed = seed; volumes = vols }

let config_of_volume v =
  if v.realloc then { Ffs.Fs.realloc = true; cluster_policy = v.policy }
  else Ffs.Fs.default_config

let ops_of_volume v =
  let params =
    match params_of_geometry v.geometry with Ok p -> p | Error e -> Ffs.Error.raise_ e
  in
  Workload.Profiles.build params v.profile ~days:v.days ~seed:v.seed

let fingerprint t = Util.Crc32.string (Marshal.to_string t [])

let pp_volume ppf v =
  Fmt.pf ppf "%s/%s %s %dd seed=%d%s%s" v.geometry
    (if v.realloc then
       match v.policy with `First_fit -> "realloc-ff" | `Best_fit -> "realloc-bf"
     else "ffs")
    (Workload.Profiles.name v.profile)
    v.days v.seed
    (if v.crashes > 0 then Fmt.str " crashes=%d" v.crashes else "")
    (match v.device_faults with
    | None -> ""
    | Some plan -> Fmt.str " device=[%s]" (Ffs.Store.Device.to_string plan))
