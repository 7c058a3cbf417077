type summary = {
  final_score : float;
  mean_score : float;
  utilization : float;
  files_live : int;
  blocks_allocated : int;
  frags_allocated : int;
  skipped_ops : int;
  crashes_recovered : int;
  score_digest : int32;
  image_digest : string;
}

type failure = { failures : int; last_error : string }

type status = Pending | Running | Done of summary | Failed of failure | Quarantined of failure

type entry = { spec : Spec.volume; status : status; checkpoint_dir : string; attempts : int }

type t = { spec_crc : int32; fleet_seed : int; entries : entry array }

(* "-3": Spec.volume (marshalled inside entries) grew device_faults *)
let kind = "fleet-manifest-3"

let create (spec : Spec.t) =
  {
    spec_crc = Spec.fingerprint spec;
    fleet_seed = spec.Spec.fleet_seed;
    entries =
      Array.map
        (fun (v : Spec.volume) ->
          {
            spec = v;
            status = Pending;
            checkpoint_dir = Fmt.str "vol-%04d" v.Spec.id;
            attempts = 0;
          })
        spec.Spec.volumes;
  }

let file ~dir = Filename.concat dir "manifest.ffsm"

let save ~dir t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Recover.Container.write ~path:(file ~dir) ~kind (Marshal.to_string t [])

let load_file ~path =
  Result.map (fun payload -> (Marshal.from_string payload 0 : t)) (Recover.Container.read ~path ~kind)

let load ~dir = load_file ~path:(file ~dir)

let status_name = function
  | Pending -> "pending"
  | Running -> "running"
  | Done _ -> "done"
  | Failed _ -> "failed"
  | Quarantined _ -> "quarantined"

type aggregate = {
  total : int;
  completed : int;
  pending : int;
  failed : int;
  quarantined : int;
  scores : float array;
  blocks_allocated : int;
  frags_allocated : int;
  files_live : int;
  skipped_ops : int;
  crashes_recovered : int;
  digest : int32;
}

let aggregate t =
  let completed = ref 0 and pending = ref 0 and failed = ref 0 and quarantined = ref 0 in
  let scores = ref [] in
  let blocks = ref 0 and frags = ref 0 and files = ref 0 and skipped = ref 0 in
  let crashes = ref 0 in
  let buf = Buffer.create 256 in
  Array.iter
    (fun e ->
      match e.status with
      | Pending | Running -> incr pending
      | Failed _ -> incr failed
      | Quarantined _ -> incr quarantined
      | Done s ->
          incr completed;
          scores := s.final_score :: !scores;
          blocks := !blocks + s.blocks_allocated;
          frags := !frags + s.frags_allocated;
          files := !files + s.files_live;
          skipped := !skipped + s.skipped_ops;
          crashes := !crashes + s.crashes_recovered;
          Buffer.add_string buf
            (Fmt.str "%d:%08lx:%s;" e.spec.Spec.id s.score_digest s.image_digest))
    t.entries;
  {
    total = Array.length t.entries;
    completed = !completed;
    pending = !pending;
    failed = !failed;
    quarantined = !quarantined;
    scores = Array.of_list (List.rev !scores);
    blocks_allocated = !blocks;
    frags_allocated = !frags;
    files_live = !files;
    skipped_ops = !skipped;
    crashes_recovered = !crashes;
    digest = Util.Crc32.string (Buffer.contents buf);
  }
