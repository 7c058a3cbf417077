let src = Logs.Src.create "aging.checkpoint" ~doc:"aging checkpoint store"

module Log = (val Logs.src_log src : Logs.LOG)

(* One container kind: a checkpoint carries the whole portable replay
   state. Bump the suffix whenever the payload representation changes.
   "aging-checkpoint-4": the fault stream's [Util.Prng.t] is 8 bytes of
   state, and the workload fingerprint is taken over each op's fields. *)
let kind = "aging-checkpoint-4"

(* ckpt-op000001234-day0042.ffsck — zero-padded so lexicographic name
   order is op order, which makes "newest" a plain sort *)
let filename ck =
  Fmt.str "ckpt-op%09d-day%04d.ffsck" (Replay.checkpoint_next_op ck) (Replay.checkpoint_day ck)

let is_checkpoint_file name =
  String.length name > 5
  && String.sub name 0 5 = "ckpt-"
  && Filename.check_suffix name ".ffsck"

let list ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      let names = Array.to_list names |> List.filter is_checkpoint_file in
      List.sort (fun a b -> compare b a) names |> List.map (Filename.concat dir)

(* --- reading --------------------------------------------------------------- *)

let load ~path =
  Result.map
    (fun payload -> (Marshal.from_string payload 0 : Replay.checkpoint))
    (Recover.Container.read ~path ~kind)

let load_latest ~dir =
  let rec try_all = function
    | [] -> Error (Ffs.Error.Corrupt (Fmt.str "%s: no valid checkpoint found" dir))
    | path :: older -> (
        match load ~path with
        | Ok ck -> Ok (path, ck)
        | Error e ->
            Log.warn (fun m ->
                m "skipping unusable checkpoint %s: %a; falling back" path Ffs.Error.pp e);
            try_all older)
  in
  try_all (list ~dir)

(* --- writing --------------------------------------------------------------- *)

let io_error ~path = function
  | Sys_error message -> Error (Ffs.Error.Io { path; message })
  | Unix.Unix_error (e, op, _) ->
      Error (Ffs.Error.Io { path; message = Fmt.str "%s: %s" op (Unix.error_message e) })
  | exn -> raise exn

let prune ~dir ~keep =
  if keep > 0 then
    List.iteri
      (fun i p ->
        if i >= keep then
          try Sys.remove p
          with Sys_error msg -> Log.warn (fun m -> m "could not prune old checkpoint %s: %s" p msg))
      (list ~dir)

let save ~dir ~keep ck =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (filename ck) in
  match Recover.Container.write ~path ~kind (Marshal.to_string ck []) with
  | () ->
      prune ~dir ~keep;
      Ok path
  | exception exn -> io_error ~path exn

let save_exn ~dir ~keep ck =
  match save ~dir ~keep ck with Ok path -> path | Error e -> Ffs.Error.raise_ e
