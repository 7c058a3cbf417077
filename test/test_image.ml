(* Tests for aged-image persistence: container round-trip plus the
   corruption regressions — a truncated, bit-flipped or garbage file
   must come back as [Error Corrupt], never a crash or a bad image. *)

let check_bool = Alcotest.(check bool)
let params = Ffs.Params.small_test_fs
let days = 5

let aged () =
  let profile =
    { (Workload.Ground_truth.scaled params ~days) with Workload.Ground_truth.seed = 77 }
  in
  let gt = Workload.Ground_truth.generate params profile in
  Aging.Replay.run ~params ~days gt.Workload.Ground_truth.ops

let with_temp_image f =
  let path = Filename.temp_file "ffs_image" ".img" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let expect_corrupt name r =
  match r with
  | Error (Ffs.Error.Corrupt _) -> ()
  | Error e -> Alcotest.failf "%s: expected Corrupt, got %a" name Ffs.Error.pp e
  | Ok _ -> Alcotest.failf "%s: expected Error Corrupt, got Ok" name

let test_roundtrip () =
  let result = aged () in
  with_temp_image (fun path ->
      Aging.Image.save_exn ~path { Aging.Image.days; description = "test"; result };
      let loaded = Aging.Image.load_exn ?backend:None ~path in
      Alcotest.(check int) "days" days loaded.Aging.Image.days;
      Alcotest.(check string) "description" "test" loaded.Aging.Image.description;
      Alcotest.(check (array (float 1e-12)))
        "daily scores preserved" result.Aging.Replay.daily_scores
        loaded.Aging.Image.result.Aging.Replay.daily_scores;
      Alcotest.(check int) "file count preserved"
        (Ffs.Fs.file_count result.Aging.Replay.fs)
        (Ffs.Fs.file_count loaded.Aging.Image.result.Aging.Replay.fs);
      (* the loaded image is fully functional *)
      Ffs.Check.check_invariants loaded.Aging.Image.result.Aging.Replay.fs;
      check_bool "loaded image audits clean" true
        (Ffs.Check.is_clean (Ffs.Check.run loaded.Aging.Image.result.Aging.Replay.fs));
      (* and usable: create a file on it *)
      let fs = loaded.Aging.Image.result.Aging.Replay.fs in
      let inum =
        Ffs.Fs.create_file_exn fs ~dir:(Ffs.Fs.root fs) ~name:"post-load" ~size:16384
      in
      check_bool "writable after load" true (Ffs.Fs.file_exists fs inum))

let test_missing_file () =
  expect_corrupt "missing" (Aging.Image.load ?backend:None ~path:"/nonexistent/image.img")

let test_wrong_magic () =
  with_temp_image (fun path ->
      let oc = open_out path in
      output_string oc "not an image at all, definitely not one\n";
      close_out oc;
      expect_corrupt "bad magic" (Aging.Image.load ?backend:None ~path))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let test_error_names_file () =
  match Aging.Image.load ?backend:None ~path:"/nonexistent/image.img" with
  | Error (Ffs.Error.Corrupt msg) ->
      check_bool "message names the file" true
        (contains ~sub:"/nonexistent/image.img" msg)
  | _ -> Alcotest.fail "expected Error Corrupt"

(* A valid image with its last KB cut off: the payload-length field no
   longer matches the bytes on disk. *)
let test_truncated_image () =
  let result = aged () in
  with_temp_image (fun path ->
      Aging.Image.save_exn ~path { Aging.Image.days; description = "trunc"; result };
      let size = (Unix.stat path).Unix.st_size in
      Unix.truncate path (size - 1024);
      expect_corrupt "truncated" (Aging.Image.load ?backend:None ~path))

(* A valid image with one bit flipped in the middle of the payload: the
   CRC must catch it even though the framing is intact. *)
let test_bitflip_image () =
  let result = aged () in
  with_temp_image (fun path ->
      Aging.Image.save_exn ~path { Aging.Image.days; description = "flip"; result };
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      let size = (Unix.fstat fd).Unix.st_size in
      let pos = size / 2 in
      let buf = Bytes.create 1 in
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      ignore (Unix.read fd buf 0 1);
      Bytes.set buf 0 (Char.chr (Char.code (Bytes.get buf 0) lxor 0x10));
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      ignore (Unix.write fd buf 0 1);
      Unix.close fd;
      expect_corrupt "bit flip" (Aging.Image.load ?backend:None ~path))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "image"
    [
      ( "persistence",
        [
          tc "roundtrip" test_roundtrip;
          tc "missing file" test_missing_file;
          tc "wrong magic" test_wrong_magic;
          tc "error names file" test_error_names_file;
          tc "truncated image" test_truncated_image;
          tc "bit-flipped image" test_bitflip_image;
        ] );
    ]
