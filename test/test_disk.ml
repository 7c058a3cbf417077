(* Tests for the disk model: geometry, the seek curve, the drive service
   loop (rotation, read-ahead, lost rotations) and the raw benchmark. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let geom = Disk.Geometry.seagate_32430n

(* --- Geometry ---------------------------------------------------------- *)

let test_geometry_capacity () =
  let cap = Disk.Geometry.capacity_bytes geom in
  (* the paper's 2.1 GB disk *)
  check_bool "capacity near 2.1 GB" true
    (cap > 2_000_000_000 && cap < 2_300_000_000)

let test_geometry_chs () =
  let spc = Disk.Geometry.sectors_per_cylinder geom in
  check_int "sectors per cylinder" (9 * 116) spc;
  let chs = Disk.Geometry.lba_to_chs geom 0 in
  check_int "lba 0 cyl" 0 chs.Disk.Geometry.cylinder;
  check_int "lba 0 head" 0 chs.Disk.Geometry.head;
  let chs = Disk.Geometry.lba_to_chs geom (spc + 116 + 5) in
  check_int "cylinder" 1 chs.Disk.Geometry.cylinder;
  check_int "head" 1 chs.Disk.Geometry.head;
  check_int "sector" 5 chs.Disk.Geometry.sector

let test_geometry_chs_roundtrip () =
  let spc = Disk.Geometry.sectors_per_cylinder geom in
  let spt = geom.Disk.Geometry.sectors_per_track in
  List.iter
    (fun lba ->
      let c = Disk.Geometry.lba_to_chs geom lba in
      let back =
        (c.Disk.Geometry.cylinder * spc) + (c.Disk.Geometry.head * spt)
        + c.Disk.Geometry.sector
      in
      check_int (Fmt.str "roundtrip %d" lba) lba back)
    [ 0; 1; 115; 116; 1043; 1044; Disk.Geometry.total_sectors geom - 1 ]

let test_geometry_timing () =
  let period = Disk.Geometry.rotation_period geom in
  (* 5411 RPM -> 11.09 ms *)
  check_bool "rotation period" true (period > 0.0110 && period < 0.0112);
  let rate = Disk.Geometry.media_rate geom in
  (* 116 sectors * 512 B per revolution: ~5.1 MB/s *)
  check_bool "media rate" true (rate > 5.0e6 && rate < 5.6e6)

let test_sector_angle () =
  Alcotest.(check (float 1e-9)) "angle of sector 0" 0.0 (Disk.Geometry.sector_angle geom 0);
  let a = Disk.Geometry.sector_angle geom 58 in
  check_bool "angle of mid-track sector" true (a > 0.49 && a < 0.51)

(* --- Seek --------------------------------------------------------------- *)

let test_seek_fit_points () =
  let s =
    Disk.Seek.create ~single_ms:1.7 ~average_ms:11.0 ~full_ms:19.8 ~max_cylinder:3991
  in
  let near a b = Float.abs (a -. b) < 1e-6 in
  check_bool "zero distance" true (Disk.Seek.time s 0 = 0.0);
  check_bool "single" true (near (Disk.Seek.time s 1) 0.0017);
  check_bool "average at one-third stroke" true
    (near (Disk.Seek.time s (3991 / 3)) 0.011 || Float.abs (Disk.Seek.time s 1330 -. 0.011) < 2e-4);
  check_bool "full stroke" true (near (Disk.Seek.time s 3991) 0.0198)

let test_seek_monotone () =
  let s = Disk.Seek.default_for geom ~average_ms:11.0 in
  let prev = ref 0.0 in
  for d = 1 to 3991 do
    let t = Disk.Seek.time s d in
    check_bool (Fmt.str "monotone at %d" d) true (t >= !prev -. 1e-9);
    prev := t
  done

let test_seek_clamps () =
  let s = Disk.Seek.default_for geom ~average_ms:11.0 in
  Alcotest.(check (float 1e-12))
    "beyond max clamps" (Disk.Seek.time s 3991) (Disk.Seek.time s 100_000)

(* --- Drive ---------------------------------------------------------------- *)

let fresh () = Disk.Drive.create (Disk.Drive.paper_config ())

let test_drive_single_read_bounds () =
  let d = fresh () in
  let completion = Disk.Drive.service d ~now:0.0 Disk.Drive.Read ~lba:1000 ~nsectors:16 in
  (* at least command overhead + transfer; at most + full seek + rotation *)
  check_bool "lower bound" true (completion > 0.0005 +. (16.0 *. Disk.Geometry.sector_time geom));
  check_bool "upper bound" true (completion < 0.040)

let test_drive_sequential_read_streams () =
  let d = fresh () in
  (* first read pays positioning; the second is contiguous and must be
     served from the read-ahead at media rate *)
  let t1 = Disk.Drive.service d ~now:0.0 Disk.Drive.Read ~lba:0 ~nsectors:64 in
  let t2 = Disk.Drive.service d ~now:(t1 +. 0.0005) Disk.Drive.Read ~lba:64 ~nsectors:64 in
  let media_time = 64.0 *. Disk.Geometry.sector_time geom in
  check_bool "second read near media rate" true (t2 -. t1 < media_time +. 0.002);
  check_bool "buffer hit recorded" true ((Disk.Drive.stats d).Disk.Drive.buffer_hit_sectors >= 64)

let test_drive_write_lost_rotation () =
  let d = fresh () in
  let t1 = Disk.Drive.service d ~now:0.0 Disk.Drive.Write ~lba:0 ~nsectors:64 in
  (* contiguous write issued just after completion: the platter has
     rotated past -> almost a full extra rotation *)
  let t2 = Disk.Drive.service d ~now:(t1 +. 0.0007) Disk.Drive.Write ~lba:64 ~nsectors:64 in
  let period = Disk.Geometry.rotation_period geom in
  check_bool "waited most of a rotation" true
    (t2 -. t1 > 0.8 *. period +. (64.0 *. Disk.Geometry.sector_time geom));
  check_bool "lost rotation counted" true ((Disk.Drive.stats d).Disk.Drive.lost_rotations >= 1)

let test_drive_far_forward_read_repositions () =
  let d = fresh () in
  let t1 = Disk.Drive.service d ~now:0.0 Disk.Drive.Read ~lba:0 ~nsectors:64 in
  (* a jump of ~400 KB forward: repositioning must beat streaming across
     several tracks, so this must NOT cost 800 sectors of media time *)
  let t2 = Disk.Drive.service d ~now:(t1 +. 0.0005) Disk.Drive.Read ~lba:864 ~nsectors:64 in
  let stream_time = 864.0 *. Disk.Geometry.sector_time geom in
  check_bool "repositioned instead of streaming" true (t2 -. t1 < stream_time)

let test_drive_write_invalidates_readahead () =
  let d = fresh () in
  let t1 = Disk.Drive.service d ~now:0.0 Disk.Drive.Read ~lba:0 ~nsectors:64 in
  let t2 = Disk.Drive.service d ~now:t1 Disk.Drive.Write ~lba:5000 ~nsectors:16 in
  let before = (Disk.Drive.stats d).Disk.Drive.buffer_hit_sectors in
  let _t3 = Disk.Drive.service d ~now:t2 Disk.Drive.Read ~lba:64 ~nsectors:16 in
  check_int "no hit after write" before (Disk.Drive.stats d).Disk.Drive.buffer_hit_sectors

let test_drive_serializes () =
  let d = fresh () in
  let t1 = Disk.Drive.service d ~now:0.0 Disk.Drive.Read ~lba:0 ~nsectors:16 in
  (* passing an earlier [now] must clamp to the previous completion *)
  let t2 = Disk.Drive.service d ~now:0.0 Disk.Drive.Read ~lba:100_000 ~nsectors:16 in
  check_bool "second completion after first" true (t2 > t1);
  Alcotest.(check (float 1e-12)) "busy_until tracks" t2 (Disk.Drive.busy_until d)

let test_drive_stats_accounting () =
  let d = fresh () in
  let t1 = Disk.Drive.service d ~now:0.0 Disk.Drive.Read ~lba:0 ~nsectors:32 in
  ignore (Disk.Drive.service d ~now:t1 Disk.Drive.Write ~lba:100_000 ~nsectors:8);
  let s = Disk.Drive.stats d in
  check_int "requests" 2 s.Disk.Drive.requests;
  check_int "sectors read" 32 s.Disk.Drive.sectors_read;
  check_int "sectors written" 8 s.Disk.Drive.sectors_written;
  check_bool "seek happened" true (s.Disk.Drive.seek_count >= 1);
  Disk.Drive.reset_stats d;
  check_int "reset" 0 (Disk.Drive.stats d).Disk.Drive.requests

let test_drive_reset () =
  let d = fresh () in
  ignore (Disk.Drive.service d ~now:0.0 Disk.Drive.Read ~lba:0 ~nsectors:16);
  Disk.Drive.reset d;
  Alcotest.(check (float 0.0)) "busy cleared" 0.0 (Disk.Drive.busy_until d)

let test_max_transfer () =
  let d = fresh () in
  check_int "64 KB in sectors" 128 (Disk.Drive.max_transfer_sectors d)

let test_slow_bus_limits_transfers () =
  let fast = Disk.Drive.create (Disk.Drive.paper_config ()) in
  let slow = Disk.Drive.create (Disk.Drive.sparcstation_config ()) in
  let time d =
    let t0 = Disk.Drive.service d ~now:0.0 Disk.Drive.Read ~lba:0 ~nsectors:128 in
    let t1 = Disk.Drive.service d ~now:t0 Disk.Drive.Read ~lba:128 ~nsectors:128 in
    t1
  in
  (* 128 KB over a 1.6 MB/s bus needs at least 80 ms; the fast bus rides
     the media rate (~25 ms) *)
  check_bool "slow bus much slower" true (time slow > 2.0 *. time fast);
  check_bool "slow bus bounded by bus rate" true (time slow > 0.065)

(* Words [f] allocates: in the minor heap, plus directly in the major
   heap, net of the measurement's own. *)
let heap_words f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  Gc.minor ();
  let w0 = words () in
  let w1 = words () in
  let v = f () in
  let w2 = words () in
  ignore (Sys.opaque_identity v);
  w2 -. w1 -. (w1 -. w0)

(* Heap words per request over 10,000 scattered 16-sector writes. The
   geometry and seek arithmetic hand floats across module boundaries,
   and a float result is boxed only where its call is not inlined, so
   this guards how the product is compiled: the root dune-workspace's
   release profile (no -opaque) and its -inline 200. Measured 15.00
   words; the release profile without -inline 200 gives 25.00, and
   dune's dev profile (-opaque, no cross-module inlining) 31.00, which
   fails the bound. Only meaningful in native code (bytecode boxes
   every float). *)
let test_drive_words_per_request () =
  if Sys.backend_type = Sys.Native then begin
    let d = fresh () in
    let n = 10_000 in
    let span = Disk.Geometry.total_sectors geom - 16 in
    let words =
      heap_words (fun () ->
          let now = ref 0.0 in
          for i = 1 to n do
            (* a multiplicative hash scatters the targets over the disk *)
            let lba = (i * 2_654_435_761) land max_int mod span in
            now := Disk.Drive.service d ~now:!now Disk.Drive.Write ~lba ~nsectors:16
          done;
          !now)
    in
    let per = words /. float_of_int n in
    if per > 16.5 then
      Alcotest.failf "Drive.service allocated %.2f words per request (bound 16.5)" per
  end

(* --- Raw bench ----------------------------------------------------------------- *)

let test_raw_read_write_shape () =
  let d = fresh () in
  let read = Disk.Raw_bench.read_throughput d () in
  let write = Disk.Raw_bench.write_throughput d () in
  (* the paper's baselines: read ~5.4 MB/s (media rate), write ~2.6 MB/s
     (a lost rotation per 64 KB transfer) *)
  check_bool "read near media rate" true (read > 4.5e6 && read < 5.6e6);
  check_bool "write roughly half of read" true (write > 2.0e6 && write < 3.4e6);
  check_bool "read beats write" true (read > write)

let test_raw_result_consistency () =
  let d = fresh () in
  let r = Disk.Raw_bench.run d ~op:Disk.Drive.Read ~bytes:(1024 * 1024) () in
  check_int "bytes rounded to sectors" (1024 * 1024) r.Disk.Raw_bench.bytes;
  check_bool "throughput consistent" true
    (Float.abs
       ((float_of_int r.Disk.Raw_bench.bytes /. r.Disk.Raw_bench.elapsed)
       -. r.Disk.Raw_bench.throughput)
    < 1.0)

(* --- properties ------------------------------------------------------------------ *)

let prop_service_advances_time =
  QCheck.Test.make ~name:"service completion is after arrival" ~count:300
    QCheck.(triple (int_bound 1_000_000) (int_range 1 128) bool)
    (fun (lba, n, is_write) ->
      let d = fresh () in
      let op = if is_write then Disk.Drive.Write else Disk.Drive.Read in
      let now = 1.0 in
      let completion = Disk.Drive.service d ~now op ~lba ~nsectors:n in
      completion > now)

let prop_seek_nonnegative =
  QCheck.Test.make ~name:"seek time nonnegative and bounded" ~count:500
    QCheck.(int_bound 10_000)
    (fun dist ->
      let s = Disk.Seek.default_for geom ~average_ms:11.0 in
      let t = Disk.Seek.time s dist in
      t >= 0.0 && t < 0.1)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "disk"
    [
      ( "geometry",
        [
          tc "capacity" test_geometry_capacity;
          tc "chs decompose" test_geometry_chs;
          tc "chs roundtrip" test_geometry_chs_roundtrip;
          tc "timing constants" test_geometry_timing;
          tc "sector angle" test_sector_angle;
        ] );
      ( "seek",
        [
          tc "fit points" test_seek_fit_points;
          tc "monotone" test_seek_monotone;
          tc "clamps" test_seek_clamps;
        ] );
      ( "drive",
        [
          tc "single read bounds" test_drive_single_read_bounds;
          tc "sequential read streams" test_drive_sequential_read_streams;
          tc "write lost rotation" test_drive_write_lost_rotation;
          tc "far forward read repositions" test_drive_far_forward_read_repositions;
          tc "write invalidates read-ahead" test_drive_write_invalidates_readahead;
          tc "serializes requests" test_drive_serializes;
          tc "stats accounting" test_drive_stats_accounting;
          tc "reset" test_drive_reset;
          tc "max transfer" test_max_transfer;
          tc "slow bus (SparcStation config)" test_slow_bus_limits_transfers;
          tc "words per request" test_drive_words_per_request;
        ] );
      ( "raw bench",
        [
          tc "read/write shape" test_raw_read_write_shape;
          tc "result consistency" test_raw_result_consistency;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_service_advances_time; prop_seek_nonnegative ] );
    ]
