(* Tests for the fsck-style consistency checker: a healthy image is
   clean; injected corruptions are detected and classified. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let params = Ffs.Params.small_test_fs
let block = params.Ffs.Params.block_bytes

let populated () =
  let fs = Ffs.Fs.create params in
  let d = Ffs.Fs.mkdir_exn fs ~parent:(Ffs.Fs.root fs) ~name:"d" in
  let a = Ffs.Fs.create_file_exn fs ~dir:d ~name:"a" ~size:(3 * block) in
  let b = Ffs.Fs.create_file_exn fs ~dir:d ~name:"b" ~size:(2 * block) in
  (fs, a, b)

let test_clean_image () =
  let fs, _, _ = populated () in
  let r = Ffs.Check.run fs in
  check_bool "clean" true (Ffs.Check.is_clean r);
  check_int "files" 2 r.Ffs.Check.files;
  check_int "directories" 2 r.Ffs.Check.directories;
  (* 5 file blocks + 2 dir fragments *)
  check_int "fragments claimed" ((5 * 8) + 2) r.Ffs.Check.fragments_claimed

let test_clean_after_aging () =
  let profile =
    { (Workload.Ground_truth.scaled params ~days:6) with Workload.Ground_truth.seed = 5 }
  in
  let gt = Workload.Ground_truth.generate params profile in
  List.iter
    (fun config ->
      let r = Aging.Replay.run ~config ~params ~days:6 gt.Workload.Ground_truth.ops in
      check_bool "aged image clean" true
        (Ffs.Check.is_clean (Ffs.Check.run r.Aging.Replay.fs)))
    [ Ffs.Fs.default_config; Ffs.Fs.realloc_config ]

let has_problem r pred = List.exists pred r.Ffs.Check.problems

let test_detects_double_claim () =
  let fs, a, b = populated () in
  let ia = Ffs.Fs.inode fs a in
  (* make b claim a's first block as well *)
  Ffs.Fs.corrupt_inode fs b (fun ib -> { ib with Ffs.Inode.entries = ia.Ffs.Inode.entries });
  let r = Ffs.Check.run fs in
  check_bool "not clean" false (Ffs.Check.is_clean r);
  check_bool "double claim reported" true
    (has_problem r (function Ffs.Check.Double_claim _ -> true | _ -> false));
  (* b's real blocks are now allocated but unowned: usage mismatch *)
  check_bool "usage mismatch reported" true
    (has_problem r (function Ffs.Check.Usage_mismatch _ -> true | _ -> false))

let test_detects_claim_of_free_fragment () =
  let fs, a, b = populated () in
  ignore a;
  let ib = Ffs.Fs.inode fs b in
  let stolen = ib.Ffs.Inode.entries in
  (* delete b but keep a dangling reference to its (now free) blocks via
     a's inode *)
  Ffs.Fs.delete_inum_exn fs b;
  Ffs.Fs.corrupt_inode fs a (fun ia ->
      { ia with Ffs.Inode.entries = Array.append ia.Ffs.Inode.entries stolen });
  let r = Ffs.Check.run fs in
  check_bool "claim-not-allocated reported" true
    (has_problem r (function Ffs.Check.Claim_not_allocated _ -> true | _ -> false))

let test_detects_corrupted_bitmap () =
  let fs, a, _ = populated () in
  let ia = Ffs.Fs.inode fs a in
  let addr = ia.Ffs.Inode.entries.(0).Ffs.Inode.addr in
  let cg = Ffs.Params.group_of_frag params addr in
  let local = addr - Ffs.Params.data_base params cg in
  (* flip one of a's fragments free behind the inode's back: the bitmap
     now disagrees with the claim *)
  Ffs.Cg.free_frags (Ffs.Fs.cg_states fs).(cg) ~pos:local ~count:1;
  let r = Ffs.Check.run fs in
  check_bool "not clean" false (Ffs.Check.is_clean r);
  check_bool "claim of the corrupted fragment reported" true
    (has_problem r (function
      | Ffs.Check.Claim_not_allocated { fragment; _ } -> fragment = addr
      | _ -> false))

(* deliberately skewed extent indexes: the index-consistency pass must
   flag divergence from the bitmaps, and repair must rebuild it *)

let test_detects_skewed_index () =
  List.iter
    (fun (what, skew) ->
      let fs, _, _ = populated () in
      let cg = (Ffs.Fs.cg_states fs).(0) in
      skew cg;
      let r = Ffs.Check.run fs in
      check_bool (what ^ ": not clean") false (Ffs.Check.is_clean r);
      check_bool (what ^ ": index mismatch reported") true
        (has_problem r (function
          | Ffs.Check.Index_mismatch { cg = 0; _ } -> true
          | _ -> false));
      ignore (Ffs.Check.repair_exn fs);
      check_bool (what ^ ": clean after repair") true
        (Ffs.Check.is_clean (Ffs.Check.run fs)))
    [
      (* a used block lies as free in the index *)
      ("free bit on used block", fun cg -> Ffs.Cg.corrupt_index_toggle_free cg 0);
      (* a genuinely free block vanishes from the index *)
      ( "free bit dropped",
        fun cg -> Ffs.Cg.corrupt_index_toggle_free cg (Ffs.Cg.data_blocks cg - 1) );
      (* a wholly free block squats in a fragment-fit bucket *)
      ( "bogus fit membership",
        fun cg -> Ffs.Cg.corrupt_index_toggle_fit cg (Ffs.Cg.data_blocks cg - 1) ~len:3 );
    ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_skewed_index_pp () =
  let fs, _, _ = populated () in
  Ffs.Cg.corrupt_index_toggle_free (Ffs.Fs.cg_states fs).(0) 0;
  let dirty = Fmt.str "%a" Ffs.Check.pp (Ffs.Check.run fs) in
  check_bool "report names the index" true (contains dirty "free-space index")

let test_detects_bad_run () =
  let fs, a, _ = populated () in
  Ffs.Fs.corrupt_inode fs a (fun ia ->
      { ia with Ffs.Inode.entries = [| { Ffs.Inode.addr = -5; frags = 8 } |] });
  let r = Ffs.Check.run fs in
  check_bool "bad run reported" true
    (has_problem r (function Ffs.Check.Bad_run _ -> true | _ -> false))

(* A run the data-area check rejects is one [Bad_run], whatever its
   shape, and repair drops it whole. [Fs.set_entries] keeps the layout
   sums current, so the bad run is the only problem. *)
let bad_run_reported_once what ~addr ~frags () =
  let fs, a, _ = populated () in
  let ia = Ffs.Fs.inode fs a in
  Ffs.Fs.set_entries fs ia (Array.append ia.Ffs.Inode.entries [| { Ffs.Inode.addr; frags } |]);
  let r = Ffs.Check.run fs in
  if r.Ffs.Check.problems <> [ Ffs.Check.Bad_run { inum = a; addr; frags } ] then
    Alcotest.failf "%s: want one bad run, got %a" what Ffs.Check.pp r;
  let log = Ffs.Check.repair_exn fs in
  check_int (what ^ ": one bad run cleared") 1 log.Ffs.Check.bad_runs_cleared;
  check_bool (what ^ ": nothing else repaired") true
    (Ffs.Check.repair_is_noop { log with Ffs.Check.bad_runs_cleared = 0 });
  check_bool (what ^ ": clean after repair") true (Ffs.Check.is_clean (Ffs.Check.run fs))

(* [addr + frags] overflows to a negative end *)
let test_detects_overflowing_run = bad_run_reported_once "overflow" ~addr:5 ~frags:max_int

(* inside group 1's metadata area (its superblock copy), which no
   inode may claim *)
let test_detects_metadata_run =
  bad_run_reported_once "metadata" ~addr:(Ffs.Params.group_base params 1) ~frags:2

(* --- repair: directed cases with exact log counts -------------------------- *)

let test_repair_double_claim_first_owner_wins () =
  let fs, a, b = populated () in
  let ia = Ffs.Fs.inode fs a in
  (* b claims a's runs wholesale; b's own 2 blocks (16 fragments) leak *)
  Ffs.Fs.corrupt_inode fs b (fun ib -> { ib with Ffs.Inode.entries = ia.Ffs.Inode.entries });
  let log = Ffs.Check.repair_exn fs in
  check_bool "double claims resolved" true (log.Ffs.Check.double_claims_resolved > 0);
  check_int "b's leaked fragments reclaimed" 16 log.Ffs.Check.leaked_frags_reclaimed;
  let first = min a b and second = max a b in
  check_bool "first owner keeps its runs" true
    (Array.length (Ffs.Fs.inode fs first).Ffs.Inode.entries > 0);
  check_int "second owner loses the stolen runs" 0
    (Array.length (Ffs.Fs.inode fs second).Ffs.Inode.entries);
  check_bool "clean after repair" true (Ffs.Check.is_clean (Ffs.Check.run fs));
  check_bool "repair is idempotent" true (Ffs.Check.repair_is_noop (Ffs.Check.repair_exn fs))

let test_repair_bad_run_cleared () =
  let fs, a, _ = populated () in
  Ffs.Fs.corrupt_inode fs a (fun ia ->
      {
        ia with
        Ffs.Inode.entries =
          Array.append ia.Ffs.Inode.entries [| { Ffs.Inode.addr = -5; frags = 8 } |];
      });
  let log = Ffs.Check.repair_exn fs in
  check_int "one bad run cleared" 1 log.Ffs.Check.bad_runs_cleared;
  check_int "nothing leaked" 0 log.Ffs.Check.leaked_frags_reclaimed;
  check_bool "clean after repair" true (Ffs.Check.is_clean (Ffs.Check.run fs));
  check_bool "log renders" true
    (String.length (Fmt.str "%a" Ffs.Check.pp_repair log) > 0)

let test_pp_smoke () =
  let fs, a, _ = populated () in
  let clean = Fmt.str "%a" Ffs.Check.pp (Ffs.Check.run fs) in
  check_bool "clean report mentions clean" true
    (String.length clean > 0 && String.sub clean 0 5 = "clean");
  Ffs.Fs.corrupt_inode fs a (fun ia ->
      { ia with Ffs.Inode.entries = [| { Ffs.Inode.addr = -1; frags = 1 } |] });
  let dirty = Fmt.str "%a" Ffs.Check.pp (Ffs.Check.run fs) in
  check_bool "dirty report nonempty" true (String.length dirty > 10)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "check"
    [
      ( "checker",
        [
          tc "clean image" test_clean_image;
          tc "clean after aging" test_clean_after_aging;
          tc "detects double claim" test_detects_double_claim;
          tc "detects claim of free fragment" test_detects_claim_of_free_fragment;
          tc "detects corrupted bitmap" test_detects_corrupted_bitmap;
          tc "detects bad run" test_detects_bad_run;
          tc "detects overflowing run" test_detects_overflowing_run;
          tc "metadata-area run is one bad run" test_detects_metadata_run;
          tc "detects skewed extent index" test_detects_skewed_index;
          tc "skewed index pp" test_skewed_index_pp;
          tc "pp smoke" test_pp_smoke;
        ] );
      ( "repair",
        [
          tc "double claim: first owner wins" test_repair_double_claim_first_owner_wins;
          tc "bad run cleared" test_repair_bad_run_cleared;
        ] );
    ]
