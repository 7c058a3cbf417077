(* Tests for the allocation bitmap, including a model-based property test
   against a naive boolean-array reference. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_opt = Alcotest.(check (option int))

let test_basic () =
  let b = Ffs.Bitmap.create 20 in
  check_int "length" 20 (Ffs.Bitmap.length b);
  check_bool "initially clear" false (Ffs.Bitmap.get b 0);
  Ffs.Bitmap.set b 7;
  check_bool "set" true (Ffs.Bitmap.get b 7);
  check_bool "neighbour untouched" false (Ffs.Bitmap.get b 8);
  Ffs.Bitmap.clear b 7;
  check_bool "cleared" false (Ffs.Bitmap.get b 7)

let test_ranges () =
  let b = Ffs.Bitmap.create 32 in
  Ffs.Bitmap.set_range b ~pos:5 ~len:10;
  check_bool "all set" true (Ffs.Bitmap.all_set b ~pos:5 ~len:10);
  check_bool "not beyond" false (Ffs.Bitmap.get b 15);
  check_bool "all_clear false" false (Ffs.Bitmap.all_clear b ~pos:0 ~len:10);
  check_bool "all_clear prefix" true (Ffs.Bitmap.all_clear b ~pos:0 ~len:5);
  Ffs.Bitmap.clear_range b ~pos:5 ~len:10;
  check_bool "cleared back" true (Ffs.Bitmap.all_clear b ~pos:0 ~len:32);
  check_bool "empty range all_set" true (Ffs.Bitmap.all_set b ~pos:3 ~len:0)

let test_counts () =
  let b = Ffs.Bitmap.create 100 in
  check_int "all clear" 100 (Ffs.Bitmap.count_clear b);
  Ffs.Bitmap.set_range b ~pos:10 ~len:25;
  check_int "set count" 25 (Ffs.Bitmap.count_set b);
  check_int "clear count" 75 (Ffs.Bitmap.count_clear b)

let test_find_clear () =
  let b = Ffs.Bitmap.create 16 in
  Ffs.Bitmap.set_range b ~pos:0 ~len:8;
  check_opt "skips the full byte" (Some 8) (Ffs.Bitmap.find_clear b ~start:0);
  check_opt "from middle" (Some 8) (Ffs.Bitmap.find_clear b ~start:3);
  Ffs.Bitmap.set_range b ~pos:8 ~len:8;
  check_opt "full bitmap" None (Ffs.Bitmap.find_clear b ~start:0);
  check_opt "start beyond end" None (Ffs.Bitmap.find_clear b ~start:99)

(* clear bits and runs that start, end, or straddle bits 63..65 exercise
   the carry between 64-bit words; these offsets are where a
   word-at-a-time implementation loses or duplicates bits *)
let test_word_boundary_runs () =
  let full n =
    let b = Ffs.Bitmap.create n in
    Ffs.Bitmap.set_range b ~pos:0 ~len:n;
    b
  in
  (* a single clear bit on each side of a word boundary *)
  List.iter
    (fun i ->
      let b = full 192 in
      Ffs.Bitmap.clear b i;
      check_opt (Fmt.str "find_clear lands on %d" i) (Some i)
        (Ffs.Bitmap.find_clear b ~start:0);
      check_opt (Fmt.str "find_clear from %d" i) (Some i) (Ffs.Bitmap.find_clear b ~start:i);
      check_opt (Fmt.str "nothing past %d" i) None (Ffs.Bitmap.find_clear b ~start:(i + 1));
      check_int (Fmt.str "one clear bit at %d" i) 1 (Ffs.Bitmap.count_clear b))
    [ 63; 64; 65; 127; 128 ];
  (* a run straddling the first boundary: [61..67] clear in a full map *)
  let b = full 192 in
  Ffs.Bitmap.clear_range b ~pos:61 ~len:7;
  check_bool "straddling run clear" true (Ffs.Bitmap.all_clear b ~pos:61 ~len:7);
  check_bool "one longer is not" false (Ffs.Bitmap.all_clear b ~pos:61 ~len:8);
  check_bool "one earlier is not" false (Ffs.Bitmap.all_clear b ~pos:60 ~len:7);
  check_opt "found from inside the straddle" (Some 64) (Ffs.Bitmap.find_clear b ~start:64);
  check_int "longest run across the boundary" 7
    (Ffs.Bitmap.max_clear_run b ~pos:56 ~len:16);
  (* an exactly-word-sized run filling the middle word *)
  let b = full 192 in
  Ffs.Bitmap.clear_range b ~pos:64 ~len:64;
  check_bool "full-word run clear" true (Ffs.Bitmap.all_clear b ~pos:64 ~len:64);
  check_bool "full word + 1 is not" false (Ffs.Bitmap.all_clear b ~pos:64 ~len:65);
  check_bool "neighbours still set" true
    (Ffs.Bitmap.all_set b ~pos:0 ~len:64 && Ffs.Bitmap.all_set b ~pos:128 ~len:64);
  check_int "full-word run length" 64 (Ffs.Bitmap.max_clear_run b ~pos:0 ~len:192);
  (* empty maps of word-boundary sizes: the padding past the last bit
     never reads as a clear bit *)
  List.iter
    (fun n ->
      let e = Ffs.Bitmap.create n in
      check_int (Fmt.str "empty %d-bit map is all clear" n) n (Ffs.Bitmap.count_clear e);
      check_opt (Fmt.str "empty %d-bit map, last bit" n) (Some (n - 1))
        (Ffs.Bitmap.find_clear e ~start:(n - 1));
      check_opt (Fmt.str "empty %d-bit map, past the end" n) None
        (Ffs.Bitmap.find_clear e ~start:n))
    [ 63; 64; 65; 128 ]

(* the table-driven per-block probes must agree with naive scans on
   every byte value, aligned (table path) and not (scan path) *)
let test_block_probes () =
  let check = Alcotest.(check int) in
  let check_opt = Alcotest.(check (option int)) in
  for v = 0 to 255 do
    let b = Ffs.Bitmap.create 24 in
    for i = 0 to 7 do
      if v land (1 lsl i) <> 0 then begin
        Ffs.Bitmap.set b (8 + i);
        (* unaligned twin at offset 3 *)
        Ffs.Bitmap.set b (3 + i)
      end
    done;
    let naive_max pos len =
      let best = ref 0 and run = ref 0 in
      for i = pos to pos + len - 1 do
        if Ffs.Bitmap.get b i then run := 0
        else begin
          incr run;
          if !run > !best then best := !run
        end
      done;
      !best
    in
    let naive_fit pos len count =
      let rec scan i run =
        if i >= pos + len then None
        else if not (Ffs.Bitmap.get b i) then
          if run + 1 >= count then Some (i - count + 1) else scan (i + 1) (run + 1)
        else scan (i + 1) 0
      in
      scan pos 0
    in
    check (Fmt.str "maxrun aligned %02x" v) (naive_max 8 8)
      (Ffs.Bitmap.max_clear_run b ~pos:8 ~len:8);
    check (Fmt.str "maxrun unaligned %02x" v) (naive_max 3 8)
      (Ffs.Bitmap.max_clear_run b ~pos:3 ~len:8);
    for count = 1 to 8 do
      check_opt
        (Fmt.str "fit aligned %02x count %d" v count)
        (naive_fit 8 8 count)
        (Ffs.Bitmap.find_clear_fit b ~pos:8 ~len:8 ~count);
      check_opt
        (Fmt.str "fit unaligned %02x count %d" v count)
        (naive_fit 3 8 count)
        (Ffs.Bitmap.find_clear_fit b ~pos:3 ~len:8 ~count)
    done
  done

let test_copy_independent () =
  let a = Ffs.Bitmap.create 8 in
  let b = Ffs.Bitmap.copy a in
  Ffs.Bitmap.set a 3;
  check_bool "copy untouched" false (Ffs.Bitmap.get b 3)

(* model-based: a random script of operations matches a bool-array model *)
let prop_model_based =
  let open QCheck in
  let op_gen =
    Gen.(
      frequency
        [
          (3, map (fun i -> `Set i) (int_bound 63));
          (3, map (fun i -> `Clear i) (int_bound 63));
          (1, map2 (fun p l -> `Set_range (p, l)) (int_bound 40) (int_bound 20));
          (1, map2 (fun p l -> `Clear_range (p, l)) (int_bound 40) (int_bound 20));
        ])
  in
  Test.make ~name:"bitmap matches boolean-array model" ~count:300
    (make Gen.(list_size (int_bound 60) op_gen))
    (fun script ->
      let b = Ffs.Bitmap.create 64 in
      let model = Array.make 64 false in
      List.iter
        (fun op ->
          match op with
          | `Set i ->
              Ffs.Bitmap.set b i;
              model.(i) <- true
          | `Clear i ->
              Ffs.Bitmap.clear b i;
              model.(i) <- false
          | `Set_range (p, l) ->
              Ffs.Bitmap.set_range b ~pos:p ~len:l;
              Array.fill model p l true
          | `Clear_range (p, l) ->
              Ffs.Bitmap.clear_range b ~pos:p ~len:l;
              Array.fill model p l false)
        script;
      let ok = ref true in
      for i = 0 to 63 do
        if Ffs.Bitmap.get b i <> model.(i) then ok := false
      done;
      (* cross-check the scanners against the model *)
      let naive_find_clear start =
        let rec go i = if i >= 64 then None else if not model.(i) then Some i else go (i + 1) in
        go start
      in
      let naive_all_clear pos len =
        let all = ref true in
        for j = pos to pos + len - 1 do
          if model.(j) then all := false
        done;
        !all
      in
      !ok
      && Ffs.Bitmap.find_clear b ~start:0 = naive_find_clear 0
      && Ffs.Bitmap.find_clear b ~start:13 = naive_find_clear 13
      && Ffs.Bitmap.all_clear b ~pos:0 ~len:5 = naive_all_clear 0 5
      && Ffs.Bitmap.all_clear b ~pos:9 ~len:50 = naive_all_clear 9 50
      && Ffs.Bitmap.count_set b = Array.fold_left (fun a v -> if v then a + 1 else a) 0 model)

(* alloc/free round-trip: treating [find_clear] from a hint, wrapping
   round to bit 0, plus [set] as an allocator, no bit is ever handed
   out twice while held, and the popcounts track an external allocation
   counter exactly *)
let prop_alloc_free_roundtrip =
  let open QCheck in
  Test.make ~name:"alloc/free round-trip never double-claims; popcount matches counter"
    ~count:200
    (make Gen.(list_size (int_bound 80) (pair bool (int_bound 63))))
    (fun script ->
      let b = Ffs.Bitmap.create 64 in
      let held = ref [] in
      let count = ref 0 in
      let ok = ref true in
      List.iter
        (fun (alloc, hint) ->
          if alloc then
            let found =
              match Ffs.Bitmap.find_clear b ~start:hint with
              | Some _ as r -> r
              | None -> Ffs.Bitmap.find_clear b ~start:0
            in
            match found with
            | Some i ->
                if Ffs.Bitmap.get b i then ok := false;
                if List.mem i !held then ok := false;
                Ffs.Bitmap.set b i;
                held := i :: !held;
                incr count
            | None -> if !count <> 64 then ok := false
          else
            match !held with
            | i :: rest ->
                if not (Ffs.Bitmap.get b i) then ok := false;
                Ffs.Bitmap.clear b i;
                held := rest;
                decr count
            | [] -> ())
        script;
      !ok
      && Ffs.Bitmap.count_set b = !count
      && Ffs.Bitmap.count_clear b = 64 - !count)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "bitmap"
    [
      ( "unit",
        [
          tc "basic" test_basic;
          tc "ranges" test_ranges;
          tc "counts" test_counts;
          tc "find_clear" test_find_clear;
          tc "word-boundary runs" test_word_boundary_runs;
          tc "block probes vs naive scan" test_block_probes;
          tc "copy" test_copy_independent;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_model_based;
          QCheck_alcotest.to_alcotest prop_alloc_free_roundtrip;
        ] );
    ]
