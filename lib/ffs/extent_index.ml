(* Hierarchical bitmap: 63-bit words, each upper level summarising which
   words of the level below are nonzero. A successor query touches at
   most one word per level going up and one per level coming down. *)
module Hier = struct
  type t = { n : int; levels : int array array }

  let word = 63

  let nwords bits = (bits + word - 1) / word

  let create n =
    assert (n >= 0);
    let rec sizes acc bits =
      let w = max 1 (nwords bits) in
      if w <= 1 then List.rev (1 :: acc) else sizes (w :: acc) w
    in
    { n; levels = Array.of_list (List.map (fun w -> Array.make w 0) (sizes [] n)) }

  let copy t = { t with levels = Array.map Array.copy t.levels }
  let clear_all t = Array.iter (fun lv -> Array.fill lv 0 (Array.length lv) 0) t.levels
  let mem t i = t.levels.(0).(i / word) land (1 lsl (i mod word)) <> 0

  (* Set/clear bit [i] of level [k], climbing while the word changes
     between empty and nonempty. Top-level recursions over [levels]: a
     local [let rec] would capture [t] and allocate a closure per call. *)
  let rec set_at levels k i =
    if k < Array.length levels then begin
      let lv = levels.(k) and w = i / word in
      let old = lv.(w) in
      lv.(w) <- old lor (1 lsl (i mod word));
      (* the word was empty: its summary bit above is not yet set *)
      if old = 0 then set_at levels (k + 1) w
    end

  let rec clear_at levels k i =
    if k < Array.length levels then begin
      let lv = levels.(k) and w = i / word in
      let now = lv.(w) land lnot (1 lsl (i mod word)) in
      lv.(w) <- now;
      if now = 0 then clear_at levels (k + 1) w
    end

  let set t i =
    assert (i >= 0 && i < t.n);
    set_at t.levels 0 i

  let clear t i =
    assert (i >= 0 && i < t.n);
    clear_at t.levels 0 i

  (* The bits of word [w] that fall in [pos .. last]. *)
  let span_mask ~w ~pos ~last =
    let base = w * word in
    let lo = Int.max pos base - base and hi = Int.min last (base + word - 1) - base in
    ((-1) lsr (word - (hi - lo + 1))) lsl lo

  (* Range forms: one mask per level-0 word, climbing only from a word
     that turns nonempty (set) or empty (clear). Every bit in the range
     must be clear (set) beforehand, checked per word. *)
  let set_range t ~pos ~len =
    assert (pos >= 0 && len >= 1 && pos + len <= t.n);
    let lv = t.levels.(0) and last = pos + len - 1 in
    for w = pos / word to last / word do
      let mask = span_mask ~w ~pos ~last and old = lv.(w) in
      assert (old land mask = 0);
      lv.(w) <- old lor mask;
      if old = 0 then set_at t.levels 1 w
    done

  let clear_range t ~pos ~len =
    assert (pos >= 0 && len >= 1 && pos + len <= t.n);
    let lv = t.levels.(0) and last = pos + len - 1 in
    for w = pos / word to last / word do
      let mask = span_mask ~w ~pos ~last and old = lv.(w) in
      assert (old land mask = mask);
      let now = old lxor mask in
      lv.(w) <- now;
      if now = 0 then clear_at t.levels 1 w
    done

  (* Index of the lowest set bit of [x] (x <> 0, bits 0..62), branch
     and allocation free: multiplying the isolated bit by a de Bruijn
     constant puts a distinct 6-bit window in the top bits of the
     63-bit product, and a 64-entry table maps the window back. *)
  let debruijn = 0x03f79d71b4cb0a89

  let debruijn_index =
    let tbl = Bytes.make 64 '\000' in
    for k = 0 to word - 1 do
      Bytes.set tbl (((1 lsl k) * debruijn) lsr (word - 6)) (Char.chr k)
    done;
    Bytes.to_string tbl

  let lowest_set x =
    Char.code (String.unsafe_get debruijn_index (((x land (-x)) * debruijn) lsr (word - 6)))

  (* First set bit at or after bit [i] of level [k], or -1: find the
     first nonempty word there, climbing when the rest of this word is
     empty, then descend back to its lowest set bit. *)
  let rec succ_at levels k i =
    let lv = levels.(k) and w = i / word in
    if w >= Array.length lv then -1
    else begin
      let masked = lv.(w) land ((-1) lsl (i mod word)) in
      if masked <> 0 then (w * word) + lowest_set masked
      else if k + 1 >= Array.length levels then -1
      else begin
        let j = succ_at levels (k + 1) (w + 1) in
        if j < 0 then -1 else (j * word) + lowest_set lv.(j)
      end
    end

  (* first set bit at index >= i, or -1 *)
  let succ t i =
    let i = Int.max i 0 in
    if i >= t.n then -1
    else begin
      let j = succ_at t.levels 0 i in
      if j < t.n then j else -1
    end

  (* every summary bit must equal "the word below is nonzero" *)
  let audit t ~name =
    let bad = ref [] in
    for k = 1 to Array.length t.levels - 1 do
      Array.iteri
        (fun j below ->
          let have = t.levels.(k).(j / word) land (1 lsl (j mod word)) <> 0 in
          if have <> (below <> 0) then
            bad :=
              Fmt.str "%s: level-%d summary of word %d says %b, word is %s" name k j have
                (if below = 0 then "empty" else "nonempty")
              :: !bad)
        t.levels.(k - 1)
    done;
    List.rev !bad
end

type t = {
  nblocks : int;
  fpb : int;
  free : Hier.t;  (* bit set = block entirely free *)
  used : Hier.t;  (* bit set = at least one fragment used *)
  maxrun : Bytes.t;  (* per block: longest in-block free-fragment run *)
  fit : Hier.t array;  (* fit.(l-1): partial blocks with a free run >= l *)
  lengths : Bytes.t;  (* cells: free-block run length, valid at run endpoints only *)
  counts : Bytes.t;  (* cells: cell l = maximal free-block runs of length l *)
  lens : Hier.t;  (* bit l set iff count l > 0 *)
}

(* [lengths] and [counts] are tables of 32-bit cells (a group has far
   fewer than 2^31 blocks), so copying an index copies them as bytes *)
let cells n = Bytes.make (4 * n) '\000'
let cell b i = Int32.to_int (Bytes.get_int32_ne b (4 * i))
let set_cell b i v = Bytes.set_int32_ne b (4 * i) (Int32.of_int v)
let length_at t b = cell t.lengths b
let count_of t len = cell t.counts len

let add_run t ~s ~e =
  let len = e - s + 1 in
  if len > 0 then begin
    let c = count_of t len in
    if c = 0 then Hier.set t.lens len;
    set_cell t.counts len (c + 1);
    set_cell t.lengths s len;
    set_cell t.lengths e len
  end

let drop_run t len =
  let c = count_of t len - 1 in
  set_cell t.counts len c;
  if c = 0 then Hier.clear t.lens len

let reset t =
  Hier.clear_all t.used;
  Array.iter Hier.clear_all t.fit;
  Bytes.fill t.maxrun 0 (Bytes.length t.maxrun) (Char.chr t.fpb);
  Hier.clear_all t.free;
  if t.nblocks > 0 then Hier.set_range t.free ~pos:0 ~len:t.nblocks;
  Bytes.fill t.lengths 0 (Bytes.length t.lengths) '\000';
  Bytes.fill t.counts 0 (Bytes.length t.counts) '\000';
  Hier.clear_all t.lens;
  add_run t ~s:0 ~e:(t.nblocks - 1)

let create ~nblocks ~fpb =
  assert (nblocks >= 0 && fpb >= 1 && fpb <= 8);
  let t =
    {
      nblocks;
      fpb;
      free = Hier.create nblocks;
      used = Hier.create nblocks;
      maxrun = Bytes.make (max 1 nblocks) (Char.chr fpb);
      fit = Array.init (fpb - 1) (fun _ -> Hier.create nblocks);
      lengths = cells (max 1 nblocks);
      counts = cells (nblocks + 1);
      lens = Hier.create (nblocks + 1);
    }
  in
  reset t;
  t

let copy t =
  {
    t with
    free = Hier.copy t.free;
    used = Hier.copy t.used;
    maxrun = Bytes.copy t.maxrun;
    fit = Array.map Hier.copy t.fit;
    lengths = Bytes.copy t.lengths;
    counts = Bytes.copy t.counts;
    lens = Hier.copy t.lens;
  }

let block_maxrun t b = Char.code (Bytes.get t.maxrun b)

(* public queries answer in options; the sentinel stays inside *)
let opt j = if j < 0 then None else Some j

let succ_free t ~start = opt (Hier.succ t.free start)

let run_end t b =
  let u = Hier.succ t.used b in
  if u < 0 then t.nblocks - 1 else u - 1

(* a block is in fit bucket l iff it is partial with maxrun >= l; a
   wholly free block (maxrun = fpb) belongs to no bucket *)
let fit_degree t m = if m >= t.fpb then 0 else m

(* Blocks [first ..+ len], all entirely free and so one stretch of a
   single free run, turn entirely used: one split of that run. Its
   bounds come from the used hierarchy and the endpoint lengths, never
   a walk. Free and entirely used blocks belong to no fit bucket, so
   the buckets do not move. *)
let take_range t ~first ~len =
  assert (len >= 1 && first >= 0 && first + len <= t.nblocks);
  let last = first + len - 1 in
  let e = run_end t first in
  let s = e - length_at t e + 1 in
  assert (s <= first && last <= e);
  drop_run t (e - s + 1);
  Hier.clear_range t.free ~pos:first ~len;
  Hier.set_range t.used ~pos:first ~len;
  Bytes.fill t.maxrun first len '\000';
  add_run t ~s ~e:(first - 1);
  add_run t ~s:(last + 1) ~e

(* Blocks [first ..+ len], none entirely free, turn entirely free: one
   merge with the free runs on either side. Callers pass entirely used
   blocks, except {!update}, which then clears a partial block's fit
   buckets itself. *)
let give_range t ~first ~len =
  assert (len >= 1 && first >= 0 && first + len <= t.nblocks);
  let last = first + len - 1 in
  let left = if first > 0 && Hier.mem t.free (first - 1) then length_at t (first - 1) else 0 in
  let right =
    if last + 1 < t.nblocks && Hier.mem t.free (last + 1) then length_at t (last + 1) else 0
  in
  if left > 0 then drop_run t left;
  if right > 0 then drop_run t right;
  (* clear_range checks that every block was used *)
  Hier.clear_range t.used ~pos:first ~len;
  Hier.set_range t.free ~pos:first ~len;
  Bytes.fill t.maxrun first len (Char.chr t.fpb);
  add_run t ~s:(first - left) ~e:(last + right)

let update t b ~maxrun =
  assert (maxrun >= 0 && maxrun <= t.fpb);
  let old = block_maxrun t b in
  if maxrun <> old then begin
    let was_free = old = t.fpb and is_free = maxrun = t.fpb in
    (* a free/used flip is a one-block range; the range forms set the
       recorded max run to 0 or [fpb], which the store below corrects *)
    if was_free && not is_free then take_range t ~first:b ~len:1
    else if is_free && not was_free then give_range t ~first:b ~len:1;
    Bytes.set t.maxrun b (Char.chr maxrun);
    let d_old = fit_degree t old and d_new = fit_degree t maxrun in
    for l = d_new + 1 to d_old do
      Hier.clear t.fit.(l - 1) b
    done;
    for l = d_old + 1 to d_new do
      Hier.set t.fit.(l - 1) b
    done
  end

let succ_fit t ~count ~start =
  assert (count >= 1 && count < t.fpb);
  opt (Hier.succ t.fit.(count - 1) start)

let shortest_run t ~len = opt (Hier.succ t.lens len)

(* Past the run holding [pos], every hop lands on a run start, where
   [lengths] is valid: one successor query on [free] per run. The first
   run needs [run_end], since [pos] may be mid-run. *)
let rec first_fit_hop t ~s ~len =
  if s < 0 || s + len > t.nblocks then -1
  else begin
    let run = length_at t s in
    if run >= len then s else first_fit_hop t ~s:(Hier.succ t.free (s + run)) ~len
  end

let first_fit t ~start ~len =
  assert (len >= 1);
  let s = Hier.succ t.free start in
  if s < 0 || s + len > t.nblocks then None
  else begin
    let e = run_end t s in
    if e - s + 1 >= len then Some s else opt (first_fit_hop t ~s:(Hier.succ t.free (e + 1)) ~len)
  end

let rec first_run_hop t ~s ~len =
  if s < 0 then -1
  else begin
    let run = length_at t s in
    if run = len then s else first_run_hop t ~s:(Hier.succ t.free (s + run)) ~len
  end

(* block 0 starts a run if free, so every hop reads [lengths] *)
let first_run_of t ~len = opt (first_run_hop t ~s:(Hier.succ t.free 0) ~len)

let longest_run t =
  let rec go l = if l = 0 || count_of t l > 0 then l else go (l - 1) in
  go t.nblocks

let run_histogram t ~max =
  assert (max >= 1);
  let out = Array.make max 0 in
  for len = 1 to t.nblocks do
    let slot = min len max - 1 in
    out.(slot) <- out.(slot) + count_of t len
  done;
  out

let histogram t =
  let nbuckets =
    let rec go i = if 1 lsl i > max 1 t.nblocks then i else go (i + 1) in
    go 1
  in
  let out = Array.make nbuckets 0 in
  let bucket_of len =
    let rec go i = if 1 lsl (i + 1) > len then i else go (i + 1) in
    go 0
  in
  for len = 1 to t.nblocks do
    let i = min (bucket_of len) (nbuckets - 1) in
    out.(i) <- out.(i) + count_of t len
  done;
  Array.mapi (fun i c -> (1 lsl i, c)) out

(* --- consistency ---------------------------------------------------------- *)

(* The run summary against a recount of the block map: the first
   divergence only, as one message. *)
let audit_runs t ~block_free =
  let recount = Array.make (t.nblocks + 1) 0 in
  let bad = ref None in
  let complain fmt = Fmt.kstr (fun m -> if !bad = None then bad := Some m) fmt in
  let b = ref 0 in
  while !b < t.nblocks do
    if block_free !b then begin
      let s = !b in
      while !b < t.nblocks && block_free !b do
        incr b
      done;
      let e = !b - 1 in
      let len = e - s + 1 in
      recount.(len) <- recount.(len) + 1;
      if length_at t s <> len || length_at t e <> len then
        complain "runs: endpoint lengths wrong for run [%d,%d] (have %d/%d)" s e
          (length_at t s) (length_at t e)
    end
    else incr b
  done;
  Array.iteri
    (fun len c ->
      if c <> count_of t len then
        complain "runs: count for length %d is %d, expected %d" len (count_of t len) c
      else if len > 0 && Hier.mem t.lens len <> (c > 0) then
        complain "runs: length %d marked %b, count is %d" len (Hier.mem t.lens len) c)
    recount;
  Option.to_list !bad

let audit t ~frag_free ~block_free =
  let bad = ref [] in
  let complain fmt = Fmt.kstr (fun m -> bad := m :: !bad) fmt in
  for b = 0 to t.nblocks - 1 do
    (* ground truth from the fragment bitmap *)
    let best = ref 0 and run = ref 0 in
    for f = b * t.fpb to ((b + 1) * t.fpb) - 1 do
      if frag_free f then begin
        incr run;
        if !run > !best then best := !run
      end
      else run := 0
    done;
    let truth = !best in
    if block_maxrun t b <> truth then
      complain "block %d: recorded max free run %d, bitmap says %d" b (block_maxrun t b)
        truth;
    let is_free = truth = t.fpb in
    if Hier.mem t.free b <> is_free then
      complain "block %d: free hierarchy says %b, bitmap says %b" b (Hier.mem t.free b)
        is_free;
    if Hier.mem t.used b <> not is_free then
      complain "block %d: used hierarchy says %b, bitmap says %b" b (Hier.mem t.used b)
        (not is_free);
    let d = fit_degree t truth in
    for l = 1 to t.fpb - 1 do
      let want = l <= d in
      if Hier.mem t.fit.(l - 1) b <> want then
        complain "block %d: fit bucket %d says %b, bitmap says %b" b l
          (Hier.mem t.fit.(l - 1) b)
          want
    done
  done;
  let summaries =
    Hier.audit t.free ~name:"free"
    @ Hier.audit t.used ~name:"used"
    @ Hier.audit t.lens ~name:"lens"
    @ List.concat
        (List.mapi
           (fun i h -> Hier.audit h ~name:(Fmt.str "fit[%d]" (i + 1)))
           (Array.to_list t.fit))
  in
  List.rev !bad @ audit_runs t ~block_free @ summaries

(* --- fault injection ------------------------------------------------------ *)

let corrupt_toggle_free t b =
  if Hier.mem t.free b then Hier.clear t.free b else Hier.set t.free b

let corrupt_toggle_fit t b ~len =
  assert (len >= 1 && len < t.fpb);
  let h = t.fit.(len - 1) in
  if Hier.mem h b then Hier.clear h b else Hier.set h b
