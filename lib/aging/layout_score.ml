let file_counts (ino : Ffs.Inode.t) =
  let entries = ino.Ffs.Inode.entries in
  let n = Array.length entries in
  if n < 2 then (0, 0) else (Ffs.Inode.optimal_links entries, n - 1)

let file_score ino =
  match file_counts ino with
  | _, 0 -> None
  | optimal, counted -> Some (float_of_int optimal /. float_of_int counted)

let ratio ~optimal ~counted =
  if counted = 0 then 1.0 else float_of_int optimal /. float_of_int counted

(* Runs every day of every replay: the file system keeps the two sums
   as per-group counters, so this reads them instead of every file. *)
let aggregate fs =
  let optimal, counted = Ffs.Fs.layout_counts fs in
  ratio ~optimal ~counted

let aggregate_of fs ~inums =
  let optimal, counted =
    List.fold_left
      (fun (o, c) inum ->
        let fo, fc = file_counts (Ffs.Fs.inode fs inum) in
        (o + fo, c + fc))
      (0, 0) inums
  in
  ratio ~optimal ~counted

type size_bucket = { max_bytes : int; score : float; files : int; counted_blocks : int }

let by_size ?(bucket_lo = 16 * 1024) ?(bucket_hi = 32 * 1024 * 1024) fs ~inums =
  let nbuckets =
    let rec count b n = if b >= bucket_hi then n + 1 else count (b * 2) (n + 1) in
    count bucket_lo 0
  in
  let optimal = Array.make nbuckets 0 in
  let counted = Array.make nbuckets 0 in
  let files = Array.make nbuckets 0 in
  let bucket_of size =
    let rec find b i = if size <= b || i = nbuckets - 1 then i else find (b * 2) (i + 1) in
    find bucket_lo 0
  in
  let visit (ino : Ffs.Inode.t) =
    let fo, fc = file_counts ino in
    if fc > 0 then begin
      let b = bucket_of ino.Ffs.Inode.size in
      optimal.(b) <- optimal.(b) + fo;
      counted.(b) <- counted.(b) + fc;
      files.(b) <- files.(b) + 1
    end
  in
  (match inums with
  | None -> Ffs.Fs.iter_files fs visit
  | Some list -> List.iter (fun inum -> visit (Ffs.Fs.inode fs inum)) list);
  let buckets = ref [] in
  for i = nbuckets - 1 downto 0 do
    if counted.(i) > 0 then
      buckets :=
        {
          max_bytes = bucket_lo * (1 lsl i);
          score = float_of_int optimal.(i) /. float_of_int counted.(i);
          files = files.(i);
          counted_blocks = counted.(i);
        }
        :: !buckets
  done;
  !buckets
