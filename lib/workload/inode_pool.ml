type t = {
  ipg : int;
  ncg : int;
  used : Ffs.Bitmap.t array;  (* per group *)
  free_counts : int array;
  low : int array;  (* per group: no free slot below it *)
  mutable total_allocated : int;
}

let create params =
  let ipg = Ffs.Params.inodes_per_group params in
  let ncg = params.Ffs.Params.ncg in
  {
    ipg;
    ncg;
    used = Array.init ncg (fun _ -> Ffs.Bitmap.create ipg);
    free_counts = Array.make ncg ipg;
    low = Array.make ncg 0;
    total_allocated = 0;
  }

let copy t =
  {
    t with
    used = Array.map Ffs.Bitmap.copy t.used;
    free_counts = Array.copy t.free_counts;
    low = Array.copy t.low;
  }

(* the search starts at the group's low-water slot, as [Cg.alloc_inode]
   does, instead of rescanning the group's full prefix each time *)
let alloc t ~cg =
  assert (cg >= 0 && cg < t.ncg);
  let rec try_cg i =
    if i >= t.ncg then None
    else begin
      let c = (cg + i) mod t.ncg in
      if t.free_counts.(c) = 0 then try_cg (i + 1)
      else
        match Ffs.Bitmap.find_clear t.used.(c) ~start:t.low.(c) with
        | None -> try_cg (i + 1)
        | Some slot ->
            Ffs.Bitmap.set t.used.(c) slot;
            t.low.(c) <- slot + 1;
            t.free_counts.(c) <- t.free_counts.(c) - 1;
            t.total_allocated <- t.total_allocated + 1;
            Some ((c * t.ipg) + slot)
    end
  in
  try_cg 0

let free t ino =
  let cg = ino / t.ipg and slot = ino mod t.ipg in
  assert (Ffs.Bitmap.get t.used.(cg) slot);
  Ffs.Bitmap.clear t.used.(cg) slot;
  if slot < t.low.(cg) then t.low.(cg) <- slot;
  t.free_counts.(cg) <- t.free_counts.(cg) + 1;
  t.total_allocated <- t.total_allocated - 1

let is_allocated t ino =
  let cg = ino / t.ipg and slot = ino mod t.ipg in
  cg < t.ncg && Ffs.Bitmap.get t.used.(cg) slot

let allocated_count t = t.total_allocated
let cg_of t ino = ino / t.ipg
