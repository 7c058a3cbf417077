(* A run packs its address above four bits of fragment count: an
   immediate, so an entries array is a flat int array that stores
   without a write barrier and allocates nothing per run. [asr] keeps
   the sign, so negative addresses (fsck's corrupt-claim tests)
   round-trip. *)
type entry = int

let frag_bits = 4
let frag_mask = (1 lsl frag_bits) - 1

let entry ~addr ~frags =
  if frags < 0 || frags > frag_mask then invalid_arg "Inode.entry: frags outside 0..15";
  (addr lsl frag_bits) lor frags

let addr e = e asr frag_bits
let frags e = e land frag_mask

type kind = File | Dir

type t = {
  inum : int;
  kind : kind;
  size : int;
  entries : entry array;
  indirect_addrs : int array;
  ctime : float;
  mtime : float;
}

let frag_count t = Array.fold_left (fun acc e -> acc + frags e) 0 t.entries

let total_frags_with_metadata t =
  (* indirect blocks are full blocks; infer the block size from a full
     data run when available, else assume the common 8-fragment block *)
  let fpb = Array.fold_left (fun acc e -> max acc (frags e)) 8 t.entries in
  frag_count t + (Array.length t.indirect_addrs * fpb)

(* entries contiguous with their predecessor: the layout score's
   optimal count *)
let optimal_links entries =
  let optimal = ref 0 in
  for i = 1 to Array.length entries - 1 do
    let prev = entries.(i - 1) and cur = entries.(i) in
    if addr cur = addr prev + frags prev then incr optimal
  done;
  !optimal

let pp ppf t =
  Fmt.pf ppf "@[inode %d (%s) size=%d runs=[%a]%a@]" t.inum
    (match t.kind with File -> "file" | Dir -> "dir")
    t.size
    Fmt.(array ~sep:(any "; ") (fun ppf e -> pf ppf "%d+%d" (addr e) (frags e)))
    t.entries
    (fun ppf a ->
      if Array.length a > 0 then
        Fmt.pf ppf " ind=[%a]" Fmt.(array ~sep:(any "; ") int) a)
    t.indirect_addrs
