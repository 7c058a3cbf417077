type entry = { addr : int; frags : int }
type kind = File | Dir

type t = {
  inum : int;
  kind : kind;
  mutable size : int;
  mutable entries : entry array;
  mutable indirect_addrs : int array;
  mutable ctime : float;
  mutable mtime : float;
}

let v ~inum ~kind ~time =
  { inum; kind; size = 0; entries = [||]; indirect_addrs = [||]; ctime = time; mtime = time }

let block_count t = Array.length t.entries
let frag_count t = Array.fold_left (fun acc e -> acc + e.frags) 0 t.entries

let total_frags_with_metadata t =
  (* indirect blocks are full blocks; infer the block size from a full
     data run when available, else assume the common 8-fragment block *)
  let fpb =
    Array.fold_left (fun acc e -> max acc e.frags) 8 t.entries
  in
  frag_count t + (Array.length t.indirect_addrs * fpb)

let is_multi_block t = Array.length t.entries >= 2

(* entries contiguous with their predecessor: the layout score's
   optimal count *)
let optimal_links entries =
  let optimal = ref 0 in
  for i = 1 to Array.length entries - 1 do
    let prev = entries.(i - 1) and cur = entries.(i) in
    if cur.addr = prev.addr + prev.frags then incr optimal
  done;
  !optimal

let pp ppf t =
  Fmt.pf ppf "@[inode %d (%s) size=%d runs=[%a]%a@]" t.inum
    (match t.kind with File -> "file" | Dir -> "dir")
    t.size
    Fmt.(array ~sep:(any "; ") (fun ppf e -> pf ppf "%d+%d" e.addr e.frags))
    t.entries
    (fun ppf a ->
      if Array.length a > 0 then
        Fmt.pf ppf " ind=[%a]" Fmt.(array ~sep:(any "; ") int) a)
    t.indirect_addrs
