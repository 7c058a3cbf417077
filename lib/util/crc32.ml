(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), slicing-by-8.
   Hand-rolled so neither the container format nor the store's per-chunk
   checksums carry a new dependency.  Lives in [Util] because both
   [Recover] (containers, fingerprints) and [Ffs.Store] (chunk
   checksums) need it, and [Recover] already depends on [Ffs]. *)

(* Eight 256-entry tables in one flat [int] array: slice [k] (entries
   [k*256 ..+ 256]) advances a byte's contribution by [k] further zero
   bytes, so eight table reads fold eight input bytes at once. Plain
   ints, not [int32]s: the register fits in 32 bits of an OCaml int, and
   no read boxes. Built eagerly at module initialisation: pool domains
   checksum concurrently, and forcing a shared [lazy] from two domains
   at once raises [CamlinternalLazy.Undefined]. *)
let table =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let slice k i = Array.unsafe_get table ((k * 256) + i)

type t = int
(* running state: the ones-complemented register, in the low 32 bits *)

let empty : t = 0xFFFFFFFF

(* one byte at a time: the 0-7 bytes after the 8-byte body *)
let bytewise crc s ~pos ~stop =
  let crc = ref crc in
  for i = pos to stop - 1 do
    crc := slice 0 ((!crc lxor Char.code (String.unsafe_get s i)) land 0xff) lxor (!crc lsr 8)
  done;
  !crc

let word s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

let update (crc : t) s ~pos ~len : t =
  if len <= 0 then crc
  else if pos < 0 || pos > String.length s - len then invalid_arg "index out of bounds"
  else begin
    let stop = pos + len in
    let body_end = pos + ((stop - pos) land lnot 7) in
    let crc = ref crc and i = ref pos in
    while !i < body_end do
      let lo = !crc lxor word s !i and hi = word s (!i + 4) in
      crc :=
        slice 7 (lo land 0xff)
        lxor slice 6 ((lo lsr 8) land 0xff)
        lxor slice 5 ((lo lsr 16) land 0xff)
        lxor slice 4 (lo lsr 24)
        lxor slice 3 (hi land 0xff)
        lxor slice 2 ((hi lsr 8) land 0xff)
        lxor slice 1 ((hi lsr 16) land 0xff)
        lxor slice 0 (hi lsr 24);
      i := !i + 8
    done;
    bytewise !crc s ~pos:body_end ~stop
  end

let finish (crc : t) = Int32.of_int (crc lxor 0xFFFFFFFF)

let string s = finish (update empty s ~pos:0 ~len:(String.length s))
