(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), table-driven.
   Hand-rolled so neither the container format nor the store's per-chunk
   checksums carry a new dependency.  Lives in [Util] because both
   [Recover] (containers, fingerprints) and [Ffs.Store] (chunk
   checksums) need it, and [Recover] already depends on [Ffs]. *)

(* built eagerly at module initialisation: pool domains checksum
   concurrently, and forcing a shared [lazy] from two domains at once
   raises [CamlinternalLazy.Undefined] *)
let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

type t = int32
(* running state: the ones-complemented register *)

let empty : t = 0xFFFFFFFFl

let update (crc : t) s ~pos ~len : t =
  let crc = ref crc in
  for i = pos to pos + len - 1 do
    let idx = Int32.to_int (Int32.logand !crc 0xFFl) lxor Char.code s.[i] in
    crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8)
  done;
  !crc

let finish (crc : t) = Int32.logxor crc 0xFFFFFFFFl

let string s = finish (update empty s ~pos:0 ~len:(String.length s))
