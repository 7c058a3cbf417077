(** Storage backends for a volume's persisted metadata.

    A {!t} owns one flat byte address space holding everything the
    allocator persists — each cylinder group's fragment, block and inode
    bitmaps, laid out by {!Layout}.  The data plane is swappable:

    - {!Heap_backend} keeps the bytes in an in-process [Bytes.t] — the
      default, bit-identical to the seed's behaviour and [Marshal]-able
      (so differential tests may compare whole values);
    - {!Mmap_backend} maps a file with [Bigarray], letting a volume's
      image live out of core.  [Mmap_backend None] is backed by an
      unlinked temporary (scratch space, reclaimed on close);
      [Mmap_backend (Some path)] persists and {!sync} fsyncs it.
    - {!Resilient_backend} stacks the self-healing layer on either:
      per-chunk CRC-32 checksums at dirty-chunk granularity, bounded
      exponential-backoff retry of transient device faults, {!scrub},
      and quarantine of persistently bad chunks into spare regions.
      With a {!Device.plan} attached it also injects seeded,
      deterministic device faults beneath the checksums (the test rig
      for the healing machinery); with no plan it is bit-identical to
      its base backend — the remap is provably the identity, so even
      the bitmap layer's heap fast path still engages.

    The byte contract both base representations implement: addresses
    are absolute offsets into the store, reads see the latest write, and
    placements must not depend on the representation — the differential
    suite pins [Heap] and [Map] images bit-identical.

    Every write also marks its {e chunk} (a power-of-two span, one per
    cylinder group under {!Layout}) in a dirty map, under the same
    per-group {!Locks} discipline that already serialises the writes
    themselves.  Dirty means "written since the last {!sync}", and the
    map exists for the resilient layer's checksums: {!sync} is the
    acknowledgement that refreshes the CRCs of exactly those chunks,
    so a {!scrub} (a sync, then a verify pass) checks every chunk.
    Fault injection and quarantine state are deliberately
    unsynchronised: a fault-injecting store must only be driven by the
    serial replay engine. *)

type t

(** Seeded device-fault plans, the damage a {!Resilient_backend} store
    injects beneath its own checksums.  Scheduled faults (latent bad
    chunks, bit rot, torn syncs) fire at seeded {e sync} indexes spread
    over [horizon] syncs; transient errors are a per-access probability.
    All randomness derives from [Util.Prng.derive] children of one
    device seed, so equal seeds replay the exact same faults. *)
module Device : sig
  type plan = {
    transient : float;  (** per-access probability of a transient I/O error *)
    latent : int;  (** latent bad chunks (persistent read errors) to arm *)
    bitrot : int;  (** silent single-bit flips *)
    torn : int;  (** torn syncs: a chunk loses the tail half of its write *)
    horizon : int;  (** sync count the scheduled faults are spread over *)
  }

  val none : plan
  val is_none : plan -> bool

  val of_string : string -> plan option
  (** Parse ["transient=0.01,latent=2,bitrot=4,torn=1,horizon=8"] (any
      subset of keys; missing keys default to {!none}'s values; ["none"]
      is the empty plan). [None] on malformed or out-of-range input. *)

  val to_string : plan -> string
  val pp : Format.formatter -> plan -> unit
end

exception Io_fault of { op : string; chunk : int; persistent : bool }
(** The device-fault exception raised by the fault-injecting layer
    ([persistent = false] for transients, [true] for latent bad chunks).
    The resilient layer absorbs it — retry for transients, quarantine
    for latent chunks — so it never escapes a {!Resilient_backend}
    store; an unhealable condition surfaces as [Error.Media_error]
    instead. *)

(** Backend selection, as taken by [Fs.create] and [Aging.Image.load]
    (and the CLIs' [--backend bytes|mmap\[:PATH\]|resilient\[:BASE\]]). *)
type spec =
  | Heap_backend
  | Mmap_backend of string option
  | Resilient_backend of { base : spec; faults : Device.plan option; seed : int }

val spec_name : spec -> string
val spec_of_string : string -> spec option

val base_spec : spec -> spec
(** The underlying base backend, with any resilient wrapping stripped. *)

val resilient_spec : ?faults:Device.plan -> ?seed:int -> spec -> spec
(** Wrap a base backend in the self-healing layer (idempotent: an
    already-resilient spec is rewrapped around its base). [seed] drives
    the injected faults and the retry jitter. *)

val create : spec -> length:int -> chunk_bytes:int -> t
(** A zero-filled store of [length] bytes with dirty tracking at
    [chunk_bytes] granularity ([chunk_bytes] must be a power of two).
    For a resilient spec the underlying store is over-provisioned with
    spare chunks beyond [length]; {!length} still reports the logical
    size. Raises [Error.Error (Io _)] when a named mmap backing file
    cannot be created, opened, or is truncated. *)

val heap : length:int -> chunk_bytes:int -> t
val mmap : ?path:string -> length:int -> chunk_bytes:int -> unit -> t

val length : t -> int
val chunk_bytes : t -> int

val heap_bytes : t -> Bytes.t option
(** The live buffer of a heap store — the bitmap layer's bit-poke fast
    path (the allocator flips bits per fragment, so the per-byte
    dispatch of {!get_byte}/{!set_byte} is measurable there). Writes
    through it bypass dirty tracking; the writer must set the
    {!dirty_cell} covering every byte it touches. A
    resilient store exposes its inner heap buffer only in passthrough
    mode (no fault plan), where the quarantine remap is provably the
    identity; with faults active this is [None] and every access takes
    the checked path. *)

val dirty_cell : t -> pos:int -> len:int -> (Bytes.t * int) option
(** The dirty-map byte covering [pos .. pos+len-1], when that range
    lies within one chunk — so a hot writer can mark its writes with a
    single [Bytes.unsafe_set buf idx '\001'] instead of a dispatched
    store write per byte. [None] when the range spans chunks (or is
    empty). *)

val repr_name : t -> string
(** The representation, for display: ["bytes"], ["mmap"],
    ["mmap:PATH"], or those prefixed by ["resilient:"] /
    ["faulty:"] for the self-healing layers. *)

val get_byte : t -> int -> char
val set_byte : t -> int -> char -> unit

val read : t -> pos:int -> len:int -> string
val write : t -> pos:int -> string -> unit

val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit

val digest_region : t -> pos:int -> len:int -> string
(** MD5 (hex) of the region's current bytes. *)

val sync : t -> unit
(** Acknowledge and flush. A checksummed store first refreshes the CRC
    of every chunk written since the last sync; every store then
    clears its dirty map and flushes to durable storage (fsync for
    file-backed mappings, a no-op for the heap). On a fault-injecting
    store the flush is also where scheduled device damage (latent
    arming, bit rot, torn writes) lands, after the acknowledgement, so
    a following {!scrub} walk sees it as a mismatch. *)

val close : t -> unit
(** Release backend resources (the mapping's fd). The store must not be
    used afterwards. *)

(** {2 Dirty chunks} *)

val copy_dirty : src:t -> dst:t -> unit
(** Overwrite [dst]'s dirty map with [src]'s (same geometry required) —
    used by deep copies, so a copy's unacknowledged chunks (and its
    marshalled bytes) match the source's. *)

(** {2 Self-healing (checksums, scrub, quarantine)} *)

type scrub_report = {
  scrub_chunks : int;  (** logical chunks walked *)
  scrub_verified : int;  (** chunks whose CRC matched *)
  scrub_mismatched : int list;  (** chunks whose content contradicts the CRC,
      including chunks lost to quarantine during the walk — callers must
      escalate these to the logical audit/repair *)
  scrub_quarantined : int list;  (** chunks quarantined by this scrub *)
}

val scrub : t -> scrub_report
(** Sync the store (acknowledging every written chunk, then firing any
    scheduled device faults, as a real scrub's first pass over the
    medium would surface them), then walk every chunk verifying content
    against its CRC. Persistently
    unreadable chunks are quarantined during the walk. Does not repair
    logical state — [Check.scrub] escalates mismatches to
    [Check.repair]. Raises [Error.Media_error] when quarantine runs out
    of spare regions. On a non-checksummed store this only syncs and
    reports zero chunks. *)

val checksummed : t -> bool
(** Does this store maintain per-chunk CRCs (i.e. is it resilient)? *)

val refresh_chunk_crc : t -> int -> unit
(** Re-bless chunk [c]'s current content as the checksummed truth —
    called by [Check.scrub] after the logical audit accepted a
    mismatched chunk (e.g. bit rot in region padding that no bitmap
    claims). No-op on non-checksummed stores. *)

val quarantined_chunks : t -> int list
(** Logical chunks remapped to spare regions so far, oldest first. *)

val device_counts : t -> (string * int) list
(** Injected device-fault counts by class ([transient], [latent],
    [bitrot], [torn]) — empty for stores without a fault plan. *)

(** {2 Metadata layout} *)

(** The flat layout of persisted metadata: one fixed region per cylinder
    group (fragment bitmap, block bitmap, inode bitmap back to back),
    rounded to a power of two so region index = dirty-chunk index =
    group index. *)
module Layout : sig
  type regions = {
    frag_off : int;
    frag_bytes : int;
    block_off : int;
    block_bytes : int;
    inode_off : int;
    inode_bytes : int;
    region_bytes : int;
  }

  val of_params : Params.t -> regions
  val total_bytes : Params.t -> int
  val region_base : regions -> index:int -> int

  val store_for : spec -> Params.t -> t
  (** A store sized and chunked for one whole volume of this geometry. *)
end
