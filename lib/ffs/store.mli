(** Storage backends for a volume's persisted metadata.

    A {!t} owns one flat byte address space holding everything the
    allocator persists — each cylinder group's fragment, block and inode
    bitmaps, laid out by {!Layout}.  The bytes sit on one of two planes:

    - {!Heap_backend} keeps them in an in-process [Bytes.t] — the
      default, bit-identical to the seed's behaviour and [Marshal]-able
      (so differential tests may compare whole values);
    - {!Mmap_backend} maps a file with [Bigarray], letting a volume's
      image live out of core.  [Mmap_backend None] is backed by an
      unlinked temporary (scratch space, reclaimed on close);
      [Mmap_backend (Some path)] persists and {!sync} fsyncs it.

    A plain store is only its plane: addresses are absolute offsets,
    reads see the latest write, and placements must not depend on the
    plane — the differential suite pins heap and mmap images
    bit-identical.

    {!Resilient_backend} adds the self-healing layer to either plane,
    and that layer alone keeps per-chunk state (a {e chunk} is a
    power-of-two span, one per cylinder group under {!Layout}): a CRC-32
    per chunk, a dirty map of the chunks written since the last {!sync},
    bounded exponential-backoff retry of transient device faults,
    {!scrub}, and quarantine of persistently bad chunks into spare
    regions.  With a {!Device.plan} attached it also injects seeded,
    deterministic device faults into the plane beneath the checksums
    (the test rig for the healing machinery); with no plan it is
    bit-identical to its plane — the remap is provably the identity, so
    the bitmap layer's heap fast path still engages.

    {!sync} is the acknowledgement that refreshes the CRCs of exactly
    the dirty chunks, so a {!scrub} (a sync, then a verify pass) checks
    every chunk.  Dirty marks from concurrently pinned domains land on
    distinct bytes (one group, one chunk) under the per-group {!Locks}
    discipline that already serialises the writes themselves.  Fault
    injection and quarantine state are deliberately unsynchronised: a
    fault-injecting store must only be driven by the serial replay
    engine. *)

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
(** A zero-filled store of [length] bytes.  [chunk_bytes] (a power of
    two) is the checksum and dirty-tracking granularity of a resilient
    spec, which also over-provisions the plane with spare chunks beyond
    [length] ({!length} still reports the logical size); a plain spec
    ignores it. Raises [Error.Error (Io _)] when a named mmap backing
    file cannot be created, opened, or is truncated. *)

val heap : length:int -> t
val mmap : ?path:string -> length:int -> unit -> t

val length : t -> int

val heap_bytes : t -> Bytes.t option
(** The live heap plane — the bitmap layer's bit-poke fast path (the
    allocator flips bits per fragment, so the per-byte dispatch of
    {!get_byte}/{!set_byte} is measurable there). [Some] for a plain
    heap store and for a resilient heap store with no fault plan, where
    the quarantine remap is provably the identity; with faults attached
    this is [None] and every access takes the checked path. Writes
    through the buffer of a {!checksummed} store must also set the
    {!dirty_cell} covering every byte they touch. *)

val dirty_cell : t -> pos:int -> len:int -> (Bytes.t * int) option
(** The dirty-map byte covering [pos .. pos+len-1] of a
    {!checksummed} store, when that range lies within one chunk — so a
    hot writer can mark its writes with a single
    [Bytes.unsafe_set buf idx '\001'] instead of a dispatched store
    write per byte. [None] when the range spans chunks, is empty, or
    the store keeps no dirty map (a plain store). *)

val repr_name : t -> string
(** The representation, for display: ["bytes"], ["mmap"] or
    ["mmap:PATH"], prefixed by ["resilient:"] for the self-healing
    layer and ["resilient:faulty:"] when it carries a fault plan. *)

val get_byte : t -> int -> char
val set_byte : t -> int -> char -> unit

val read : t -> pos:int -> len:int -> string
val write : t -> pos:int -> string -> unit

val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** Copy [len] bytes with [Bytes.blit]'s semantics on every
    representation: overlapping ranges of one store copy as if through
    a temporary buffer. *)

val digest_region : t -> pos:int -> len:int -> string
(** MD5 (hex) of the region's current bytes. *)

val sync : t -> unit
(** Acknowledge and flush. A checksummed store first refreshes the CRC
    of every chunk written since the last sync and clears its dirty
    map; every store then flushes to durable storage (fsync for
    file-backed mappings, a no-op for the heap). On a fault-injecting
    store each sync also fires the device damage scheduled up to it
    (latent arming, bit rot, torn writes) exactly once, after the
    acknowledgement, so a following {!scrub} walk sees it as a
    mismatch; only the flush and its transient-fault draw are retried,
    so a plan's [horizon] counts syncs, not attempts. *)

val close : t -> unit
(** Release backend resources (the mapping's fd). The store must not be
    used afterwards. *)

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
    rounded to a power of two so region index = checksum chunk index =
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
