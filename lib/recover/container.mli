(** The durable artifact container.

    Every long-lived artifact (aged image, aging checkpoint) is stored
    as a self-describing envelope: a versioned magic header, a kind tag,
    the payload length, the payload, and a CRC-32 trailer covering
    header and payload. {!write} goes through a temporary file, fsync
    and an atomic rename, so a crash mid-save leaves either the old
    artifact or the complete new one. {!read} verifies magic, version,
    kind, length and checksum before returning a byte of payload, so
    truncation, bit rot and foreign files surface as
    [Error (Ffs.Error.Corrupt _)] instead of undefined [Marshal]
    behaviour. *)

val format_version : int
(** Version written by this build; {!read} rejects any other. *)

type info = {
  version : int;
  kind : string;
  payload_bytes : int;  (** length the header promises *)
  crc_stored : int32;  (** trailer value; [0l] when the trailer is cut off *)
  crc_computed : int32 option;
      (** checksum of the bytes actually present; [None] when the file
          is too short to contain the promised payload *)
}

val crc_ok : info -> bool
(** The file is complete and its checksum matches. *)

val write : path:string -> kind:string -> string -> unit
(** [write ~path ~kind payload] durably replaces [path]:
    temp file in the same directory, fsync, atomic rename, then a
    best-effort directory fsync. [kind] (1..64 bytes) names the payload
    schema and is checked on {!read}. Raises [Sys_error]/[Unix_error]
    on I/O failure; never leaves a partial file at [path]. *)

val read : path:string -> kind:string -> (string, Ffs.Error.t) result
(** The payload, after full verification. All failure modes — missing
    file, bad magic, version or kind mismatch, truncation, checksum
    mismatch — come back as [Error (Corrupt msg)] with the path in the
    message. *)

val inspect : path:string -> (info, Ffs.Error.t) result
(** Header and checksum status without interpreting the payload — the
    [ffs_inspect --header] view. Errors only when the file is missing,
    too short to carry a header at all, or its header fields are
    impossible (a kind length outside 1..64, a payload length no string
    can hold); a payload cut short comes back as [crc_computed = None]. *)
