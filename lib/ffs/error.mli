(** The one error type of the FFS simulator's public API.

    Every anticipated failure of an [Fs], [Check] or [Params] entry
    point is a constructor here; the result-returning functions produce
    [(_, Error.t) result] and their [_exn] twins raise {!Error}
    carrying the same value. Programming errors (out-of-range local
    addresses, violated internal invariants) remain assertions. *)

type t =
  | Out_of_space
      (** no allocation possible anywhere — the file system is genuinely
          full *)
  | Not_a_directory of { inum : int }
  | Is_a_directory of { inum : int; op : string }
  | Directory_not_empty of { inum : int }
  | Cannot_remove_root
  | Name_exists of { dir : int; name : string }
  | No_such_name of { dir : int; name : string }
  | No_such_inode of { inum : int }
  | Invalid_cg of { cg : int; ncg : int }
  | Invalid_params of string  (** rejected by [Params.v]'s validation *)
  | Corrupt of string
      (** an internal cross-check found inconsistent on-image state *)
  | Cross_cg of { cg : int; pinned : int }
      (** an operation running pinned to cylinder group [pinned] (see
          {!Locks.with_pin}) needed to touch group [cg] — or, when [cg]
          is [-1], needed the whole volume (an overflow search, a
          directory-table write). The parallel replay
          catches this, rolls the operation back and defers it to the
          serial phase; it never escapes to users of the serial API.
          Declared after the original constructors so earlier tags (and
          thus marshalled images) are unchanged. *)
  | Io of { path : string; message : string }
      (** a durable-artifact read or write failed at the OS level (the
          result-typed twins of [Aging.Image.save] and
          [Aging.Checkpoint.save] catch [Sys_error]/[Unix_error] into
          this). Declared after the original constructors; see
          {!Cross_cg}. *)
  | Media_error of { chunk : int; detail : string }
      (** the self-healing store ([Store.Resilient]) could not recover a
          chunk: its spare regions are exhausted, or a quarantined
          replacement failed too. The volume's remaining data is intact
          but the store can no longer mask device faults — callers
          should fail the volume gracefully (the fleet supervisor
          quarantines it) rather than trust further reads. Declared
          last; see {!Cross_cg}. *)

exception Error of t
(** Raised by the [_exn] entry points. Registered with
    [Printexc.register_printer]. *)

val raise_ : t -> 'a

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val guard : (unit -> 'a) -> ('a, t) result
(** Run a closure, catching {!Error} into [Error _]. Other exceptions
    propagate. *)
