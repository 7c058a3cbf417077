(** A minimal JSON value: just enough for the observability exports
    (metrics snapshots, trace spans) and their round-trip tests. No
    dependency beyond [Fmt]; strings are treated as bytes (the emitters
    only produce ASCII). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. NaN and infinities render as
    [null]. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; the whole input must be consumed. Numbers
    without a fractional part parse as [Int]. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] for other constructors or missing keys. *)

val to_int : t -> int option
val to_float : t -> float option
