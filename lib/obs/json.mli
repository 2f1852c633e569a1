(** A zero-dependency JSON tree, encoder and parser.

    Deliberately tiny: just enough to emit machine-readable telemetry
    (manifests, metric snapshots, benchmark results) and to parse it back in
    tests and validators.  Numbers are split into [Int] and [Float] so that
    counters survive a round-trip exactly; field order of objects is
    preserved by both the encoder and the parser. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line encoding.  Strings are escaped per RFC 8259 (UTF-8
    bytes pass through).  Non-finite floats encode as [null] — JSON has no
    representation for them. *)

val to_string_hum : t -> string
(** Two-space indented multi-line encoding, for files meant to be read by
    humans too (e.g. BENCH_results.json). *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; trailing garbage is an error.  Numbers
    without [.], [e] or [E] that fit in an OCaml [int] parse as [Int]. *)

val of_string_exn : string -> t
(** @raise Failure on parse errors. *)

(** {2 Accessors} — tiny helpers for tests and validators. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** [Int] values widen to float. *)

val to_string_opt : t -> string option
val equal : t -> t -> bool
(** Structural equality (object field order is significant). *)

(** {2 Validating readers} — shared by the JSONL artifact loaders
    ({!Tracefile}, {!Proffile}). *)

exception Invalid of string

val invalidf : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Invalid} with a formatted message. *)

val int_field : ctx:string -> string -> t -> int
val float_field : ctx:string -> string -> t -> float
val string_field : ctx:string -> string -> t -> string
val list_field : ctx:string -> string -> t -> t list
val obj_field : ctx:string -> string -> t -> (string * t) list
(** [int_field ~ctx name json]: the field, or {!Invalid}
    ["ctx: \"name\" is missing or not an int"] (and so on). *)

val int_assoc : ctx:string -> (string * t) list -> (string * int) list
val float_assoc : ctx:string -> (string * t) list -> (string * float) list
(** Every value of an object's fields, or {!Invalid}. *)

val read_file : string -> string
(** The whole file.  @raise Sys_error *)
