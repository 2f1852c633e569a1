(** Plain-text tables for the experiment reports. *)

type t = {
  title : string;
  headers : string list;
  rows : string list list;
  notes : string list;
}

val make :
  title:string -> headers:string list -> ?notes:string list ->
  string list list -> t

val render : t -> string
(** Fixed-width rendering with a title line, a header rule and the notes. *)

val print : t -> unit
(** [render] to stdout. *)

val to_csv : t -> string
(** RFC 4180-style CSV: header line then data rows; cells containing commas,
    quotes or newlines are quoted, quotes doubled.  Title and notes are not
    part of the data and are omitted. *)

val to_json : t -> Ssreset_obs.Json.t
(** [{"title": ..., "headers": [...], "rows": [[...]], "notes": [...]}] —
    cells stay strings, exactly as rendered. *)

val cell_int : int -> string
val cell_float : float -> string
val cell_bool : bool -> string
(** ["ok"] / ["FAIL"]. *)

val all_ok : t -> col:int -> bool
(** Does every row show ["ok"] in the given 0-based column? *)

val ok : t -> bool
(** A table passes when its last column is headed ["ok"] and every row
    shows ["ok"] there; a table without an [ok] column always passes.  The
    pass/fail of an experiment in both front ends. *)
