(** Flat key/value records — the unit of everything this library writes.

    A record is an ordered association list of scalar fields.  The codec
    here is intentionally minimal: it reads and writes exactly the flat
    one-object-per-line JSON (and unquoted CSV) that {!Sink} produces, so
    the repository needs no external JSON dependency. *)

type value = Bool of bool | Int of int | Float of float | Str of string
type t = (string * value) list

val find : string -> t -> value option
val to_float : value -> float option
(** [Int] coerces to float, and the four strings {!to_json} writes for a
    non-finite float (["inf"], ["-inf"], ["nan"], ["-nan"]) read back as
    that float; other shapes return [None]. *)

val to_int : value -> int option
val to_str : value -> string option

val to_json : t -> string
(** One JSON object, no trailing newline.  Floats are rendered
    deterministically, integral ones as ["%.1f"] and others as ["%.12g"]
    (the CSV writer does the same).  Non-finite floats are written
    as their quoted [Float.to_string] (JSON has no literal for them),
    which {!to_float} reads back. *)

val of_json : string -> (t, string) result
(** Parse one line written by {!to_json}.  Flat objects only. *)

val csv_header : string list -> string
val to_csv : columns:string list -> t -> string
(** Missing fields render as empty cells; extra fields are dropped. *)

val of_csv : header:string list -> string -> t
(** Empty cells are omitted from the result; each non-empty cell is
    classified as int, float, bool, or string, in that order. *)
