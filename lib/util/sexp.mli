(** Minimal s-expression reader/writer.

    Used to persist trained RemyCC rule tables ([data/*.rules]) and
    synthetic cellular traces in a human-readable, diff-friendly form with
    no external dependencies.  Floats round-trip exactly (hex float
    notation is accepted; the writer uses ["%.17g"]). *)

type t = Atom of string | List of t list

val to_string : t -> string
(** Render with minimal spacing. *)

val to_string_hum : t -> string
(** Render with one nested list per line (indented), for readable files. *)

val of_string : string -> (t, string) result
(** Parse one s-expression; trailing whitespace is allowed, trailing
    content is an error.  Atoms containing whitespace, parens, quotes or
    that are empty must be double-quoted; ["\\"] escapes within quotes.
    Errors carry a ["line L, column C:"] prefix; truncated input
    (unterminated list or string, dangling escape) is reported as such,
    pointing at the construct left open, and complete expressions
    followed by more content are rejected as trailing garbage. *)

val atom : string -> t
val list : t list -> t
val float : float -> t
val int : int -> t
val string : string -> t

val to_float : t -> (float, string) result
val to_int : t -> (int, string) result
val to_atom : t -> (string, string) result
val to_list : t -> (t list, string) result

val field : t -> string -> (t, string) result
(** [field (List [List [Atom k; v]; ...]) k] looks up an alist-style
    field: the first inner list whose head atom equals [k]; returns its
    single value, or the remaining list when more than one value. *)

val save : string -> t -> unit
(** Write to a file (atomically via a temp file + rename). *)

val load : string -> (t, string) result
(** Read and parse a file.  Every error message begins with the path
    once: an unreadable file gives the system's message (which names
    it), a parse error ["<path>: line L, column C: ..."]. *)
