(** Locating and loading the pre-trained RemyCC rule tables.

    Tables live in [data/*.rules] at the repository root.  The data
    directory is found via the [REMY_DATA_DIR] environment variable or
    by walking up from the working directory — so [dune exec] works from
    any subdirectory.  Nothing here trains or writes a table: a missing
    one is an error naming the [bin/remy_train] command that designs
    it, so no figure ever runs on a table whose content depends on how
    fast the host was. *)

val data_dir : unit -> string
(** Directory holding [*.rules]: [REMY_DATA_DIR] when set and non-empty,
    else the nearest [data/] at or above the working directory, else
    [./data], which then does not exist.  The lookup only reads: it
    never creates the directory. *)

val path : string -> string
(** [path "delta1"] = "<data_dir>/delta1.rules". *)

val load : string -> (Remy.Rule_tree.t, string) result

type spec = {
  table : string;  (** base name, e.g. "delta1" *)
  model : Remy.Net_model.t;
  objective : Remy.Objective.t;
}

val delta01 : spec
val delta1 : spec
val delta10 : spec
val onex : spec
val tenx : spec
val datacenter : spec
val coexist : spec
val all : spec list

val tree : spec -> Remy.Rule_tree.t
(** Load the checked-in table.  Raises [Failure] naming the path and a
    [remy_train] command for the spec's model and objective when the
    table is missing or unreadable. *)

val default_label : spec -> string
(** Display label: "Remy d=0.1" for the delta tables, etc. *)

val scheme : ?label:string -> spec -> Schemes.t
(** {!tree} wrapped as a {!Schemes.t}; default label is
    "Remy d=0.1"-style for the delta tables, else the table name. *)
