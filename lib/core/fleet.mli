(** A shim kept only for the repository benchmark (bench/e2e), to be
    deleted with its next change.  Every flow, whatever its congestion
    control, runs on the structure-of-arrays {!Remy_cc.Senders} core;
    this is {!Remycc.factory} under its old name. *)

val factory :
  ?override:int * Action.t ->
  ?tally:Tally.t ->
  ?mask:Remycc.mask ->
  ?idle_restart_s:float ->
  Rule_tree.t ->
  Remy_cc.Cc.factory
(** Alias of {!Remycc.factory}. *)
