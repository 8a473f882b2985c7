(** The distributed-training message vocabulary and its sexp codecs.

    Everything that crosses a coordinator/worker socket is one of these
    messages, rendered canonically by {!Frame}.  Floats travel as
    ["%.17g"] atoms (exact round-trip), so a score computed on a worker
    reduces to the same bits the coordinator would have computed
    locally.

    Protocol flow: coordinator sends [Hello] (version + config
    fingerprint + evaluation parameters), worker answers [Welcome]
    (echoing the fingerprint) or [Reject]; the coordinator then
    interleaves [Tree] (full rule-table sync, generation-tagged),
    [Task] (one specimen evaluation, index-tagged), and [Ping];
    the worker answers [Result] and [Pong]; [Shutdown] ends the
    session. *)

open Remy

val version : int
(** Protocol version; a [Hello] with any other version is rejected. *)

(** {2 Evaluation vocabulary}

    The task types are {!Evaluator}'s, re-exported with the same labels
    and constructors: a worker runs {!Evaluator.run_task} on exactly
    what the in-process pool would run, and this module only gives the
    types a wire form. *)

type eval_params = Evaluator.params = {
  objective : Objective.t;
  queue_capacity : int;
  duration : float;
  topology : string option;
}
(** Fixed for a whole training run, so it travels once in [Hello]. *)

type task = Evaluator.task =
  | Baseline of { spec : Net_model.specimen }
  | Candidate of { rule : int; action : Action.t; spec : Net_model.specimen }

type outcome = Evaluator.outcome =
  | Baseline_result of {
      scores : float list;
      slots : (int * int * Memory.t list) list;
    }
  | Candidate_result of { scores : float list }

type msg =
  | Hello of { version : int; config_hash : string; params : eval_params }
  | Welcome of { config_hash : string; pid : int }
  | Reject of { reason : string }
  | Tree of { gen : int; tree : Rule_tree.t }
      (** checkpoint-grade serialization ({!Rule_tree.to_sexp_full}):
          same capacity, ids and epochs on both sides *)
  | Task of { index : int; task : task }
  | Result of { index : int; outcome : outcome }
  | Ping of { seq : int }
  | Pong of { seq : int }
  | Shutdown

val to_sexp : msg -> Remy_util.Sexp.t

val of_sexp : Remy_util.Sexp.t -> (msg, string) result
(** Errors name the malformed construct (["hello: missing config"],
    ["task: bad specimen: ..."]). *)

val specimen_to_sexp : Net_model.specimen -> Remy_util.Sexp.t
val specimen_of_sexp : Remy_util.Sexp.t -> (Net_model.specimen, string) result
