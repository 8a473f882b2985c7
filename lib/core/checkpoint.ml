open Remy_util

type position = Epoch_start | Mid_epoch of { first_rule : int option }

type snapshot = {
  config_hash : string;
  position : position;
  epoch : int;
  rounds : int;
  improvements : int;
  subdivisions : int;
  evaluations : int;
  spec_sims : int;
  spec_skips : int;
  last_score : float;
  elapsed_s : float;
  telemetry_epochs : int;
  rng : int64 array;
  tree : Rule_tree.t;
}

let version = "v1"
let file ~dir = Filename.concat dir "checkpoint.sexp"

let hash_hex s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  Printf.sprintf "%016Lx" !h

(* --- encoding ------------------------------------------------------- *)

let position_sexp = function
  | Epoch_start -> Sexp.atom "epoch-start"
  | Mid_epoch { first_rule } ->
    Sexp.list
      [
        Sexp.atom "mid-epoch";
        (match first_rule with None -> Sexp.atom "none" | Some id -> Sexp.int id);
      ]

let position_of_sexp = function
  | Sexp.Atom "epoch-start" -> Ok Epoch_start
  | Sexp.List [ Sexp.Atom "mid-epoch"; Sexp.Atom "none" ] ->
    Ok (Mid_epoch { first_rule = None })
  | Sexp.List [ Sexp.Atom "mid-epoch"; id ] ->
    Result.map (fun id -> Mid_epoch { first_rule = Some id }) (Sexp.to_int id)
  | _ -> Error "bad position (expected epoch-start or (mid-epoch ...))"

let state_sexp s =
  let f k v = Sexp.list [ Sexp.atom k; v ] in
  Sexp.list
    [
      f "config-hash" (Sexp.atom s.config_hash);
      f "position" (position_sexp s.position);
      f "epoch" (Sexp.int s.epoch);
      f "rounds" (Sexp.int s.rounds);
      f "improvements" (Sexp.int s.improvements);
      f "subdivisions" (Sexp.int s.subdivisions);
      f "evaluations" (Sexp.int s.evaluations);
      f "spec-sims" (Sexp.int s.spec_sims);
      f "spec-skips" (Sexp.int s.spec_skips);
      f "last-score" (Sexp.float s.last_score);
      f "elapsed-s" (Sexp.float s.elapsed_s);
      f "telemetry-epochs" (Sexp.int s.telemetry_epochs);
      f "rng"
        (Sexp.list
           (Array.to_list (Array.map (fun w -> Sexp.atom (Int64.to_string w)) s.rng)));
      f "tree" (Rule_tree.to_sexp_full s.tree);
    ]

let to_sexp s =
  let state = state_sexp s in
  Sexp.list
    [
      Sexp.atom "remy-checkpoint";
      Sexp.atom version;
      Sexp.list [ Sexp.atom "crc"; Sexp.atom (hash_hex (Sexp.to_string state)) ];
      state;
    ]

(* --- decoding + validation ------------------------------------------ *)

let ( let* ) = Result.bind

let nonneg what v =
  if v < 0 then Error (Printf.sprintf "negative %s counter (%d)" what v) else Ok v

let state_of_sexp state =
  let field k = Sexp.field state k in
  let int_field k =
    let* v = field k in
    let* v = Sexp.to_int v in
    nonneg k v
  in
  let float_field k = Result.bind (field k) Sexp.to_float in
  let* config_hash = Result.bind (field "config-hash") Sexp.to_atom in
  let* position = Result.bind (field "position") position_of_sexp in
  let* epoch = int_field "epoch" in
  let* rounds = int_field "rounds" in
  let* improvements = int_field "improvements" in
  let* subdivisions = int_field "subdivisions" in
  let* evaluations = int_field "evaluations" in
  let* spec_sims = int_field "spec-sims" in
  let* spec_skips = int_field "spec-skips" in
  let* last_score = float_field "last-score" in
  let* elapsed_s = float_field "elapsed-s" in
  let* telemetry_epochs = int_field "telemetry-epochs" in
  let* rng_sexp = Result.bind (field "rng") Sexp.to_list in
  let* rng =
    List.fold_right
      (fun w acc ->
        let* acc = acc in
        let* a = Sexp.to_atom w in
        match Int64.of_string_opt a with
        | Some w -> Ok (w :: acc)
        | None -> Error (Printf.sprintf "bad PRNG state word %S" a))
      rng_sexp (Ok [])
  in
  let rng = Array.of_list rng in
  let* _ = Result.map_error (fun e -> "bad PRNG state: " ^ e) (Prng.of_state rng) in
  let* tree = Result.bind (field "tree") Rule_tree.of_sexp_full in
  if Float.is_nan last_score then Error "last-score is NaN"
  else if not (Float.is_finite elapsed_s) || elapsed_s < 0. then
    Error "elapsed-s must be a nonnegative finite float"
  else
    Ok
      {
        config_hash;
        position;
        epoch;
        rounds;
        improvements;
        subdivisions;
        evaluations;
        spec_sims;
        spec_skips;
        last_score;
        elapsed_s;
        telemetry_epochs;
        rng;
        tree;
      }

let of_sexp s =
  match s with
  | Sexp.List
      [
        Sexp.Atom "remy-checkpoint";
        Sexp.Atom v;
        Sexp.List [ Sexp.Atom "crc"; Sexp.Atom stored_crc ];
        state;
      ] ->
    if v <> version then
      Error
        (Printf.sprintf "unsupported checkpoint version %s (this build reads %s)" v
           version)
    else begin
      let computed = hash_hex (Sexp.to_string state) in
      if not (String.equal computed stored_crc) then
        Error
          (Printf.sprintf
             "checksum mismatch (stored %s, computed %s) — the checkpoint is \
              corrupted"
             stored_crc computed)
      else state_of_sexp state
    end
  | _ -> Error "not a checkpoint file (expected (remy-checkpoint v1 (crc ...) ...))"

let check_config s ~config_hash =
  if String.equal s.config_hash config_hash then Ok ()
  else
    Error
      (Printf.sprintf
         "config hash mismatch: checkpoint was written by a run configured as %s, \
          but this run is %s — model, objective, seed or search parameters differ"
         s.config_hash config_hash)

(* --- durable atomic I/O --------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let save ~dir s =
  mkdir_p dir;
  let path = file ~dir in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     output_string oc (Sexp.to_string_hum (to_sexp s));
     output_char oc '\n';
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc);
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  (* Chaos: a kill here leaves a complete .tmp but no published
     checkpoint — resume must fall back to the previous one. *)
  Remy_faults.Chaos.hit ~path:tmp "checkpoint-write";
  Sys.rename tmp path;
  (* Make the rename itself durable: fsync the containing directory.
     Best-effort — some filesystems refuse fsync on directories. *)
  (try
     let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
     Fun.protect
       ~finally:(fun () -> Unix.close fd)
       (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
   with Unix.Unix_error _ -> ());
  (* Chaos: a corrupt directive here damages the just-published file —
     load's CRC must reject it rather than resume from garbage. *)
  Remy_faults.Chaos.hit ~path "checkpoint-saved"

let load ~dir =
  let path = file ~dir in
  match Sexp.load path with
  | Error _ as e -> e
  | Ok s -> (
    match of_sexp s with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok _ as ok -> ok)
