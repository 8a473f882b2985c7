open Remy

let rec find_upward dir depth =
  let candidate = Filename.concat dir "data" in
  if Sys.file_exists candidate && Sys.is_directory candidate then Some candidate
  else if depth = 0 then None
  else begin
    let parent = Filename.dirname dir in
    if parent = dir then None else find_upward parent (depth - 1)
  end

let data_dir () =
  match Sys.getenv_opt "REMY_DATA_DIR" with
  | Some d when d <> "" -> d
  | Some _ | None -> (
    match find_upward (Sys.getcwd ()) 6 with
    | Some d -> d
    | None -> Filename.concat (Sys.getcwd ()) "data")

let path name = Filename.concat (data_dir ()) (name ^ ".rules")
let load name = Rule_tree.load (path name)

type spec = { table : string; model : Net_model.t; objective : Objective.t }

let delta01 =
  {
    table = "delta01";
    model = Net_model.general ();
    objective = Objective.proportional ~delta:0.1;
  }

let delta1 = { delta01 with table = "delta1"; objective = Objective.proportional ~delta:1.0 }

let delta10 =
  { delta01 with table = "delta10"; objective = Objective.proportional ~delta:10.0 }

let onex =
  { table = "onex"; model = Net_model.onex (); objective = Objective.proportional ~delta:1.0 }

let tenx = { onex with table = "tenx"; model = Net_model.tenx () }

let datacenter =
  {
    table = "datacenter";
    model = Net_model.datacenter ();
    objective = Objective.min_potential_delay;
  }

let coexist =
  {
    table = "coexist";
    model = Net_model.coexist ();
    objective = Objective.proportional ~delta:1.0;
  }

let all = [ delta01; delta1; delta10; onex; tenx; datacenter; coexist ]

(* The remy_train flags that design [spec]'s table: the model preset
   whose parameters equal the spec's, and its objective. *)
let train_command spec =
  let model =
    List.find_map
      (fun (flag, m) -> if m = spec.model then Some flag else None)
      [
        ("general", Net_model.general ());
        ("onex", Net_model.onex ());
        ("tenx", Net_model.tenx ());
        ("datacenter", Net_model.datacenter ());
        ("coexist", Net_model.coexist ());
      ]
  in
  let objective =
    if spec.objective = Objective.min_potential_delay then "--objective mpd"
    else Printf.sprintf "--delta %g" spec.objective.Objective.delta
  in
  Printf.sprintf "remy_train --model %s %s -o %s"
    (Option.value model ~default:"<model>")
    objective (path spec.table)

let tree spec =
  match load spec.table with
  | Ok tree -> tree
  | Error e ->
    failwith
      (Printf.sprintf "cannot load rule table (%s); regenerate it with: %s" e
         (train_command spec))

let default_label spec =
  match spec.table with
  | "delta01" -> "Remy d=0.1"
  | "delta1" -> "Remy d=1"
  | "delta10" -> "Remy d=10"
  | "onex" -> "Remy 1x"
  | "tenx" -> "Remy 10x"
  | "datacenter" -> "RemyCC (DropTail)"
  | other -> "Remy " ^ other

let scheme ?label spec =
  let name = match label with Some l -> l | None -> default_label spec in
  Schemes.remy ~name (tree spec)
