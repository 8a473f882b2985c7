(* Self-describing run manifests.

   One flat record per run, written at invocation start (status
   "running") and rewritten at exit with final counters and histogram
   summaries, so every BENCH/telemetry/trace artifact sitting next to it
   says exactly which code, configuration, host and seed produced it.
   The manifest is a plain Record, so it round-trips through the same
   JSON codec as every other lib/obs artifact. *)

let schema = "remy-manifest-v1"

type t = {
  tool : string;
  status : string;  (* running | completed | interrupted | failed *)
  argv : string;
  git : string;
  config_fingerprint : string;
  host_cores : int;
  seed : int;
  wall_s : float;
  counters : Counters.snapshot;
  extras : Record.t;  (* h_* histogram summary fields *)
}

let to_record m : Record.t =
  [
    ("schema", Record.Str schema);
    ("tool", Record.Str m.tool);
    ("status", Record.Str m.status);
    ("argv", Record.Str m.argv);
    ("git", Record.Str m.git);
    ("config", Record.Str m.config_fingerprint);
    ("host_cores", Record.Int m.host_cores);
    ("seed", Record.Int m.seed);
    ("wall_s", Record.Float m.wall_s);
  ]
  @ Counters.to_record m.counters
  @ m.extras

let of_record (r : Record.t) =
  let str k = Option.bind (Record.find k r) Record.to_str in
  let int k = Option.bind (Record.find k r) Record.to_int in
  let flt k = Option.bind (Record.find k r) Record.to_float in
  match str "schema" with
  | Some s when s = schema -> (
    match (str "tool", str "status", Counters.of_record r) with
    | Some tool, Some status, Some counters ->
      let has_prefix p k =
        String.length k > String.length p && String.sub k 0 (String.length p) = p
      in
      let extras =
        List.filter (fun (k, _) -> has_prefix "h_" k || has_prefix "dist_" k) r
      in
      Ok
        {
          tool;
          status;
          argv = Option.value ~default:"" (str "argv");
          git = Option.value ~default:"unknown" (str "git");
          config_fingerprint = Option.value ~default:"" (str "config");
          host_cores = Option.value ~default:0 (int "host_cores");
          seed = Option.value ~default:0 (int "seed");
          wall_s = Option.value ~default:Float.nan (flt "wall_s");
          counters;
          extras;
        }
    | _ -> Error "manifest record is missing tool/status/counter fields")
  | Some s -> Error (Printf.sprintf "unsupported manifest schema %S" s)
  | None -> Error "not a manifest record (no schema field)"

(* Best-effort provenance: ask git; anything going wrong (no git binary,
   not a repository, sandboxed exec) degrades to "unknown". *)
let git_describe () =
  try
    let ic =
      Unix.open_process_in "git describe --always --dirty --tags 2>/dev/null"
    in
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let make ~tool ?(argv = Sys.argv) ?(git = git_describe ())
    ?(config_fingerprint = "") ?(seed = 0) ?(extras = []) () =
  {
    tool;
    status = "running";
    argv = String.concat " " (Array.to_list argv);
    git;
    config_fingerprint;
    host_cores = Domain.recommended_domain_count ();
    seed;
    wall_s = 0.;
    counters = Counters.snapshot ();
    extras;
  }

let finalize m ~status ~wall_s =
  (* Keep caller-supplied extras (e.g. dist_* fields), refresh the
     histogram summaries. *)
  let keep =
    List.filter
      (fun (k, _) -> not (String.length k > 2 && String.sub k 0 2 = "h_"))
      m.extras
  in
  {
    m with
    status;
    wall_s;
    counters = Counters.snapshot ();
    extras = keep @ Metrics.summary_fields ();
  }

let write ~path m = Sink.write_file path [ to_record m ]

let load ~path =
  match Sink.read_file path with
  | Ok [ r ] -> of_record r
  | Ok rs -> Error (Printf.sprintf "%s: %d records, expected one" path (List.length rs))
  | Error e -> Error e
