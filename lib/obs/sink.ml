type t = { emit : Record.t -> unit; close : unit -> unit }

let emit t r = t.emit r
let close t = t.close ()
let null = { emit = (fun _ -> ()); close = (fun () -> ()) }

let jsonl oc =
  {
    emit =
      (fun r ->
        output_string oc (Record.to_json r);
        output_char oc '\n');
    close = (fun () -> flush oc);
  }

let csv_gen ~emit_header ?columns oc =
  (* The header is either fixed up front or derived from the first
     record's keys; later records are projected onto it.  When appending
     to a file that already has a header, [emit_header] is false: the
     column set still drives projection but is not re-written. *)
  let header = ref columns in
  let write_header cols =
    if emit_header then begin
      output_string oc (Record.csv_header cols);
      output_char oc '\n'
    end
  in
  (match columns with Some cols -> write_header cols | None -> ());
  {
    emit =
      (fun r ->
        let cols =
          match !header with
          | Some cols -> cols
          | None ->
            let cols = List.map fst r in
            header := Some cols;
            write_header cols;
            cols
        in
        output_string oc (Record.to_csv ~columns:cols r);
        output_char oc '\n');
    close = (fun () -> flush oc);
  }

let csv ?columns oc = csv_gen ~emit_header:true ?columns oc

let memory () =
  let acc = ref [] in
  ( { emit = (fun r -> acc := r :: !acc); close = (fun () -> ()) },
    fun () -> List.rev !acc )

let is_csv_path path = Filename.check_suffix (String.lowercase_ascii path) ".csv"

(* Unlike the atomic tmp+fsync+rename publishers ([Checkpoint.save],
   [Sexp.save]), a file sink streams — records hit the file as emitted,
   so there is no atomic publish.  Close does flush + fsync, making the
   complete trace durable once [close] returns (the chaos harness diffs
   traces across crashed runs, so "closed" must mean "on disk"). *)
let file_sink ~append path encoder =
  let oc =
    if append then open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
    else open_out path
  in
  let inner = encoder oc in
  {
    emit = inner.emit;
    close =
      (fun () ->
        inner.close ();
        flush oc;
        (try Unix.fsync (Unix.descr_of_out_channel oc)
         with Unix.Unix_error _ -> ());
        close_out oc);
  }

let to_file ?(append = false) ?columns path =
  file_sink ~append path (fun oc ->
      if is_csv_path path then
        (* When appending to a non-empty CSV, the header is already there. *)
        csv_gen ~emit_header:(not (append && out_channel_length oc > 0)) ?columns oc
      else jsonl oc)

(* Streaming reader: one record in memory at a time, so a multi-gigabyte
   trace of a 10k-flow run folds in constant space.  The first non-empty
   line decides the format ('{' = JSONL, anything else = a CSV header). *)
let fold_file path ~init f =
  if not (Sys.file_exists path) then Error (Printf.sprintf "%s: no such file" path)
  else begin
    let ic = open_in path in
    (* Undecided until the first non-empty line; that line is itself
       consumed as the CSV header when it is not JSON. *)
    let mode = ref `Undecided in
    let acc = ref init in
    let bad = ref None in
    (try
       while !bad = None do
         let line = input_line ic in
         if String.trim line <> "" then
           match !mode with
           | `Undecided ->
             if (String.trim line).[0] = '{' then begin
               mode := `Jsonl;
               match Record.of_json line with
               | Ok r -> acc := f !acc r
               | Error e -> bad := Some (Printf.sprintf "%s: %s in %S" path e line)
             end
             else mode := `Csv (String.split_on_char ',' (String.trim line))
           | `Jsonl -> (
             match Record.of_json line with
             | Ok r -> acc := f !acc r
             | Error e -> bad := Some (Printf.sprintf "%s: %s in %S" path e line))
           | `Csv header -> acc := f !acc (Record.of_csv ~header line)
       done
     with End_of_file -> ());
    close_in ic;
    match !bad with Some e -> Error e | None -> Ok !acc
  end

let read_file path =
  Result.map List.rev (fold_file path ~init:[] (fun acc r -> r :: acc))

let write_file path rows =
  let sink = file_sink ~append:false path jsonl in
  List.iter (emit sink) rows;
  close sink
