open Remy

exception Protocol_error of string

let serve ?expect_config ?(log = fun _ -> ()) fd =
  let params = ref None in
  let tree = ref None in
  let tasks_done = ref 0 in
  let stop = ref false in
  let send msg = Frame.write fd (Wire.to_sexp msg) in
  while not !stop do
    match Frame.read fd with
    | Error Frame.Eof ->
        log (Printf.sprintf "coordinator hung up after %d tasks" !tasks_done);
        stop := true
    | Error (Frame.Corrupt diag) -> raise (Protocol_error ("corrupt frame: " ^ diag))
    | Ok sexp -> (
        match Wire.of_sexp sexp with
        | Error e -> raise (Protocol_error ("bad message: " ^ e))
        | Ok (Wire.Hello { version; config_hash; params = p }) ->
            if version <> Wire.version then begin
              let reason =
                Printf.sprintf "protocol version mismatch: coordinator %d, worker %d"
                  version Wire.version
              in
              send (Wire.Reject { reason });
              raise (Protocol_error reason)
            end;
            (match expect_config with
            | Some pinned when pinned <> config_hash ->
                let reason =
                  Printf.sprintf
                    "config fingerprint mismatch: coordinator %s, worker pinned %s"
                    config_hash pinned
                in
                send (Wire.Reject { reason });
                raise (Protocol_error reason)
            | _ -> ());
            params := Some p;
            send (Wire.Welcome { config_hash; pid = Unix.getpid () });
            log (Printf.sprintf "handshake ok (config %s)" config_hash)
        | Ok (Wire.Tree { gen; tree = t }) ->
            tree := Some t;
            log (Printf.sprintf "tree synced (gen %d, %d rules)" gen
                   (Rule_tree.num_rules t))
        | Ok (Wire.Task { index; task }) ->
            let p =
              match !params with
              | Some p -> p
              | None -> raise (Protocol_error "task before hello")
            in
            let t =
              match !tree with
              | Some t -> t
              | None -> raise (Protocol_error "task before tree sync")
            in
            let outcome = Evaluator.run_task p t task in
            incr tasks_done;
            send (Wire.Result { index; outcome })
        | Ok (Wire.Ping { seq }) -> send (Wire.Pong { seq })
        | Ok Wire.Shutdown ->
            log (Printf.sprintf "shutdown after %d tasks" !tasks_done);
            stop := true
        | Ok (Wire.Welcome _ | Wire.Reject _ | Wire.Result _ | Wire.Pong _) ->
            raise (Protocol_error "unexpected coordinator-bound message"))
  done

let child_arg = "--remy-dist-worker-child"

let serve_if_child () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = child_arg then begin
    (* Terminal signals are the coordinator's to handle: a ^C to the
       process group must let it finish its round (which needs us alive)
       and checkpoint.  We exit on Shutdown or socket EOF instead. *)
    Sys.set_signal Sys.sigint Sys.Signal_ignore;
    Sys.set_signal Sys.sigterm Sys.Signal_ignore;
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    match serve Unix.stdin with
    | () -> exit 0
    | exception Protocol_error m ->
        prerr_endline ("worker child: protocol error: " ^ m);
        exit 1
    | exception Unix.Unix_error _ ->
        (* The coordinator went away while we were replying. *)
        exit 1
  end
