open Remy

type worker_spec = Connect of string | Spawn of string list

let specs_of_string s =
  let s = String.trim s in
  match int_of_string_opt s with
  | Some n when n >= 1 ->
      Ok (List.init n (fun _ -> Spawn [ Sys.executable_name; Worker.child_arg ]))
  | Some n -> Error (Printf.sprintf "--workers %d: need at least 1" n)
  | None ->
      let parts =
        String.split_on_char ',' s |> List.map String.trim
        |> List.filter (fun p -> p <> "")
      in
      if parts = [] then Error "--workers: empty worker list"
      else
        let rec check = function
          | [] -> Ok (List.map (fun p -> Connect p) parts)
          | p :: rest -> (
              match String.rindex_opt p ':' with
              | None ->
                  Error
                    (Printf.sprintf
                       "--workers: %S is neither a worker count nor host:port" p)
              | Some i -> (
                  match
                    int_of_string_opt
                      (String.sub p (i + 1) (String.length p - i - 1))
                  with
                  | Some port when port > 0 && port < 65536 -> check rest
                  | _ ->
                      Error (Printf.sprintf "--workers: %S: bad port" p)))
        in
        check parts

type event = Remy_obs.Telemetry.worker_event =
  | Worker_joined of { worker : int; addr : string; pid : int }
  | Worker_lost of { worker : int; addr : string; reason : string; requeued : int }
  | Task_reissued of { index : int; from_worker : int; to_worker : int }

exception Dist_error of string

type wstate = {
  id : int;
  addr : string;
  fd : Unix.file_descr;
  pid : int;  (* spawned child pid; 0 for socket workers *)
  mutable alive : bool;
  mutable gen_sent : int;
  mutable last_heard : float;
  mutable ping_sent : bool;
  mutable in_flight : int list;  (* task indices, oldest first *)
}

type t = {
  params : Wire.eval_params;
  config_hash : string;
  on_event : event -> unit;
  heartbeat_s : float;
  timeout_s : float;
  mutable chaos_kill_after : int option;
  mutable workers : wstate list;  (* id order; dead workers stay listed *)
  mutable gen : int;  (* bumped on every tree sync *)
  mutable tree : Rule_tree.t option;
  mutable dispatched : int;  (* lifetime task dispatch count *)
  mutable ping_seq : int;
  mutable down : bool;
}

let now () = Remy_obs.Clock.now_s ()
let live_list t = List.filter (fun w -> w.alive) t.workers
let live_workers t = List.length (live_list t)

(* --- worker spawning --- *)

(* Through posix_spawn, which the runtime permits even after this
   process has created domains (OCaml 5 refuses to fork once any domain
   has existed).  The child reads the wire protocol on stdin; the
   socketpair is bidirectional, so its replies come back the same fd. *)
let spawn_worker argv =
  let prog =
    match argv with
    | [] -> raise (Dist_error "Spawn: empty argv")
    | p :: _ -> p
  in
  let parent_fd, child_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  (* Without close-on-exec, a later-spawned worker would inherit this
     worker's coordinator-side fd and keep the connection half-open
     after a coordinator crash, defeating EOF detection. *)
  Unix.set_close_on_exec parent_fd;
  match
    Unix.create_process prog (Array.of_list argv) child_fd Unix.stdout
      Unix.stderr
  with
  | pid ->
      Unix.close child_fd;
      (parent_fd, pid)
  | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close parent_fd with Unix.Unix_error _ -> ());
      (try Unix.close child_fd with Unix.Unix_error _ -> ());
      raise
        (Dist_error
           (Printf.sprintf "spawn %s: %s" prog (Unix.error_message e)))

let sockaddr_of_endpoint ep =
  match String.rindex_opt ep ':' with
  | None -> raise (Dist_error (Printf.sprintf "%S: expected host:port" ep))
  | Some i -> (
      let host = String.sub ep 0 i in
      let port_s = String.sub ep (i + 1) (String.length ep - i - 1) in
      match int_of_string_opt port_s with
      | None -> raise (Dist_error (Printf.sprintf "%S: bad port %S" ep port_s))
      | Some port -> (
          try Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
          with _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } ->
                raise (Dist_error (Printf.sprintf "%S: host has no address" ep))
            | h -> Unix.ADDR_INET (h.Unix.h_addr_list.(0), port)
            | exception Not_found ->
                raise
                  (Dist_error (Printf.sprintf "%S: unknown host %S" ep host)))))

let connect_with_retry ep ~retry_s =
  let sockaddr = sockaddr_of_endpoint ep in
  let deadline = now () +. retry_s in
  let rec go () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd sockaddr with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.EHOSTUNREACH), _, _)
      when now () < deadline ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.1;
        go ()
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        raise
          (Dist_error
             (Printf.sprintf "connect %s: %s" ep (Unix.error_message e)))
  in
  go ()

(* --- lifecycle --- *)

let handshake t w =
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        raise (Dist_error (Printf.sprintf "worker %d (%s): %s" w.id w.addr m)))
      fmt
  in
  (try
     Frame.write w.fd
       (Wire.to_sexp
          (Wire.Hello
             {
               version = Wire.version;
               config_hash = t.config_hash;
               params = t.params;
             }))
   with Unix.Unix_error (e, _, _) ->
     fail "handshake write failed: %s" (Unix.error_message e));
  match Frame.read w.fd with
  | Error Frame.Eof -> fail "connection closed during handshake"
  | Error (Frame.Corrupt d) -> fail "corrupt frame during handshake: %s" d
  | Ok sexp -> (
      match Wire.of_sexp sexp with
      | Error e -> fail "bad handshake reply: %s" e
      | Ok (Wire.Welcome { config_hash; pid }) ->
          if config_hash <> t.config_hash then
            fail "handshake echoed config %s, expected %s" config_hash
              t.config_hash;
          w.last_heard <- now ();
          t.on_event (Worker_joined { worker = w.id; addr = w.addr; pid })
      | Ok (Wire.Reject { reason }) -> fail "rejected handshake: %s" reason
      | Ok _ -> fail "unexpected handshake reply")

let shutdown t =
  if not t.down then begin
    t.down <- true;
    List.iter
      (fun w ->
        if w.alive then begin
          w.alive <- false;
          (try Frame.write w.fd (Wire.to_sexp Wire.Shutdown)
           with Unix.Unix_error _ | Invalid_argument _ -> ());
          try Unix.close w.fd with Unix.Unix_error _ -> ()
        end)
      t.workers;
    List.iter
      (fun w ->
        if w.pid > 0 then
          try ignore (Unix.waitpid [] w.pid)
          with Unix.Unix_error _ -> ())
      t.workers
  end

let create ?(on_event = fun (_ : event) -> ()) ?(heartbeat_s = 10.)
    ?(timeout_s = 120.) ?(connect_retry_s = 10.) ?chaos_kill_after ~params
    ~config_hash ~workers () =
  if workers = [] then raise (Dist_error "no workers specified");
  (* A worker death between select and write otherwise kills the whole
     process with SIGPIPE before the loss path can requeue its tasks. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t =
    {
      params;
      config_hash;
      on_event;
      heartbeat_s;
      timeout_s;
      chaos_kill_after;
      workers = [];
      gen = 0;
      tree = None;
      dispatched = 0;
      ping_seq = 0;
      down = false;
    }
  in
  (try
     List.iteri
       (fun id spec ->
         let fd, addr, pid =
           match spec with
           | Connect ep -> (connect_with_retry ep ~retry_s:connect_retry_s, ep, 0)
           | Spawn argv ->
               let fd, pid = spawn_worker argv in
               (fd, Printf.sprintf "spawn:%d" pid, pid)
         in
         let w =
           {
             id;
             addr;
             fd;
             pid;
             alive = true;
             gen_sent = 0;
             last_heard = now ();
             ping_sent = false;
             in_flight = [];
           }
         in
         t.workers <- t.workers @ [ w ];
         handshake t w)
       workers
   with e ->
     shutdown t;
     raise e);
  t

(* --- the executor --- *)

(* Pipeline depth per worker: one task computing, one queued behind it,
   so a worker never idles waiting for the coordinator's select loop. *)
let depth = 2

let eval_grid t (tasks : Wire.task array) : Wire.outcome array =
  if t.down then raise (Dist_error "coordinator is shut down");
  let n = Array.length tasks in
  let results = Array.make n None in
  let completed = ref 0 in
  let pending = ref (List.init n Fun.id) in
  (* task index -> worker that lost it, for reissue telemetry *)
  let reissued_from = Hashtbl.create 8 in
  let lose w reason =
    if w.alive then begin
      w.alive <- false;
      (try Unix.close w.fd with Unix.Unix_error _ -> ());
      let requeue = List.filter (fun i -> results.(i) = None) w.in_flight in
      List.iter (fun i -> Hashtbl.replace reissued_from i w.id) requeue;
      w.in_flight <- [];
      pending := requeue @ !pending;
      t.on_event
        (Worker_lost
           { worker = w.id; addr = w.addr; reason; requeued = List.length requeue })
    end
  in
  let send w msg =
    try
      Frame.write w.fd (Wire.to_sexp msg);
      true
    with Unix.Unix_error (e, _, _) ->
      lose w (Printf.sprintf "write failed: %s" (Unix.error_message e));
      false
  in
  let chaos_maybe_kill w =
    match t.chaos_kill_after with
    | Some k
      when t.dispatched >= k && w.pid > 0
           && List.exists (fun o -> o.alive && o.id <> w.id) t.workers ->
        t.chaos_kill_after <- None;
        (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
    | _ -> ()
  in
  (* Send the tree sync (if this worker is behind) then the task.
     Returns false if the worker died mid-dispatch — the caller puts the
     task back. *)
  let dispatch w i =
    let synced =
      w.gen_sent = t.gen
      ||
      match t.tree with
      | None -> raise (Dist_error "task dispatch before tree sync")
      | Some tree ->
          let ok = send w (Wire.Tree { gen = t.gen; tree }) in
          if ok then w.gen_sent <- t.gen;
          ok
    in
    synced
    && send w (Wire.Task { index = i; task = tasks.(i) })
    &&
    (w.in_flight <- w.in_flight @ [ i ];
     t.dispatched <- t.dispatched + 1;
     (match Hashtbl.find_opt reissued_from i with
     | Some from_worker ->
         Hashtbl.remove reissued_from i;
         t.on_event (Task_reissued { index = i; from_worker; to_worker = w.id })
     | None -> ());
     chaos_maybe_kill w;
     true)
  in
  let fill () =
    List.iter
      (fun w ->
        let continue = ref true in
        while !continue && w.alive && List.length w.in_flight < depth do
          match !pending with
          | [] -> continue := false
          | i :: rest ->
              pending := rest;
              if not (dispatch w i) then
                (* dispatch failure requeues the worker's in-flight set,
                   but [i] was never in flight — put it back itself *)
                pending := i :: !pending
        done)
      (live_list t)
  in
  let handle_read w =
    match Frame.read w.fd with
    | Error Frame.Eof -> lose w "connection closed"
    | Error (Frame.Corrupt diag) ->
        raise
          (Dist_error
             (Printf.sprintf "worker %d (%s): corrupt frame: %s" w.id w.addr diag))
    | Ok sexp -> (
        match Wire.of_sexp sexp with
        | Error e ->
            raise
              (Dist_error
                 (Printf.sprintf "worker %d (%s): bad message: %s" w.id w.addr e))
        | Ok (Wire.Result { index; outcome }) ->
            w.last_heard <- now ();
            w.ping_sent <- false;
            if index < 0 || index >= n then
              raise
                (Dist_error
                   (Printf.sprintf "worker %d (%s): result index %d out of range"
                      w.id w.addr index));
            (match (tasks.(index), outcome) with
            | Wire.Baseline _, Wire.Baseline_result _
            | Wire.Candidate _, Wire.Candidate_result _ -> ()
            | _ ->
                raise
                  (Dist_error
                     (Printf.sprintf
                        "worker %d (%s): result %d does not match its task's kind"
                        w.id w.addr index)));
            w.in_flight <- List.filter (fun j -> j <> index) w.in_flight;
            (match results.(index) with
            | Some _ -> ()  (* late duplicate after a reissue; ignored *)
            | None ->
                results.(index) <- Some outcome;
                incr completed)
        | Ok (Wire.Pong _) ->
            w.last_heard <- now ();
            w.ping_sent <- false
        | Ok (Wire.Reject { reason }) ->
            raise
              (Dist_error
                 (Printf.sprintf "worker %d (%s) rejected: %s" w.id w.addr reason))
        | Ok _ ->
            raise
              (Dist_error
                 (Printf.sprintf "worker %d (%s): unexpected message" w.id w.addr)))
  in
  while !completed < n do
    fill ();
    if !completed < n then begin
      let live = live_list t in
      if live = [] then
        raise
          (Dist_error
             (Printf.sprintf "all workers lost (%d/%d tasks complete)" !completed
                n));
      let fds = List.map (fun w -> w.fd) live in
      let readable, _, _ =
        try Unix.select fds [] [] 1.0
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter
        (fun w -> if w.alive && List.memq w.fd readable then handle_read w)
        live;
      let tnow = now () in
      List.iter
        (fun w ->
          if w.alive && w.in_flight <> [] then
            if tnow -. w.last_heard > t.timeout_s then
              lose w
                (Printf.sprintf "unresponsive for %.1f s" (tnow -. w.last_heard))
            else if tnow -. w.last_heard > t.heartbeat_s && not w.ping_sent
            then begin
              t.ping_seq <- t.ping_seq + 1;
              if send w (Wire.Ping { seq = t.ping_seq }) then w.ping_sent <- true
            end)
        live
    end
  done;
  Array.map
    (function Some o -> o | None -> raise (Dist_error "missing result"))
    results

let set_tree t tree =
  t.gen <- t.gen + 1;
  t.tree <- Some tree

(* Baselines open every round: syncing the tree there lets the
   generation tag cover all candidate tasks that follow (their override
   shadows the only rule whose action changes within the round, and
   structural changes always precede another baseline). *)
let backend t ~incremental =
  Evaluator.backend ~incremental ~sync:(set_tree t) (fun _tree -> eval_grid t)
