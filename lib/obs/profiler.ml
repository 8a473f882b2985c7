(* Nestable named spans over Clock.now_s, accumulated into per-domain
   phase trees.  Disabled (the default) a span is one atomic load and a
   tail call — no clock reads, no tree writes — so instrumented code paths
   cost nothing when profiling is off, mirroring Trace's contract.

   Each domain owns its tree (domain-local storage), so worker-domain
   spans never contend with the submitting domain.  [snapshot] returns the
   enabling domain's tree plus all worker trees merged into one; the merge
   visits children in name order, so its structure and arithmetic are
   deterministic no matter which domain finished first. *)

type node = {
  name : string;
  mutable total_s : float;
  mutable count : int;
  children : (string, node) Hashtbl.t;
}

let make_node name = { name; total_s = 0.; count = 0; children = Hashtbl.create 8 }

type domain_state = { root : node; mutable stack : node list }

let enabled = Atomic.make false

(* Registry of every domain's state, so snapshot/reset can reach trees
   created on pool domains.  Guarded by a mutex: registration happens once
   per domain, snapshot/reset when the pool is quiescent. *)
(* remy-lint: allow global-mutable *)
let registry : (int * domain_state) list ref = ref []
let registry_mutex = Mutex.create ()
let main_domain = Atomic.make (-1)

let key =
  Domain.DLS.new_key (fun () ->
      let st = { root = make_node "root"; stack = [] } in
      let id = (Domain.self () :> int) in
      Mutex.lock registry_mutex;
      registry := (id, st) :: !registry;
      Mutex.unlock registry_mutex;
      st)

let enable () =
  Atomic.set main_domain (Domain.self () :> int);
  (* Touch the DLS so the enabling domain is registered even if it never
     opens a span itself. *)
  ignore (Domain.DLS.get key);
  Atomic.set enabled true

let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

let reset () =
  Mutex.lock registry_mutex;
  List.iter
    (fun (_, st) ->
      Hashtbl.reset st.root.children;
      st.root.total_s <- 0.;
      st.root.count <- 0;
      st.stack <- [])
    !registry;
  Mutex.unlock registry_mutex

let child parent name =
  match Hashtbl.find_opt parent.children name with
  | Some n -> n
  | None ->
    let n = make_node name in
    Hashtbl.add parent.children name n;
    n

let span_on name f =
  let st = Domain.DLS.get key in
  let parent = match st.stack with n :: _ -> n | [] -> st.root in
  let node = child parent name in
  st.stack <- node :: st.stack;
  let t0 = Clock.now_s () in
  Fun.protect
    ~finally:(fun () ->
      node.total_s <- node.total_s +. (Clock.now_s () -. t0);
      node.count <- node.count + 1;
      (* Unbalanced exits (an exception unwinding through several spans)
         pop every frame above this node too — Fun.protect runs the inner
         finalizers first, so the head is normally [node] already. *)
      match st.stack with
      | n :: rest when n == node -> st.stack <- rest
      | stack ->
        let rec drop = function
          | n :: rest -> if n == node then rest else drop rest
          | [] -> []
        in
        st.stack <- drop stack)
    f

let span name f = if Atomic.get enabled then span_on name f else f ()

(* --- aggregation ----------------------------------------------------- *)

let sorted_children n =
  List.sort
    (fun (a : node) b -> String.compare a.name b.name)
    (Hashtbl.fold (fun _ c acc -> c :: acc) n.children [])

let rec copy n =
  let c = make_node n.name in
  c.total_s <- n.total_s;
  c.count <- n.count;
  List.iter (fun ch -> Hashtbl.add c.children ch.name (copy ch)) (sorted_children n);
  c

let rec merge_node dst src =
  dst.total_s <- dst.total_s +. src.total_s;
  dst.count <- dst.count + src.count;
  List.iter (fun ch -> merge_node (child dst ch.name) ch) (sorted_children src)

let merge ~name nodes =
  let dst = make_node name in
  List.iter (fun n -> List.iter (fun ch -> merge_node (child dst ch.name) ch) (sorted_children n)) nodes;
  dst

let snapshot () =
  Mutex.lock registry_mutex;
  let entries = List.sort (fun (a, _) (b, _) -> Int.compare a b) !registry in
  Mutex.unlock registry_mutex;
  let main_id = Atomic.get main_domain in
  let mains, workers =
    List.partition (fun (id, _) -> id = main_id || main_id < 0) entries
  in
  let main =
    match mains with
    | (_, st) :: _ ->
      let c = copy st.root in
      { c with name = "main" }
    | [] -> make_node "main"
  in
  let worker_roots =
    List.filter_map
      (fun (_, st) -> if Hashtbl.length st.root.children = 0 then None else Some st.root)
      workers
  in
  match worker_roots with
  | [] -> [ main ]
  | roots -> [ main; merge ~name:"workers" roots ]

let total root = root.total_s

let self_s n =
  let children_s =
    Hashtbl.fold (fun _ c acc -> acc +. c.total_s) n.children 0.
  in
  Float.max 0. (n.total_s -. children_s)

let find root path =
  let rec go n = function
    | [] -> Some n
    | name :: rest -> (
      match Hashtbl.find_opt n.children name with
      | Some c -> go c rest
      | None -> None)
  in
  go root path

(* --- export ---------------------------------------------------------- *)

(* A root node is a container: its own total/count are zero and only its
   children carry measurements, so exports report children with the root
   as the path prefix.  [iter_paths] visits every such node depth first,
   children in name order, with its ';'-joined path. *)
let iter_paths roots f =
  let rec go prefix n =
    let path = if prefix = "" then n.name else prefix ^ ";" ^ n.name in
    f path n;
    List.iter (go path) (sorted_children n)
  in
  List.iter (fun root -> List.iter (go root.name) (sorted_children root)) roots

let to_records roots =
  let rows = ref [] in
  iter_paths roots (fun path n ->
      rows :=
        [
          ("path", Record.Str path);
          ("total_s", Record.Float n.total_s);
          ("self_s", Record.Float (self_s n));
          ("count", Record.Int n.count);
        ]
        :: !rows);
  List.rev !rows

(* Collapsed-stack format: one "frame;frame;frame count" line per stack,
   weights in integer microseconds of self time — what flamegraph.pl and
   speedscope ingest directly. *)
let to_collapsed roots =
  let b = Buffer.create 1024 in
  iter_paths roots (fun path n ->
      let self_us = int_of_float (Float.round (self_s n *. 1e6)) in
      if self_us > 0 || Hashtbl.length n.children = 0 then
        Buffer.add_string b (Printf.sprintf "%s %d\n" path (Stdlib.max 0 self_us)));
  Buffer.contents b

let write_files path roots =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_collapsed roots));
  Sink.write_file (path ^ ".jsonl") (to_records roots)
