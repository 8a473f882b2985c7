open Remy
open Remy_util

type problem =
  | Empty_box of { id : int; dim : int }
  | Escapes_domain of { id : int; dim : int }
  | Overlap of { a : int; b : int; point : float array }
  | Gap of { point : float array }
  | Bad_action of { id : int; reason : string }

type report = {
  live : int;
  capacity : int;
  retired : int;
  problems : problem list;
  window_hi : float;
  window_iters : int;
  window_widened : bool;
  divergent : int list;
  never_fired : int list option;
}

let sound r = r.problems = []

(* --- partition -------------------------------------------------------- *)

let domain () =
  (Array.make Memory.dims 0., Array.make Memory.dims Memory.max_value)

let box_of_rule tree id =
  let b = Rule_tree.box tree id in
  { Boxpart.lo = Array.map fst b; hi = Array.map snd b }

let partition_problem tree ids =
  let boxes = Array.map (box_of_rule tree) ids in
  let lo, hi = domain () in
  match Boxpart.check ~lo ~hi boxes with
  | Ok () -> None
  | Error (Boxpart.Degenerate { box; dim }) ->
    Some (Empty_box { id = ids.(box); dim })
  | Error (Boxpart.Escape { box; dim }) ->
    Some (Escapes_domain { id = ids.(box); dim })
  | Error (Boxpart.Overlap { a; b; point }) ->
    Some (Overlap { a = ids.(a); b = ids.(b); point })
  | Error (Boxpart.Gap { point }) -> Some (Gap { point })

(* --- bounded-window abstract interpretation --------------------------- *)

(* The concrete window semantics applies, on each ACK, the owning rule's
   map f(w) = clamp_[0,max_window] (m*w + b).  Which rule fires depends
   on memory, which the abstraction drops: any rule may follow any rule.
   The reachable-window set is then the least fixpoint of
     W = {0} ∪ ⋃_rules f(W)
   over the interval lattice.  Each f is monotone (m >= 0 for valid
   actions), so an orbit from an interval endpoint is a monotone
   sequence whose limit has a closed form — accelerating plain Kleene
   iteration (which for the ubiquitous m=1, b=1 rule would crawl toward
   the clamp one packet at a time). *)

let orbit_limit (a : Action.t) w =
  let max_w = Action.max_window in
  let f w = Float.min max_w (Float.max 0. ((a.Action.multiple *. w) +. a.Action.increment)) in
  let fw = f w in
  if fw = w then w
  else if fw > w then
    if a.Action.multiple < 1. then
      (* increasing toward the attracting fixed point b/(1-m) *)
      Float.min max_w (a.Action.increment /. (1. -. a.Action.multiple))
    else max_w (* m >= 1 and still growing: only the clamp stops it *)
  else if a.Action.multiple < 1. then
    Float.max 0. (a.Action.increment /. (1. -. a.Action.multiple))
  else 0. (* m = 1 with b < 0 slides to the floor *)

let divergent_map (a : Action.t) =
  a.Action.multiple > 1. || (a.Action.multiple = 1. && a.Action.increment > 0.)

let window_fixpoint actions =
  let max_iters = 64 in
  let lo = ref 0. and hi = ref 0. in
  (* reset puts the window at 0 before the first rule fires *)
  let iters = ref 0 and converged = ref false in
  while (not !converged) && !iters < max_iters do
    incr iters;
    let nlo = ref !lo and nhi = ref !hi in
    Array.iter
      (fun a ->
        let l = orbit_limit a !lo and h = orbit_limit a !hi in
        nlo := Float.min !nlo (Float.min l h);
        nhi := Float.max !nhi (Float.max l h))
      actions;
    if !nlo = !lo && !nhi = !hi then converged := true
    else begin
      lo := !nlo;
      hi := !nhi
    end
  done;
  if !converged then (!hi, !iters, false) else (Action.max_window, !iters, true)

(* --- whole-table analysis --------------------------------------------- *)

let table ?tally tree =
  let ids = Array.of_list (Rule_tree.live_ids tree) in
  let live = Array.length ids in
  let capacity = Rule_tree.capacity tree in
  let bad_actions =
    Array.to_list ids
    |> List.filter_map (fun id ->
           match Action.validate (Rule_tree.action tree id) with
           | Ok () -> None
           | Error reason -> Some (Bad_action { id; reason }))
  in
  let geometry = Option.to_list (partition_problem tree ids) in
  (* Window pass: only actions the bounds check admitted — a non-finite
     multiple would poison the interval arithmetic, and it is already
     reported as its own problem. *)
  let finite_actions =
    Array.of_seq
      (Seq.filter
         (fun (a : Action.t) ->
           Float.is_finite a.Action.multiple && Float.is_finite a.Action.increment)
         (Seq.map (Rule_tree.action tree) (Array.to_seq ids)))
  in
  let window_hi, window_iters, window_widened = window_fixpoint finite_actions in
  let divergent =
    Array.to_list ids
    |> List.filter (fun id -> divergent_map (Rule_tree.action tree id))
  in
  let never_fired =
    Option.map
      (fun t ->
        Array.to_list ids |> List.filter (fun id -> Tally.count t id = 0))
      tally
  in
  {
    live;
    capacity;
    retired = capacity - live;
    problems = geometry @ bad_actions;
    window_hi;
    window_iters;
    window_widened;
    divergent;
    never_fired;
  }

(* --- rendering -------------------------------------------------------- *)

let pp_point fmt p =
  Format.fprintf fmt "(";
  Array.iteri
    (fun i v -> Format.fprintf fmt "%s%g" (if i = 0 then "" else " ") v)
    p;
  Format.fprintf fmt ")"

let pp_problem fmt = function
  | Empty_box { id; dim } ->
    Format.fprintf fmt "rule %d: empty box (lo >= hi in dimension %d)" id dim
  | Escapes_domain { id; dim } ->
    Format.fprintf fmt "rule %d escapes the memory domain in dimension %d" id dim
  | Overlap { a; b; point } ->
    Format.fprintf fmt "rules %d and %d overlap at %a — not a partition" a b
      pp_point point
  | Gap { point } ->
    Format.fprintf fmt "memory domain not covered: no rule owns %a" pp_point point
  | Bad_action { id; reason } -> Format.fprintf fmt "rule %d: %s" id reason

let to_record r =
  [
    ("verified", Remy_obs.Record.Bool (sound r));
    ("rules", Remy_obs.Record.Int r.live);
    ("capacity", Remy_obs.Record.Int r.capacity);
    ("retired", Remy_obs.Record.Int r.retired);
    ("problems", Remy_obs.Record.Int (List.length r.problems));
  ]
  @ (match r.problems with
    | [] -> []
    | p :: _ ->
      [ ("problem", Remy_obs.Record.Str (Format.asprintf "%a" pp_problem p)) ])
  @ [
      ("window_hi", Remy_obs.Record.Float r.window_hi);
      ("window_iters", Remy_obs.Record.Int r.window_iters);
      ("window_widened", Remy_obs.Record.Bool r.window_widened);
      ("divergent_rules", Remy_obs.Record.Int (List.length r.divergent));
    ]
  @
  match r.never_fired with
  | None -> []
  | Some l -> [ ("never_fired", Remy_obs.Record.Int (List.length l)) ]

let pp_id_list fmt = function
  | [] -> Format.fprintf fmt "none"
  | ids ->
    let shown = List.filteri (fun i _ -> i < 12) ids in
    Format.fprintf fmt "%s%s"
      (String.concat " " (List.map string_of_int shown))
      (if List.length ids > 12 then
         Printf.sprintf " … (%d total)" (List.length ids)
       else "")

let pp fmt r =
  Format.fprintf fmt "table: %d live rules (capacity %d, %d retired)@." r.live
    r.capacity r.retired;
  (match List.filter (function Overlap _ | Gap _ | Empty_box _ | Escapes_domain _ -> true | Bad_action _ -> false) r.problems with
  | [] ->
    Format.fprintf fmt
      "partition: proven — exhaustive coverage and pairwise disjointness over \
       [0,%g)^%d@."
      Memory.max_value Memory.dims
  | ps -> List.iter (fun p -> Format.fprintf fmt "partition: %a@." pp_problem p) ps);
  (match List.filter (function Bad_action _ -> true | _ -> false) r.problems with
  | [] -> Format.fprintf fmt "actions: all finite and within the searchable bounds@."
  | ps -> List.iter (fun p -> Format.fprintf fmt "actions: %a@." pp_problem p) ps);
  Format.fprintf fmt
    "window: every reachable cwnd <= %g (interval fixpoint in %d iteration%s%s)@."
    r.window_hi r.window_iters
    (if r.window_iters = 1 then "" else "s")
    (if r.window_widened then "; widened" else "");
  Format.fprintf fmt "window-divergent rules (bounded only by the clamp): %a@."
    pp_id_list r.divergent;
  (match r.never_fired with
  | None -> ()
  | Some ids -> Format.fprintf fmt "never fired during exercise: %a@." pp_id_list ids);
  Format.fprintf fmt "verdict: %s" (if sound r then "SOUND" else "UNSOUND")
