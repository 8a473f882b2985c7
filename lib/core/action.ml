type t = { multiple : float; increment : float; intersend_ms : float }

let default = { multiple = 1.; increment = 1.; intersend_ms = 0.01 }

let clamp a =
  {
    multiple = Float.min 2. (Float.max 0. a.multiple);
    increment = Float.min 256. (Float.max (-256.) a.increment);
    intersend_ms = Float.min 1000. (Float.max 0.001 a.intersend_ms);
  }

let max_window = 1e6

let validate a =
  let finite = Float.is_finite in
  if not (finite a.multiple && finite a.increment && finite a.intersend_ms) then
    Error
      (Printf.sprintf "non-finite action value (m=%h b=%h r=%h)" a.multiple
         a.increment a.intersend_ms)
  else if a.multiple < 0. || a.multiple > 2. then
    Error (Printf.sprintf "window multiple %.17g outside [0, 2]" a.multiple)
  else if a.increment < -256. || a.increment > 256. then
    Error (Printf.sprintf "window increment %.17g outside [-256, 256]" a.increment)
  else if a.intersend_ms < 0.001 || a.intersend_ms > 1000. then
    Error
      (Printf.sprintf "intersend %.17g ms outside [0.001, 1000]" a.intersend_ms)
  else Ok ()

let[@inline] apply a ~window =
  Float.min max_window (Float.max 0. ((a.multiple *. window) +. a.increment))

(* remy-lint: hot *)
let apply_to a (p : Remy_cc.Cc.pacing) =
  p.window <- apply a ~window:p.window;
  p.intersend <- a.intersend_ms /. 1e3

let equal a b =
  a.multiple = b.multiple && a.increment = b.increment
  && a.intersend_ms = b.intersend_ms

let neighbors ?(granularity = (0.01, 1.0, 0.01)) ?(multipliers = [ 1.; 8.; 64. ]) a =
  let gm, gb, gr = granularity in
  let deltas g =
    0. :: List.concat_map (fun k -> [ g *. k; -.(g *. k) ]) multipliers
  in
  let candidates =
    List.concat_map
      (fun dm ->
        List.concat_map
          (fun db ->
            List.map
              (fun dr ->
                clamp
                  {
                    multiple = a.multiple +. dm;
                    increment = a.increment +. db;
                    intersend_ms = a.intersend_ms +. dr;
                  })
              (deltas gr))
          (deltas gb))
      (deltas gm)
  in
  (* Clamping can collapse candidates onto each other or onto [a]; drop
     duplicates to avoid wasted simulations. *)
  let seen = Hashtbl.create 64 in
  Hashtbl.replace seen (a.multiple, a.increment, a.intersend_ms) ();
  List.filter
    (fun c ->
      let key = (c.multiple, c.increment, c.intersend_ms) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.replace seen key ();
        true
      end)
    candidates

let pp fmt a =
  Format.fprintf fmt "<m=%.4f b=%.3f r=%.4fms>" a.multiple a.increment a.intersend_ms
