(* The agenda is a hierarchical timing wheel keyed by (priority,
   insertion sequence); test_timing_wheel checks its pop order against
   the binary heap. *)
type t = {
  mutable clock : float;
  agenda : (unit -> unit) Remy_util.Timing_wheel.t;
  mutable tracer : Remy_obs.Trace.t;
}

(* Scheduling tolerance: events aimed up to one nanosecond into the past
   are clamped to "now" rather than rejected, absorbing float round-off
   in rate computations (bytes / bandwidth etc.). *)
let schedule_epsilon = 1e-9

let create ?(tracer = Remy_obs.Trace.off) () =
  { clock = 0.; agenda = Remy_util.Timing_wheel.create (); tracer }

let now t = t.clock
let tracer t = t.tracer
let set_tracer t tr = t.tracer <- tr

let schedule t at f =
  (* One comparison rejects both the past and NaN, which compares false
     with everything and would otherwise be filed into the wheel. *)
  if not (at >= t.clock -. schedule_epsilon) then
    invalid_arg
      (if Float.is_nan at then "Engine.schedule: time is NaN"
       else Printf.sprintf "Engine.schedule: time %.9f is before now %.9f" at t.clock);
  Remy_util.Timing_wheel.push t.agenda (Float.max at t.clock) f

let schedule_in t dt f = schedule t (t.clock +. dt) f

(* Per-event cost in the drain is two reads and a call: min_prio /
   pop_exn avoid the option + tuple that peek/pop allocate, and the
   event tally accumulates in an argument register (flushed to the
   atomic counter once per run).  Tail recursion keeps the loop
   allocation-free — the hot-alloc lint proves it. *)

(* remy-lint: hot *)
let rec drain t w ~until fired =
  if Remy_util.Timing_wheel.size w = 0 then fired
  else
    let at = Remy_util.Timing_wheel.min_prio w in
    if at > until then fired
    else begin
      let f = Remy_util.Timing_wheel.pop_exn w in
      t.clock <- at;
      f ();
      drain t w ~until (fired + 1)
    end

let run t ~until =
  let fired = drain t t.agenda ~until 0 in
  Remy_obs.Counters.add Remy_obs.Counters.events_run fired;
  t.clock <- Float.max t.clock until

let pending t = Remy_util.Timing_wheel.size t.agenda
