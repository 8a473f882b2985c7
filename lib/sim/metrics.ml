(* One column per field, indexed by flow: recording a delivery or an
   on/off switch stores ints and unboxed floats, and allocates nothing. *)
type t = {
  bytes : int array;
  packets : int array;
  delay_sum : float array;
  on_time : float array;
  on_since : float array;  (* NaN while the flow is off *)
}

let create ~n_flows =
  {
    bytes = Array.make n_flows 0;
    packets = Array.make n_flows 0;
    delay_sum = Array.make n_flows 0.;
    on_time = Array.make n_flows 0.;
    on_since = Array.make n_flows Float.nan;
  }

let[@inline] flow_on t i now = if Float.is_nan t.on_since.(i) then t.on_since.(i) <- now

let[@inline] flow_off t i now =
  let start = t.on_since.(i) in
  if not (Float.is_nan start) then begin
    t.on_time.(i) <- t.on_time.(i) +. (now -. start);
    t.on_since.(i) <- Float.nan
  end

let[@inline] packet_delivered t i ~bytes ~queueing_delay =
  t.bytes.(i) <- t.bytes.(i) + bytes;
  t.packets.(i) <- t.packets.(i) + 1;
  t.delay_sum.(i) <- t.delay_sum.(i) +. queueing_delay

let finish t now =
  for i = 0 to Array.length t.on_since - 1 do
    flow_off t i now
  done

type flow_summary = {
  throughput_mbps : float;
  mean_queueing_delay_ms : float;
  bytes : int;
  packets : int;
  on_time : float;
}

let summary (t : t) i =
  let bytes = t.bytes.(i) and packets = t.packets.(i) and on_time = t.on_time.(i) in
  let throughput_mbps =
    if on_time > 0. then float_of_int bytes *. 8. /. on_time /. 1e6 else 0.
  in
  let mean_queueing_delay_ms =
    if packets > 0 then t.delay_sum.(i) /. float_of_int packets *. 1e3 else 0.
  in
  { throughput_mbps; mean_queueing_delay_ms; bytes; packets; on_time }

let summaries (t : t) = Array.init (Array.length t.bytes) (summary t)
