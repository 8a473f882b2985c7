type t = { ack_ewma : float; send_ewma : float; rtt_ratio : float }

let zero = { ack_ewma = 0.; send_ewma = 0.; rtt_ratio = 0. }
let max_value = 16384.
let ewma_weight = 0.125
let dims = 3

let[@inline] clamp v = Float.min (max_value -. 1e-9) (Float.max 0. v)

(* All-float, so the ACK path updates it in place with unboxed stores.
   The per-ack fields use float sentinels instead of options — NaN for
   "no echo seen yet", infinity for "no RTT observed".  Both EWMAs blend
   from zero with weight [ewma_weight]. *)
type tracker = {
  mutable ack_ewma_ms : float;
  mutable send_ewma_ms : float;
  mutable last_received_at : float;  (* NaN before the first ack *)
  mutable last_sent_at : float;  (* NaN before the first ack *)
  mutable min_rtt_s : float;  (* infinity before the first sample *)
  mutable ratio : float;
}

let tracker () =
  {
    ack_ewma_ms = 0.;
    send_ewma_ms = 0.;
    last_received_at = Float.nan;
    last_sent_at = Float.nan;
    min_rtt_s = Float.infinity;
    ratio = 0.;
  }

let reset t =
  t.ack_ewma_ms <- 0.;
  t.send_ewma_ms <- 0.;
  t.last_received_at <- Float.nan;
  t.last_sent_at <- Float.nan;
  t.min_rtt_s <- Float.infinity;
  t.ratio <- 0.

let current t =
  {
    ack_ewma = clamp t.ack_ewma_ms;
    send_ewma = clamp t.send_ewma_ms;
    rtt_ratio = clamp t.ratio;
  }

let[@inline] fold t ~sent_at ~received_at ~rtt =
  if not (Float.is_nan t.last_received_at) then begin
    (* Deltas in milliseconds; negative deltas (reordered echoes) are
       floored at zero. *)
    let xa = Float.max 0. ((received_at -. t.last_received_at) *. 1e3) in
    t.ack_ewma_ms <- t.ack_ewma_ms +. (ewma_weight *. (xa -. t.ack_ewma_ms));
    let xs = Float.max 0. ((sent_at -. t.last_sent_at) *. 1e3) in
    t.send_ewma_ms <- t.send_ewma_ms +. (ewma_weight *. (xs -. t.send_ewma_ms))
  end;
  t.last_received_at <- received_at;
  t.last_sent_at <- sent_at;
  if rtt < t.min_rtt_s then t.min_rtt_s <- rtt;
  t.ratio <-
    (if t.min_rtt_s > 0. && Float.is_finite t.min_rtt_s then rtt /. t.min_rtt_s
     else 1.)

let on_ack t ~sent_at ~received_at ~rtt =
  fold t ~sent_at ~received_at ~rtt;
  current t

(* remy-lint: hot *)
let observe t (tbl : Remy_sim.Packet.table) h ~now =
  let sent_at = tbl.sent_at.{h} in
  fold t ~sent_at ~received_at:tbl.received_at.{h} ~rtt:(now -. sent_at)

let min_rtt t = if Float.is_finite t.min_rtt_s then Some t.min_rtt_s else None
let last_received_at t = t.last_received_at

let get m = function
  | 0 -> m.ack_ewma
  | 1 -> m.send_ewma
  | 2 -> m.rtt_ratio
  | d -> invalid_arg (Printf.sprintf "Memory.get: dimension %d" d)

let make ~ack_ewma ~send_ewma ~rtt_ratio =
  { ack_ewma = clamp ack_ewma; send_ewma = clamp send_ewma; rtt_ratio = clamp rtt_ratio }

let pp fmt m =
  Format.fprintf fmt "<ack_ewma=%.3f send_ewma=%.3f rtt_ratio=%.3f>" m.ack_ewma
    m.send_ewma m.rtt_ratio
