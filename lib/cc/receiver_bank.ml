open Remy_sim

(* Structure-of-arrays receivers: the per-ack hot state of n receivers
   ([expected], [conn]) lives in two flat int arrays instead of n heap
   records, and the reorder buffers — cold, touched only under loss —
   are small per-flow tables.  Every receiver acknowledges each data
   segment, echoing its sequence number, send timestamp and ECN mark:
   exactly the feedback a RemyCC memory consumes.  A new connection
   (higher [conn]) resets the flow's reorder state; duplicates are
   acknowledged but not recounted.  The bank owns every arriving packet
   and releases it to the pool on all paths. *)

type delack = {
  every : int; (* cumulative ACK after this many in-order arrivals *)
  timeout : float; (* flush a pending ACK after this long, seconds *)
  engine : Engine.t;
}

type t = {
  metrics : Metrics.t;
  pool : Packet.Pool.pool;
  ack_sink : int -> Packet.ack -> unit;
  fwd_delay : float array; (* forward propagation per flow, seconds *)
  delivery_hook : (flow:int -> now:float -> seq:int -> unit) option;
  delack : delack option;
  conn : int array;
  expected : int array;
  out_of_order : (int, unit) Hashtbl.t array;
  (* Delayed-ACK state per flow: the newest unacknowledged in-order
     arrival and its arrival time, the batch size so far (0 = nothing
     pending), and a generation that invalidates superseded flush
     timers.  Empty arrays without [delack]. *)
  pending : Packet.t array;
  pending_at : float array;
  pending_count : int array;
  delack_gen : int array;
  mutable delivered : int; (* fresh data packets accepted, all flows *)
}

let create ?delivery_hook ?delack engine ~metrics ~pool ~ack_sink ~fwd_delay =
  let n = Array.length fwd_delay in
  let delack =
    Option.map (fun (every, timeout) -> { every; timeout; engine }) delack
  in
  let per_flow = match delack with Some _ -> n | None -> 0 in
  {
    metrics;
    pool;
    ack_sink;
    fwd_delay;
    delivery_hook;
    delack;
    conn = Array.make n (-1);
    expected = Array.make n 0;
    out_of_order = Array.init n (fun _ -> Hashtbl.create 4);
    pending = Array.make per_flow Packet.dummy;
    pending_at = Array.make per_flow 0.;
    pending_count = Array.make per_flow 0;
    delack_gen = Array.make per_flow 0;
    delivered = 0;
  }

let expected t flow = t.expected.(flow)
let delivered t = t.delivered

let ack_of t flow (pkt : Packet.t) ~now =
  let feedback =
    match pkt.Packet.xcp with
    | Some hdr when Float.is_finite hdr.Packet.xcp_feedback ->
      Some hdr.Packet.xcp_feedback
    | Some _ | None -> None
  in
  let ack = Packet.Pool.acquire_ack t.pool in
  ack.Packet.ack_flow <- flow;
  ack.ack_conn <- t.conn.(flow);
  ack.cum_ack <- t.expected.(flow);
  ack.acked_seq <- pkt.seq;
  ack.acked_sent_at <- pkt.sent_at;
  ack.acked_retx <- pkt.retx;
  ack.ecn_echo <- pkt.ecn_marked;
  ack.ack_xcp_feedback <- feedback;
  ack.received_at <- now;
  ack

let acknowledge t flow pkt ~now =
  let ack = ack_of t flow pkt ~now in
  Packet.Pool.release t.pool pkt;
  t.ack_sink flow ack

(* --- delayed ACKs (RFC 1122 style) ---------------------------------- *)

let clear_pending t flow =
  let pkt = t.pending.(flow) in
  t.pending.(flow) <- Packet.dummy;
  t.pending_count.(flow) <- 0;
  t.delack_gen.(flow) <- t.delack_gen.(flow) + 1;
  pkt

let drop_pending t flow =
  if t.pending_count.(flow) > 0 then Packet.Pool.release t.pool (clear_pending t flow)

let flush_pending t flow =
  if t.pending_count.(flow) > 0 then begin
    let at = t.pending_at.(flow) in
    acknowledge t flow (clear_pending t flow) ~now:at
  end

(* An in-order arrival joins the batch: only the newest one is echoed
   individually (a superseded one is covered by the batch's cumulative
   ACK), and the batch flushes at [every] arrivals or after [timeout]. *)
let defer t d flow (pkt : Packet.t) ~now =
  if t.pending_count.(flow) > 0 then Packet.Pool.release t.pool t.pending.(flow);
  t.pending.(flow) <- pkt;
  t.pending_at.(flow) <- now;
  t.pending_count.(flow) <- t.pending_count.(flow) + 1;
  if t.pending_count.(flow) >= d.every then flush_pending t flow
  else begin
    t.delack_gen.(flow) <- t.delack_gen.(flow) + 1;
    let gen = t.delack_gen.(flow) in
    Engine.schedule_in d.engine d.timeout (fun () ->
        if gen = t.delack_gen.(flow) then flush_pending t flow)
  end

let receive t ~now flow (pkt : Packet.t) =
  if pkt.Packet.conn > t.conn.(flow) then begin
    t.conn.(flow) <- pkt.Packet.conn;
    t.expected.(flow) <- 0;
    (match t.delack with Some _ -> drop_pending t flow | None -> ());
    Hashtbl.reset t.out_of_order.(flow)
  end;
  if pkt.Packet.conn = t.conn.(flow) then begin
    let ooo = t.out_of_order.(flow) in
    (* [Hashtbl.length] is a field read; skipping the probes when the
       reorder buffer is empty keeps the loss-free path hash-free. *)
    let fresh =
      pkt.seq >= t.expected.(flow)
      && (Hashtbl.length ooo = 0 || not (Hashtbl.mem ooo pkt.seq))
    in
    let in_order = fresh && pkt.seq = t.expected.(flow) in
    if fresh then begin
      Metrics.packet_delivered t.metrics flow ~bytes:pkt.size
        ~queueing_delay:
          (Float.max 0. (now -. pkt.Packet.sent_at -. t.fwd_delay.(flow)));
      t.delivered <- t.delivered + 1;
      (match t.delivery_hook with Some f -> f ~flow ~now ~seq:pkt.seq | None -> ());
      if in_order then begin
        t.expected.(flow) <- t.expected.(flow) + 1;
        (* Drain any buffered in-order continuation. *)
        while Hashtbl.length ooo > 0 && Hashtbl.mem ooo t.expected.(flow) do
          Hashtbl.remove ooo t.expected.(flow);
          t.expected.(flow) <- t.expected.(flow) + 1
        done
      end
      else Hashtbl.replace ooo pkt.seq ()
    end;
    match t.delack with
    | Some d when in_order && Hashtbl.length ooo = 0 -> defer t d flow pkt ~now
    | Some _ ->
      (* An out-of-order or duplicate arrival, or one that fills a hole
         (its ACK reveals a cumulative jump), is acknowledged at once so
         fast retransmit works; the pending batch goes first to keep
         cumulative ACKs monotone at the sender. *)
      flush_pending t flow;
      acknowledge t flow pkt ~now
    | None -> acknowledge t flow pkt ~now
  end
  else
    (* Stale connection: dropped without acknowledgment. *)
    Packet.Pool.release t.pool pkt
