open Remy_sim

(* Structure-of-arrays receivers: the per-ack hot state of n receivers
   ([expected], [conn]) lives in two flat int arrays instead of n heap
   records, and the reorder buffers — cold, touched only under loss —
   are small per-flow tables.  Every receiver acknowledges each data
   segment, echoing its sequence number, send timestamp and ECN mark:
   exactly the feedback a RemyCC memory consumes.  A new connection
   (higher [conn]) resets the flow's reorder state; duplicates are
   acknowledged but not recounted.  The bank owns every arriving packet
   handle: it turns the handle into the packet's ACK (handed to the ACK
   sink, which owns it from then on), or releases it to the table. *)

type delack = {
  every : int; (* cumulative ACK after this many in-order arrivals *)
  timeout : float; (* flush a pending ACK after this long, seconds *)
  engine : Engine.t;
}

type t = {
  metrics : Metrics.t;
  table : Packet.table;
  ack_sink : int -> int -> unit;
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
  pending : int array;
  pending_at : float array;
  pending_count : int array;
  delack_gen : int array;
  mutable delivered : int; (* fresh data packets accepted, all flows *)
}

let create ?delivery_hook ?delack engine ~metrics ~table ~ack_sink ~fwd_delay =
  let n = Array.length fwd_delay in
  let delack =
    Option.map (fun (every, timeout) -> { every; timeout; engine }) delack
  in
  let per_flow = match delack with Some _ -> n | None -> 0 in
  {
    metrics;
    table;
    ack_sink;
    fwd_delay;
    delivery_hook;
    delack;
    conn = Array.make n (-1);
    expected = Array.make n 0;
    out_of_order = Array.init n (fun _ -> Hashtbl.create 4);
    pending = Array.make per_flow Packet.none;
    pending_at = Array.make per_flow 0.;
    pending_count = Array.make per_flow 0;
    delack_gen = Array.make per_flow 0;
    delivered = 0;
  }

let expected t flow = t.expected.(flow)
let delivered t = t.delivered

let pending t =
  Array.fold_left (fun acc count -> if count > 0 then acc + 1 else acc) 0 t.pending_count

(* The packet becomes its own ACK: flow, conn, seq, send time and the
   retransmission and ECN bits are already in its columns; the receiver
   adds the cumulative point, its timestamp, and the XCP feedback echo
   (NaN unless a router granted a finite delta). *)
let acknowledge t flow h ~now =
  let tbl = t.table in
  tbl.Packet.cum_ack.{h} <- t.expected.(flow);
  tbl.Packet.received_at.{h} <- now;
  if not (Float.is_finite tbl.Packet.xcp_feedback.{h}) then
    tbl.Packet.xcp_feedback.{h} <- Float.nan;
  t.ack_sink flow h

(* --- delayed ACKs (RFC 1122 style) ---------------------------------- *)

let clear_pending t flow =
  let h = t.pending.(flow) in
  t.pending.(flow) <- Packet.none;
  t.pending_count.(flow) <- 0;
  t.delack_gen.(flow) <- t.delack_gen.(flow) + 1;
  h

let drop_pending t flow =
  if t.pending_count.(flow) > 0 then Packet.release t.table (clear_pending t flow)

let flush_pending t flow =
  if t.pending_count.(flow) > 0 then begin
    let at = t.pending_at.(flow) in
    acknowledge t flow (clear_pending t flow) ~now:at
  end

(* An in-order arrival joins the batch: only the newest one is echoed
   individually (a superseded one is covered by the batch's cumulative
   ACK), and the batch flushes at [every] arrivals or after [timeout]. *)
let defer t d flow h ~now =
  if t.pending_count.(flow) > 0 then Packet.release t.table t.pending.(flow);
  t.pending.(flow) <- h;
  t.pending_at.(flow) <- now;
  t.pending_count.(flow) <- t.pending_count.(flow) + 1;
  if t.pending_count.(flow) >= d.every then flush_pending t flow
  else begin
    t.delack_gen.(flow) <- t.delack_gen.(flow) + 1;
    let gen = t.delack_gen.(flow) in
    Engine.schedule_in d.engine d.timeout (fun () ->
        if gen = t.delack_gen.(flow) then flush_pending t flow)
  end

let receive t ~now flow h =
  let tbl = t.table in
  let conn = tbl.Packet.conn.{h} and seq = tbl.Packet.seq.{h} in
  if conn > t.conn.(flow) then begin
    t.conn.(flow) <- conn;
    t.expected.(flow) <- 0;
    (match t.delack with Some _ -> drop_pending t flow | None -> ());
    Hashtbl.reset t.out_of_order.(flow)
  end;
  if conn = t.conn.(flow) then begin
    let ooo = t.out_of_order.(flow) in
    (* [Hashtbl.length] is a field read; skipping the probes when the
       reorder buffer is empty keeps the loss-free path hash-free. *)
    let fresh =
      seq >= t.expected.(flow)
      && (Hashtbl.length ooo = 0 || not (Hashtbl.mem ooo seq))
    in
    let in_order = fresh && seq = t.expected.(flow) in
    if fresh then begin
      Metrics.packet_delivered t.metrics flow ~bytes:tbl.Packet.size.{h}
        ~queueing_delay:
          (Float.max 0. (now -. tbl.Packet.sent_at.{h} -. t.fwd_delay.(flow)));
      t.delivered <- t.delivered + 1;
      (match t.delivery_hook with Some f -> f ~flow ~now ~seq | None -> ());
      if in_order then begin
        t.expected.(flow) <- t.expected.(flow) + 1;
        (* Drain any buffered in-order continuation. *)
        while Hashtbl.length ooo > 0 && Hashtbl.mem ooo t.expected.(flow) do
          Hashtbl.remove ooo t.expected.(flow);
          t.expected.(flow) <- t.expected.(flow) + 1
        done
      end
      else Hashtbl.replace ooo seq ()
    end;
    match t.delack with
    | Some d when in_order && Hashtbl.length ooo = 0 -> defer t d flow h ~now
    | Some _ ->
      (* An out-of-order or duplicate arrival, or one that fills a hole
         (its ACK reveals a cumulative jump), is acknowledged at once so
         fast retransmit works; the pending batch goes first to keep
         cumulative ACKs monotone at the sender. *)
      flush_pending t flow;
      acknowledge t flow h ~now
    | None -> acknowledge t flow h ~now
  end
  else
    (* Stale connection: dropped without acknowledgment. *)
    Packet.release tbl h
