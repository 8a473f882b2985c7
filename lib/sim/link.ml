type t = {
  engine : Engine.t;
  table : Packet.table;
  disc : Qdisc.t;
  sink : int -> unit;
  mutable in_service : int;  (* Packet.none while idle; constant-rate links only *)
  mutable complete : Engine.handle;  (* registered tx-done callback *)
  mutable delivered_pkts : int;
  mutable delivered_bytes : int;
  mutable corrupt_drops : int;
  mutable up : bool;  (* outage state: a down link serves nothing *)
  mutable service : service;
}

and service = Constant of float (* bytes per second *) | Trace

let deliver t h =
  let tbl = t.table in
  if tbl.Packet.flags.{h} land Packet.corrupt <> 0 then begin
    (* Corrupted in flight: the packet consumed service capacity but the
       checksum fails at the far end, so it never reaches the sink. *)
    t.corrupt_drops <- t.corrupt_drops + 1;
    let tr = Engine.tracer t.engine in
    if Remy_obs.Trace.is_on tr then
      Remy_obs.Trace.packet_event tr ~now:(Engine.now t.engine)
        ~kind:Remy_obs.Trace.Drop
        ~queue:(t.disc.Qdisc.name ^ "+corrupt")
        ~flow:tbl.Packet.flow.{h} ~seq:tbl.Packet.seq.{h} ~size:tbl.Packet.size.{h}
        ~qlen:(t.disc.Qdisc.length ()) ();
    Packet.release tbl h
  end
  else begin
    t.delivered_pkts <- t.delivered_pkts + 1;
    t.delivered_bytes <- t.delivered_bytes + tbl.Packet.size.{h};
    (* [now - sent_at] at link exit is send-to-transmission-complete: queue
       wait plus transmission, before propagation — exactly the receiver's
       (receive_time - sent_at - rtt/2) queueing delay, observed here so no
       rtt plumbing is needed. *)
    if Remy_obs.Metrics.enabled () then
      Remy_obs.Metrics.record Remy_obs.Metrics.Queueing_delay
        (Engine.now t.engine -. tbl.Packet.sent_at.{h});
    let tr = Engine.tracer t.engine in
    if Remy_obs.Trace.is_on tr then
      Remy_obs.Trace.packet_event tr ~now:(Engine.now t.engine)
        ~kind:Remy_obs.Trace.Deliver ~queue:t.disc.Qdisc.name ~flow:tbl.Packet.flow.{h}
        ~seq:tbl.Packet.seq.{h} ~size:tbl.Packet.size.{h}
        ~delay_s:(Engine.now t.engine -. tbl.Packet.sent_at.{h})
        ~qlen:(t.disc.Qdisc.length ()) ();
    t.sink h
  end

let start_service t =
  match t.service with
  | Trace -> ()
  | Constant rate ->
    if t.up && t.in_service = Packet.none then begin
      let h = t.disc.Qdisc.dequeue ~now:(Engine.now t.engine) in
      if h <> Packet.none then begin
        (* Queue sojourn: send (= enqueue, senders transmit into the
           qdisc at [sent_at]) to dequeue, excluding transmission. *)
        if Remy_obs.Metrics.enabled () then
          Remy_obs.Metrics.record Remy_obs.Metrics.Sojourn
            (Engine.now t.engine -. t.table.Packet.sent_at.{h});
        (* Single packet in service at a time, so the in-flight handle
           lives in a field and every transmission schedules the one
           registered completion handle. *)
        t.in_service <- h;
        let tx_time = float_of_int t.table.Packet.size.{h} /. rate in
        Engine.schedule_handle_in t.engine tx_time t.complete
      end
    end

let make engine ~table ~qdisc ~sink service =
  {
    engine;
    table;
    disc = qdisc;
    sink;
    in_service = Packet.none;
    complete = Engine.no_handle;
    delivered_pkts = 0;
    delivered_bytes = 0;
    corrupt_drops = 0;
    up = true;
    service;
  }

let create_constant engine ~table ~qdisc ~bytes_per_sec ~sink =
  let t = make engine ~table ~qdisc ~sink (Constant bytes_per_sec) in
  t.complete <-
    Engine.register engine (fun () ->
        let h = t.in_service in
        t.in_service <- Packet.none;
        deliver t h;
        start_service t);
  t

let create_trace engine ~table ~qdisc ~next_gap ~sink =
  let t = make engine ~table ~qdisc ~sink Trace in
  let rec tick () =
    (* A down trace link skips its delivery opportunities: the chain of
       opportunities keeps ticking (as the radio schedule would), but no
       packet leaves the queue. *)
    (if t.up then
       let h = t.disc.Qdisc.dequeue ~now:(Engine.now engine) in
       if h <> Packet.none then begin
         if Remy_obs.Metrics.enabled () then
           Remy_obs.Metrics.record Remy_obs.Metrics.Sojourn
             (Engine.now engine -. table.Packet.sent_at.{h});
         deliver t h
       end);
    Engine.schedule_in engine (Float.max 1e-9 (next_gap ())) tick
  in
  Engine.schedule_in engine (Float.max 1e-9 (next_gap ())) tick;
  t

let send t h =
  let now = Engine.now t.engine in
  if t.disc.Qdisc.enqueue ~now h then start_service t

let kick t = start_service t
let is_up t = t.up

let set_up t up =
  let was = t.up in
  t.up <- up;
  (* Coming back up: restart service for whatever parked in the queue
     during the outage.  An in-flight transmission was never interrupted
     (the packet was already on the wire), so no cleanup on down. *)
  if up && not was then start_service t

let rate_bytes_per_sec t =
  match t.service with Constant r -> Some r | Trace -> None

let set_rate_bytes_per_sec t rate =
  match t.service with
  | Constant _ ->
    if rate <= 0. then invalid_arg "Link.set_rate_bytes_per_sec: rate <= 0";
    (* Applies from the next packet entering service; the transmission in
       progress finishes at the old rate. *)
    t.service <- Constant rate
  | Trace -> ()

let qdisc t = t.disc
let in_service t = if t.in_service = Packet.none then 0 else 1
let delivered_packets t = t.delivered_pkts
let delivered_bytes t = t.delivered_bytes
let corrupt_drops t = t.corrupt_drops

let bytes_per_sec_of_mbps mbps = mbps *. 1e6 /. 8.
let pps_of_mbps mbps = bytes_per_sec_of_mbps mbps /. float_of_int Packet.default_size
