module T = Remy_obs.Trace

let name = "droptail"

let create ?(tracer = T.off) ~table ~capacity () =
  (* A handle ring: no per-packet allocation on either path, unlike a
     linked [Queue.t].  The ring grows geometrically with actual
     occupancy — [capacity] only bounds admission and can be
     {!Qdisc.unlimited_capacity} ([max_int]). *)
  let q = Fifo.create () in
  let bytes = ref 0 in
  let drops = ref 0 in
  let event ~now kind h =
    if T.is_on tracer then
      T.packet_event tracer ~now ~kind ~queue:name ~flow:table.Packet.flow.{h}
        ~seq:table.Packet.seq.{h} ~size:table.Packet.size.{h} ~qlen:(Fifo.length q) ()
  in
  let enqueue ~now h =
    if Fifo.length q >= capacity then begin
      incr drops;
      event ~now T.Drop h;
      Packet.release table h;
      false
    end
    else begin
      Fifo.push q h ~at:now;
      bytes := !bytes + table.Packet.size.{h};
      event ~now T.Enqueue h;
      true
    end
  in
  let dequeue ~now =
    let h = Fifo.pop q in
    if h <> Packet.none then begin
      bytes := !bytes - table.Packet.size.{h};
      event ~now T.Dequeue h
    end;
    h
  in
  {
    Qdisc.name;
    enqueue;
    dequeue;
    length = (fun () -> Fifo.length q);
    byte_length = (fun () -> !bytes);
    drops = (fun () -> !drops);
  }
