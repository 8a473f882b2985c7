open Remy_util
module T = Remy_obs.Trace

let create ?(tracer = T.off) ~table ~capacity ~min_th ~max_th ~max_p ~weight
    ~seed () =
  let q = Fifo.create () in
  let bytes = ref 0 in
  let drops = ref 0 in
  let avg = ref 0. in
  let count = ref (-1) in
  (* packets since last mark, for uniform marking spacing *)
  let rng = Prng.create seed in
  let event ~now kind h =
    if T.is_on tracer then
      T.packet_event tracer ~now ~kind ~queue:"red" ~flow:table.Packet.flow.{h}
        ~seq:table.Packet.seq.{h} ~size:table.Packet.size.{h} ~qlen:(Fifo.length q) ()
  in
  let mark_or_drop ~now h =
    let flags = table.Packet.flags.{h} in
    if flags land Packet.ecn_capable <> 0 then begin
      table.Packet.flags.{h} <- flags lor Packet.ecn_marked;
      event ~now T.Ecn_mark h;
      true (* still enqueued *)
    end
    else false
  in
  let admit ~now h =
    Fifo.push q h ~at:now;
    bytes := !bytes + table.Packet.size.{h};
    event ~now T.Enqueue h;
    true
  in
  let reject ~now h =
    incr drops;
    event ~now T.Drop h;
    Packet.release table h;
    false
  in
  let enqueue ~now h =
    avg := ((1. -. weight) *. !avg) +. (weight *. float_of_int (Fifo.length q));
    if Fifo.length q >= capacity then reject ~now h
    else if !avg < min_th then begin
      count := -1;
      admit ~now h
    end
    else if !avg >= max_th then begin
      count := 0;
      if mark_or_drop ~now h then admit ~now h else reject ~now h
    end
    else begin
      incr count;
      let pb = max_p *. (!avg -. min_th) /. (max_th -. min_th) in
      let pa =
        let denom = 1. -. (float_of_int !count *. pb) in
        if denom <= 0. then 1. else pb /. denom
      in
      if Prng.float rng 1.0 < pa then begin
        count := 0;
        if mark_or_drop ~now h then admit ~now h else reject ~now h
      end
      else admit ~now h
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
    Qdisc.name = "red";
    enqueue;
    dequeue;
    length = (fun () -> Fifo.length q);
    byte_length = (fun () -> !bytes);
    drops = (fun () -> !drops);
  }

let create_dctcp ?(tracer = T.off) ~table ~capacity ~threshold () =
  let q = Fifo.create () in
  let bytes = ref 0 in
  let drops = ref 0 in
  let event ~now kind h =
    if T.is_on tracer then
      T.packet_event tracer ~now ~kind ~queue:"dctcp-red" ~flow:table.Packet.flow.{h}
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
      let flags = table.Packet.flags.{h} in
      if Fifo.length q >= threshold && flags land Packet.ecn_capable <> 0 then begin
        table.Packet.flags.{h} <- flags lor Packet.ecn_marked;
        event ~now T.Ecn_mark h
      end;
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
    Qdisc.name = "dctcp-red";
    enqueue;
    dequeue;
    length = (fun () -> Fifo.length q);
    byte_length = (fun () -> !bytes);
    drops = (fun () -> !drops);
  }
