open Remy_util

let create ?(tracer = Remy_obs.Trace.off) ~table ~inner ~loss_rate ~seed () =
  let module T = Remy_obs.Trace in
  assert (loss_rate >= 0. && loss_rate < 1.);
  let rng = Prng.create seed in
  let random_drops = ref 0 in
  let enqueue ~now h =
    if Prng.float rng 1.0 < loss_rate then begin
      incr random_drops;
      if T.is_on tracer then
        T.packet_event tracer ~now ~kind:T.Drop
          ~queue:(inner.Qdisc.name ^ "+loss")
          ~flow:table.Packet.flow.{h} ~seq:table.Packet.seq.{h}
          ~size:table.Packet.size.{h} ~qlen:(inner.Qdisc.length ()) ();
      Packet.release table h;
      false
    end
    else inner.Qdisc.enqueue ~now h
  in
  {
    Qdisc.name = inner.Qdisc.name ^ "+loss";
    enqueue;
    dequeue = inner.Qdisc.dequeue;
    length = inner.Qdisc.length;
    byte_length = inner.Qdisc.byte_length;
    drops = (fun () -> !random_drops + inner.Qdisc.drops ());
  }
