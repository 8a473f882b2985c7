let mtu = Packet.default_size

module State = struct
  type t = {
    target : float;
    interval : float;
    mutable first_above_time : float;
    mutable drop_next : float;
    mutable count : int;
    mutable lastcount : int;
    mutable dropping : bool;
    mutable ok_to_drop : bool;  (* the last [dodequeue]'s verdict *)
  }

  let create ?(target = 0.005) ?(interval = 0.100) () =
    {
      target;
      interval;
      first_above_time = 0.;
      drop_next = 0.;
      count = 0;
      lastcount = 0;
      dropping = false;
      ok_to_drop = false;
    }

  let control_law t from count = from +. (t.interval /. sqrt (float_of_int count))

  (* Pop one packet and decide whether CoDel would drop it; the verdict
     lands in [t.ok_to_drop]. *)
  let dodequeue t ~now q ~on_pop ~bytes =
    if Fifo.length q = 0 then begin
      t.first_above_time <- 0.;
      t.ok_to_drop <- false;
      Packet.none
    end
    else begin
      let enq_time = Fifo.head_at q in
      let h = Fifo.pop q in
      on_pop h;
      let sojourn = now -. enq_time in
      if sojourn < t.target || bytes () <= mtu then begin
        t.first_above_time <- 0.;
        t.ok_to_drop <- false
      end
      else if t.first_above_time = 0. then begin
        t.first_above_time <- now +. t.interval;
        t.ok_to_drop <- false
      end
      else t.ok_to_drop <- now >= t.first_above_time;
      h
    end

  let dequeue t ~now q ~on_pop ~bytes ~on_drop =
    let h = dodequeue t ~now q ~on_pop ~bytes in
    if h = Packet.none then begin
      t.dropping <- false;
      Packet.none
    end
    else begin
      let result = ref h in
      if t.dropping then begin
        if not t.ok_to_drop then t.dropping <- false
        else begin
          let current = ref h in
          let continue = ref true in
          while !continue && t.dropping && now >= t.drop_next do
            on_drop !current;
            t.count <- t.count + 1;
            let next = dodequeue t ~now q ~on_pop ~bytes in
            if next = Packet.none then begin
              t.dropping <- false;
              result := Packet.none;
              continue := false
            end
            else begin
              current := next;
              if not t.ok_to_drop then begin
                t.dropping <- false;
                result := next
              end
              else begin
                t.drop_next <- control_law t t.drop_next t.count;
                result := next
              end
            end
          done
        end
      end
      else if t.ok_to_drop then begin
        on_drop h;
        result := dodequeue t ~now q ~on_pop ~bytes;
        t.dropping <- true;
        let delta = t.count - t.lastcount in
        t.count <-
          (if delta > 1 && now -. t.drop_next < 16. *. t.interval then delta else 1);
        t.drop_next <- control_law t now t.count;
        t.lastcount <- t.count
      end;
      !result
    end
end

let create ?(tracer = Remy_obs.Trace.off) ?target ?interval ~table ~capacity () =
  let module T = Remy_obs.Trace in
  let q = Fifo.create () in
  let bytes = ref 0 in
  let drops = ref 0 in
  let state = State.create ?target ?interval () in
  let event ~now kind h =
    if T.is_on tracer then
      T.packet_event tracer ~now ~kind ~queue:"codel" ~flow:table.Packet.flow.{h}
        ~seq:table.Packet.seq.{h} ~size:table.Packet.size.{h} ~qlen:(Fifo.length q) ()
  in
  let on_pop h = bytes := !bytes - table.Packet.size.{h} in
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
    let h =
      State.dequeue state ~now q ~on_pop
        ~bytes:(fun () -> !bytes)
        ~on_drop:(fun h ->
          incr drops;
          event ~now T.Drop h;
          Packet.release table h)
    in
    if h <> Packet.none then event ~now T.Dequeue h;
    h
  in
  {
    Qdisc.name = "codel";
    enqueue;
    dequeue;
    length = (fun () -> Fifo.length q);
    byte_length = (fun () -> !bytes);
    drops = (fun () -> !drops);
  }
