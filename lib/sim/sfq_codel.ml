type bin = {
  q : Fifo.t;
  codel : Codel.State.t;
  mutable bytes : int;
  mutable deficit : int;
  mutable active : bool;
}

let create ?(tracer = Remy_obs.Trace.off) ?(bins = 1024)
    ?(quantum = Packet.default_size) ?target ?interval ~table ~capacity () =
  let module T = Remy_obs.Trace in
  let make_bin () =
    {
      q = Fifo.create ();
      codel = Codel.State.create ?target ?interval ();
      bytes = 0;
      deficit = 0;
      active = false;
    }
  in
  let bin_of = Array.init bins (fun _ -> make_bin ()) in
  let new_flows : int Queue.t = Queue.create () in
  let old_flows : int Queue.t = Queue.create () in
  let total_pkts = ref 0 in
  let drops = ref 0 in
  let total_bytes = ref 0 in
  let hash flow = flow * 2654435761 land (bins - 1) in
  let event ~now kind h =
    if T.is_on tracer then
      T.packet_event tracer ~now ~kind ~queue:"sfqcodel" ~flow:table.Packet.flow.{h}
        ~seq:table.Packet.seq.{h} ~size:table.Packet.size.{h} ~qlen:!total_pkts ()
  in
  let drop ~now h =
    incr drops;
    event ~now T.Drop h;
    Packet.release table h
  in
  let drop_from_fattest ~now =
    (* Head-drop from the bin with the largest byte backlog. *)
    let fattest = ref (-1) in
    Array.iteri
      (fun i b ->
        if b.bytes > 0 && (!fattest < 0 || b.bytes > bin_of.(!fattest).bytes) then
          fattest := i)
      bin_of;
    if !fattest >= 0 then begin
      let b = bin_of.(!fattest) in
      let h = Fifo.pop b.q in
      if h <> Packet.none then begin
        b.bytes <- b.bytes - table.Packet.size.{h};
        total_bytes := !total_bytes - table.Packet.size.{h};
        decr total_pkts;
        drop ~now h
      end
    end
  in
  let enqueue ~now h =
    let i = hash table.Packet.flow.{h} in
    let b = bin_of.(i) in
    Fifo.push b.q h ~at:now;
    b.bytes <- b.bytes + table.Packet.size.{h};
    total_bytes := !total_bytes + table.Packet.size.{h};
    incr total_pkts;
    event ~now T.Enqueue h;
    if not b.active then begin
      b.active <- true;
      b.deficit <- quantum;
      Queue.add i new_flows
    end;
    if !total_pkts > capacity then drop_from_fattest ~now;
    true
    (* the arriving packet itself is admitted; overflow drops the fattest *)
  in
  let on_pop b h =
    b.bytes <- b.bytes - table.Packet.size.{h};
    total_bytes := !total_bytes - table.Packet.size.{h};
    decr total_pkts
  in
  let rec serve ~now =
    let from_new = not (Queue.is_empty new_flows) in
    let list = if from_new then new_flows else old_flows in
    match Queue.peek_opt list with
    | None -> Packet.none
    | Some i ->
      let b = bin_of.(i) in
      if b.deficit <= 0 then begin
        ignore (Queue.pop list);
        b.deficit <- b.deficit + quantum;
        Queue.add i old_flows;
        serve ~now
      end
      else begin
        let h =
          Codel.State.dequeue b.codel ~now b.q ~on_pop:(on_pop b)
            ~bytes:(fun () -> b.bytes)
            ~on_drop:(drop ~now)
        in
        if h <> Packet.none then begin
          b.deficit <- b.deficit - table.Packet.size.{h};
          event ~now T.Dequeue h;
          h
        end
        else begin
          (* Bin is empty: new bins get one more pass via the old list;
             old bins go inactive. *)
          ignore (Queue.pop list);
          if from_new then Queue.add i old_flows else b.active <- false;
          serve ~now
        end
      end
  in
  {
    Qdisc.name = "sfqcodel";
    enqueue;
    dequeue = (fun ~now -> serve ~now);
    length = (fun () -> !total_pkts);
    byte_length = (fun () -> !total_bytes);
    drops = (fun () -> !drops);
  }
