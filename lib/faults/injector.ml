open Remy_util
open Remy_sim

(* One injector per faulted link.  It has two halves:

   - a qdisc wrapper ([create]) applying the per-packet axes — GE loss,
     outage-drop, corruption marking, duplication, reorder/delay holds —
     in one fixed draw order so the stream is reproducible;
   - a link schedule ([attach]) driving the time axes — outages, rate
     and delay shifts — as pre-registered engine events.

   The injector draws from its own PRNG stream (derived from the run
   seed by the caller, never split from the flow RNG chain), so wiring a
   fault schedule does not perturb any other stochastic component: a
   no-fault run is bit-identical to one on a build without this
   library. *)

type stats = {
  mutable ge_drops : int;
  mutable outage_drops : int;
  mutable reordered : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable outages_started : int;
  mutable rate_shifts_applied : int;
  mutable delay_shifts_applied : int;
}

type t = {
  engine : Engine.t;
  table : Packet.table;
  tracer : Remy_obs.Trace.t;
  spec : Spec.link_faults;
  rng : Prng.t;
  ge : Gilbert.t option;
  name : string;
  mutable down_depth : int;  (* overlapping outages nest *)
  mutable drop_depth : int;  (* of which, Drop_arrivals policy *)
  mutable extra_delay_s : float;
  mutable link : Link.t option;
  mutable held : int;  (* packets in a reorder/delay hold *)
  stats : stats;
}

let stats t = t.stats
let held t = t.held

let fresh_stats () =
  {
    ge_drops = 0;
    outage_drops = 0;
    reordered = 0;
    duplicated = 0;
    corrupted = 0;
    outages_started = 0;
    rate_shifts_applied = 0;
    delay_shifts_applied = 0;
  }

let kick t = match t.link with Some l -> Link.kick l | None -> ()

(* A duplicate is a fresh handle with every column copied: the
   original and the copy are released independently (by the receiver,
   or wherever either is dropped).  Every column is read before the
   acquire, because the queue the original just entered may have
   dropped it, and the acquire then hands its handle straight back. *)
let copy_packet (tbl : Packet.table) h =
  let flow = tbl.Packet.flow.{h} and seq = tbl.Packet.seq.{h} in
  let conn = tbl.Packet.conn.{h} and flags = tbl.Packet.flags.{h} in
  let size = tbl.Packet.size.{h} and sent_at = tbl.Packet.sent_at.{h} in
  let cwnd = tbl.Packet.xcp_cwnd.{h} and rtt = tbl.Packet.xcp_rtt.{h} in
  let feedback = tbl.Packet.xcp_feedback.{h} in
  let c = Packet.acquire tbl ~flow ~seq ~conn ~flags ~now:sent_at in
  tbl.Packet.size.{c} <- size;
  tbl.Packet.xcp_cwnd.{c} <- cwnd;
  tbl.Packet.xcp_rtt.{c} <- rtt;
  tbl.Packet.xcp_feedback.{c} <- feedback;
  c

let create engine ?(tracer = Remy_obs.Trace.off) ~table ~seed
    (spec : Spec.link_faults) ~(inner : Qdisc.t) =
  let module T = Remy_obs.Trace in
  let name = inner.Qdisc.name ^ "+faults" in
  let t =
    {
      engine;
      table;
      tracer;
      spec;
      rng = Prng.create seed;
      (* The GE chain gets its own stream so its state sequence depends
         only on packet count, not on the other axes' draws. *)
      ge = Option.map (Gilbert.create ~seed:(seed lxor 0x6E11)) spec.Spec.ge;
      name;
      down_depth = 0;
      drop_depth = 0;
      extra_delay_s = 0.;
      link = None;
      held = 0;
      stats = fresh_stats ();
    }
  in
  let drop ~now h suffix =
    if T.is_on tracer then
      T.packet_event tracer ~now ~kind:T.Drop
        ~queue:(inner.Qdisc.name ^ suffix)
        ~flow:table.Packet.flow.{h} ~seq:table.Packet.seq.{h}
        ~size:table.Packet.size.{h} ~qlen:(inner.Qdisc.length ()) ();
    Packet.release table h
  in
  let trace_fault ~now fault =
    if T.is_on tracer then T.fault_event tracer ~now ~queue:name ~fault ()
  in
  (* Deferred entry: the packet re-enters the real qdisc after [hold]
     seconds, then pokes the link in case it went idle meanwhile. *)
  let defer ~now hold h =
    t.held <- t.held + 1;
    Engine.schedule t.engine (now +. hold) (fun () ->
        t.held <- t.held - 1;
        let accepted = inner.Qdisc.enqueue ~now:(Engine.now t.engine) h in
        if accepted then kick t)
  in
  let enqueue ~now h =
    (* Fixed decision order — outage, GE, corrupt, duplicate, hold — so
       the PRNG consumption per packet depends only on the spec. *)
    if t.drop_depth > 0 then begin
      t.stats.outage_drops <- t.stats.outage_drops + 1;
      drop ~now h "+outage";
      false
    end
    else
      match t.ge with
      | Some ge when Gilbert.step_drop ge ->
        t.stats.ge_drops <- t.stats.ge_drops + 1;
        drop ~now h "+ge";
        false
      | _ ->
        if t.spec.Spec.corrupt_prob > 0.
           && Prng.float t.rng 1.0 < t.spec.Spec.corrupt_prob
        then begin
          table.Packet.flags.{h} <- table.Packet.flags.{h} lor Packet.corrupt;
          t.stats.corrupted <- t.stats.corrupted + 1;
          trace_fault ~now "corrupt"
        end;
        let dup =
          t.spec.Spec.dup_prob > 0.
          && Prng.float t.rng 1.0 < t.spec.Spec.dup_prob
        in
        let hold =
          match t.spec.Spec.reorder with
          | Some r when Prng.float t.rng 1.0 < r.Spec.reorder_prob ->
            t.stats.reordered <- t.stats.reordered + 1;
            trace_fault ~now "reorder";
            t.extra_delay_s +. r.Spec.reorder_delay_s
          | _ -> t.extra_delay_s
        in
        let accepted =
          if hold > 0. then begin
            defer ~now hold h;
            (* The hold hides the queue's verdict from the sender, as a
               real extra propagation segment would. *)
            true
          end
          else inner.Qdisc.enqueue ~now h
        in
        if dup then begin
          t.stats.duplicated <- t.stats.duplicated + 1;
          trace_fault ~now "duplicate";
          let copy = copy_packet table h in
          if hold > 0. then defer ~now hold copy
          else ignore (inner.Qdisc.enqueue ~now copy)
        end;
        accepted
  in
  let gate =
    {
      Qdisc.name;
      enqueue;
      dequeue = inner.Qdisc.dequeue;
      length = inner.Qdisc.length;
      byte_length = inner.Qdisc.byte_length;
      drops =
        (fun () -> t.stats.ge_drops + t.stats.outage_drops + inner.Qdisc.drops ());
    }
  in
  (gate, t)

let attach t link =
  let module T = Remy_obs.Trace in
  t.link <- Some link;
  let initial_rate = Link.rate_bytes_per_sec link in
  let trace_fault ~now fault value =
    if T.is_on t.tracer then
      T.fault_event t.tracer ~now ~queue:t.name ~fault ?value ()
  in
  let go_down (o : Spec.outage) =
    t.down_depth <- t.down_depth + 1;
    (match o.Spec.policy with
    | Spec.Drop_arrivals -> t.drop_depth <- t.drop_depth + 1
    | Spec.Park -> ());
    t.stats.outages_started <- t.stats.outages_started + 1;
    trace_fault ~now:(Engine.now t.engine) "link-down" (Some o.Spec.down_s);
    if t.down_depth = 1 then Link.set_up link false
  in
  let go_up (o : Spec.outage) =
    t.down_depth <- t.down_depth - 1;
    (match o.Spec.policy with
    | Spec.Drop_arrivals -> t.drop_depth <- t.drop_depth - 1
    | Spec.Park -> ());
    trace_fault ~now:(Engine.now t.engine) "link-up" None;
    if t.down_depth = 0 then Link.set_up link true
  in
  List.iter
    (fun (o : Spec.outage) ->
      (* Flaps self-reschedule, so no horizon is needed here; cycles
         beyond the run's end stay pending in the agenda, unfired. *)
      let rec cycle k =
        let at = o.Spec.start_s +. (float_of_int k *. Option.value o.Spec.period_s ~default:0.) in
        Engine.schedule t.engine at (fun () ->
            go_down o;
            Engine.schedule t.engine (at +. o.Spec.down_s) (fun () ->
                go_up o;
                match o.Spec.period_s with
                | Some p when p > 0. -> cycle (k + 1)
                | _ -> ()))
      in
      cycle 0)
    t.spec.Spec.outages;
  List.iter
    (fun (s : Spec.rate_shift) ->
      Engine.schedule t.engine s.Spec.rate_at_s (fun () ->
          let target =
            match (s.Spec.change, initial_rate) with
            | Spec.Mbps m, _ -> Some (Link.bytes_per_sec_of_mbps m)
            | Spec.Factor f, Some r0 -> Some (f *. r0)
            | Spec.Factor _, None -> None (* trace-driven: no base rate *)
          in
          match target with
          | Some bps ->
            Link.set_rate_bytes_per_sec link bps;
            t.stats.rate_shifts_applied <- t.stats.rate_shifts_applied + 1;
            trace_fault ~now:(Engine.now t.engine) "rate-shift"
              (Some (bps *. 8. /. 1e6))
          | None -> ()))
    t.spec.Spec.rate_shifts;
  List.iter
    (fun (d : Spec.delay_shift) ->
      Engine.schedule t.engine d.Spec.delay_at_s (fun () ->
          t.extra_delay_s <- d.Spec.extra_s;
          t.stats.delay_shifts_applied <- t.stats.delay_shifts_applied + 1;
          trace_fault ~now:(Engine.now t.engine) "delay-shift"
            (Some d.Spec.extra_s)))
    t.spec.Spec.delay_shifts

(* Convenience wrapper used by Dumbbell/Topology: no-op on an empty
   link spec (zero-cost-when-off), else wrap + remember the injector so
   the link can be attached once built. *)
let maybe engine ?tracer ~table ~seed spec ~inner =
  if Spec.is_empty_link spec then (inner, None)
  else
    let gate, t = create engine ?tracer ~table ~seed spec ~inner in
    (gate, Some t)
