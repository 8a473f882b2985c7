open Remy_cc

type mask = { use_ack_ewma : bool; use_send_ewma : bool; use_rtt_ratio : bool }

let all_signals = { use_ack_ewma = true; use_send_ewma = true; use_rtt_ratio = true }

let apply_mask mask (m : Memory.t) =
  Memory.make
    ~ack_ewma:(if mask.use_ack_ewma then m.Memory.ack_ewma else 0.)
    ~send_ewma:(if mask.use_send_ewma then m.Memory.send_ewma else 0.)
    ~rtt_ratio:(if mask.use_rtt_ratio then m.Memory.rtt_ratio else 0.)

let make ?override ?tally ?(mask = all_signals)
    ?(idle_restart_s = Float.infinity) tree =
  let tracker = Memory.tracker () in
  let pacing = { Cc.window = 0.; intersend = 0. } in
  let unmasked = mask = all_signals in
  (* Look up the rule covering [mem] and act on it: the one memory
     record built per ACK is the lookup point and, with a tally, the
     recorded sample. *)
  let apply mem =
    let mem = if unmasked then mem else apply_mask mask mem in
    let id = Rule_tree.lookup tree mem in
    (match tally with Some t -> Tally.record t id mem | None -> ());
    Action.apply_to (Rule_tree.action ?override tree id) pacing
  in
  let reset ~now:_ =
    Memory.reset tracker;
    pacing.window <- 0.;
    (* Section 4.3: before any ACK, the all-zero memory region's action
       determines the initial window (m * 0 + b). *)
    apply Memory.zero
  in
  (* remy-lint: hot *)
  let on_ack (tbl : Remy_sim.Packet.table) h ~now ~newly_acked:_ ~in_recovery:_ =
    (* Graceful degradation after an outage: a gap in the ACK stream
       longer than [idle_restart_s] means the EWMAs describe a network
       that no longer exists (one giant interarrival delta would
       otherwise dominate them for dozens of ACKs), so restart the
       estimators as at connection start — only the memory, not the
       window.  Off (infinity) by default — the optimizer's design runs
       never take this branch. *)
    (if idle_restart_s < Float.infinity then
       let last = Memory.last_received_at tracker in
       if (not (Float.is_nan last)) && tbl.received_at.{h} -. last > idle_restart_s
       then Memory.reset tracker);
    (* The RTT sample is [now -. sent_at] whether or not Karn's rule
       would accept it: RemyCC's rtt_ratio reads every ACK. *)
    Memory.observe tracker tbl h ~now;
    apply (Memory.current tracker)
  in
  {
    Cc.name = "remycc";
    ecn_capable = false;
    pacing;
    reset;
    on_ack;
    on_loss = (fun ~now:_ -> ());
    on_timeout = (fun ~now:_ -> ());
    stamp = Cc.no_stamp;
  }

let factory ?override ?tally ?mask ?idle_restart_s tree () =
  make ?override ?tally ?mask ?idle_restart_s tree

(* Loading a table in order to *run* it goes through here: parse errors
   carry line/column, and structurally valid but out-of-bounds tables
   are rejected with the offending rule, before any simulation starts. *)
let load_result path = Rule_tree.load_validated path
