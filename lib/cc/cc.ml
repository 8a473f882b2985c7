type ack_info = {
  now : float;
  rtt : float option;
  newly_acked : int;
  cum_ack : int;
  acked_seq : int;
  acked_sent_at : float;
  receiver_ts : float;
  ecn_echo : bool;
  xcp_feedback : float option;
  in_flight : int;
  in_recovery : bool;
}

type t = {
  name : string;
  ecn_capable : bool;
  reset : now:float -> unit;
  on_ack : ack_info -> unit;
  on_loss : now:float -> unit;
  on_timeout : now:float -> unit;
  window : unit -> float;
  intersend : unit -> float;
  stamp : Remy_sim.Packet.table -> int -> unit;
}

type factory = unit -> t

let no_stamp _ _ = ()
let rtt_of (a : ack_info) = a.rtt
