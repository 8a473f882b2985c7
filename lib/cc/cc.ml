type pacing = { mutable window : float; mutable intersend : float }

type t = {
  name : string;
  ecn_capable : bool;
  pacing : pacing;
  reset : now:float -> unit;
  on_ack :
    Remy_sim.Packet.table -> int -> now:float -> newly_acked:int -> in_recovery:bool -> unit;
  on_loss : now:float -> unit;
  on_timeout : now:float -> unit;
  stamp : Remy_sim.Packet.table -> int -> unit;
}

type factory = unit -> t

let no_stamp _ _ = ()
let rtt_valid (tbl : Remy_sim.Packet.table) h = tbl.flags.{h} land Remy_sim.Packet.retx = 0
