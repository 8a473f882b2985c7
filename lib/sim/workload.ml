open Remy_util

type on_spec = By_time of Dist.t | By_bytes of Dist.t | Icsi_flow_lengths
type t = { off_time : Dist.t; on_spec : on_spec }
type demand = Packets of int | Seconds of float

let by_time ~mean_on ~mean_off =
  { off_time = Dist.Exponential mean_off; on_spec = By_time (Dist.Exponential mean_on) }

let by_bytes ~mean_bytes ~mean_off =
  {
    off_time = Dist.Exponential mean_off;
    on_spec = By_bytes (Dist.Exponential mean_bytes);
  }

let icsi ~mean_off = { off_time = Dist.Exponential mean_off; on_spec = Icsi_flow_lengths }

let sample_off t rng = Dist.sample t.off_time rng

let packets_of_bytes b =
  Int.max 1 (int_of_float (Float.ceil (b /. float_of_int Packet.default_size)))

let sample_on t rng =
  match t.on_spec with
  | By_time d -> Seconds (Float.max 1e-3 (Dist.sample d rng))
  | By_bytes d -> Packets (packets_of_bytes (Dist.sample d rng))
  | Icsi_flow_lengths -> Packets (packets_of_bytes (Dist.pareto_icsi rng))

let saturating =
  { off_time = Dist.Constant infinity; on_spec = By_time (Dist.Constant infinity) }

let incast ~burst_bytes ~period =
  { off_time = Dist.Constant period; on_spec = By_bytes (Dist.Constant burst_bytes) }
