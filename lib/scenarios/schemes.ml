open Remy_cc

type qdisc_kind = Q_droptail | Q_sfqcodel | Q_dctcp_red | Q_xcp

type t = {
  name : string;
  factory : Cc.factory;
  qdisc : qdisc_kind;
  tree : Remy.Rule_tree.t option;
}

let droptail_capacity = 1000
let dctcp_threshold = 65

let baseline name factory qdisc =
  { name; factory; qdisc; tree = None }

let newreno = baseline "NewReno" (Newreno.factory ()) Q_droptail
let vegas = baseline "Vegas" (Vegas.factory ()) Q_droptail
let cubic = baseline "Cubic" (Cubic.factory ()) Q_droptail
let compound = baseline "Compound" (Compound.factory ()) Q_droptail
let cubic_sfqcodel = baseline "Cubic/sfqCoDel" (Cubic.factory ()) Q_sfqcodel
let xcp = baseline "XCP" (Xcp.factory ()) Q_xcp
let dctcp = baseline "DCTCP" (Dctcp.factory ()) Q_dctcp_red

let end_to_end = [ newreno; vegas; cubic; compound ]
let fig4_baselines = end_to_end @ [ cubic_sfqcodel; xcp ]

let remy ?idle_restart_s ~name tree =
  {
    name;
    factory = Remy.Remycc.factory ?idle_restart_s tree;
    qdisc = Q_droptail;
    tree = Some tree;
  }

let qdisc_spec t ~capacity =
  match t.qdisc with
  | Q_droptail -> Topology.Droptail capacity
  | Q_sfqcodel -> Topology.Sfq_codel capacity
  | Q_dctcp_red -> Topology.Dctcp_red { capacity; threshold = dctcp_threshold }
  | Q_xcp -> Topology.Xcp capacity

let by_name name =
  List.find_opt (fun t -> String.lowercase_ascii t.name = String.lowercase_ascii name)
    (fig4_baselines @ [ dctcp ])
