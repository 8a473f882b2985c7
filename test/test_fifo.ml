(* Fifo against a Queue.t oracle of (handle, at) pairs.  Runs of pushes
   and pops grow the ring from its shared zero-length columns and wrap
   its head past the end; a second queue mirrors every operation with
   other values, so two queues that shared a column would read each
   other's packets. *)

open Remy_sim

type op = Push of int * float | Pop

let print_op = function
  | Push (h, at) -> Printf.sprintf "push %d@%g" h at
  | Pop -> "pop"

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun h at -> Push (h, at)) (int_bound 1_000_000) (float_bound_inclusive 100.));
        (2, return Pop);
      ])

let arb_ops =
  QCheck.make ~print:QCheck.Print.(list print_op) ~shrink:QCheck.Shrink.list
    QCheck.Gen.(list_size (int_range 0 600) gen_op)

(* The mirrored queue's copy of a pushed pair. *)
let mirror (h, at) = (lnot h, -.at)

let prop_matches_queue =
  QCheck.Test.make ~name:"matches a queue oracle; two fifos never alias" ~count:300 arb_ops
    (fun ops ->
      let fa = Fifo.create () and fb = Fifo.create () in
      let qa = Queue.create () and qb = Queue.create () in
      let agree f q =
        Fifo.length f = Queue.length q
        && (Queue.is_empty q || Float.equal (Fifo.head_at f) (snd (Queue.peek q)))
      in
      let pop f q =
        let expected = match Queue.take_opt q with Some (h, _) -> h | None -> Packet.none in
        Fifo.pop f = expected
      in
      List.for_all
        (fun op ->
          let popped =
            match op with
            | Push (h, at) ->
              let hb, atb = mirror (h, at) in
              Fifo.push fa h ~at;
              Queue.push (h, at) qa;
              Fifo.push fb hb ~at:atb;
              Queue.push (hb, atb) qb;
              true
            | Pop ->
              let a = pop fa qa in
              let b = pop fb qb in
              a && b
          in
          popped && agree fa qa && agree fb qb)
        ops)

let tests = [ QCheck_alcotest.to_alcotest prop_matches_queue ]
