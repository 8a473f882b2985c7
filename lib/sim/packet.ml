let none = -1
let default_size = 1500
let retx = 1
let ecn_capable = 2
let ecn_marked = 4
let corrupt = 8
let xcp = 16

(* Set from acquire to release: what makes a double release detectable. *)
let live = 32

type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type table = {
  mutable flow : ints;
  mutable seq : ints;
  mutable conn : ints;
  mutable size : ints;
  mutable flags : ints;
  mutable sent_at : floats;
  mutable xcp_cwnd : floats;
  mutable xcp_rtt : floats;
  mutable xcp_feedback : floats;
  mutable cum_ack : ints;
  mutable received_at : floats;
  mutable free : ints;
  mutable n_free : int;
  mutable fresh : int;
  mutable acquired : int;
  mutable released : int;
  mutable misses : int;
}

let initial_capacity = 1024

(* Capacity a reset keeps: a queue-flood run may grow the table far
   past this, but the next run starts from here again. *)
let max_kept = 1 lsl 16

(* Reallocate every column at [cap] handles; [keep] copies the old
   contents over, else they are dropped.  A fresh column is left
   uninitialised: every element is written before it is read, and pages
   no handle reaches are never touched. *)
let resize t cap ~keep =
  let column kind old =
    let c = Bigarray.Array1.create kind Bigarray.c_layout cap in
    (if keep then
       let n = Bigarray.Array1.dim old in
       Bigarray.Array1.blit old (Bigarray.Array1.sub c 0 n));
    c
  in
  t.flow <- column Bigarray.int t.flow;
  t.seq <- column Bigarray.int t.seq;
  t.conn <- column Bigarray.int t.conn;
  t.size <- column Bigarray.int t.size;
  t.flags <- column Bigarray.int t.flags;
  t.sent_at <- column Bigarray.float64 t.sent_at;
  t.xcp_cwnd <- column Bigarray.float64 t.xcp_cwnd;
  t.xcp_rtt <- column Bigarray.float64 t.xcp_rtt;
  t.xcp_feedback <- column Bigarray.float64 t.xcp_feedback;
  t.cum_ack <- column Bigarray.int t.cum_ack;
  t.received_at <- column Bigarray.float64 t.received_at;
  t.free <- column Bigarray.int t.free

let create () =
  let ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0 in
  let floats = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0 in
  let t =
    {
      flow = ints;
      seq = ints;
      conn = ints;
      size = ints;
      flags = ints;
      sent_at = floats;
      xcp_cwnd = floats;
      xcp_rtt = floats;
      xcp_feedback = floats;
      cum_ack = ints;
      received_at = floats;
      free = ints;
      n_free = 0;
      fresh = 0;
      acquired = 0;
      released = 0;
      misses = 0;
    }
  in
  resize t initial_capacity ~keep:false;
  t

(* The free stack is empty and every handle below capacity is in use:
   double, keeping the live handles' columns. *)
let grow t =
  t.misses <- t.misses + 1;
  resize t (2 * Bigarray.Array1.dim t.flow) ~keep:true

(* remy-lint: hot *)
let acquire t ~flow ~seq ~conn ~flags ~now =
  let h =
    if t.n_free > 0 then begin
      t.n_free <- t.n_free - 1;
      t.free.{t.n_free}
    end
    else begin
      if t.fresh >= Bigarray.Array1.dim t.flow then grow t;
      let h = t.fresh in
      t.fresh <- h + 1;
      h
    end
  in
  t.acquired <- t.acquired + 1;
  t.flow.{h} <- flow;
  t.seq.{h} <- seq;
  t.conn.{h} <- conn;
  t.size.{h} <- default_size;
  t.flags.{h} <- flags lor live;
  t.sent_at.{h} <- now;
  t.xcp_feedback.{h} <- Float.nan;
  h

(* remy-lint: hot *)
let release t h =
  if h < 0 || h >= t.fresh || t.flags.{h} land live = 0 then
    invalid_arg (Printf.sprintf "Packet.release: handle %d is not live" h);
  t.flags.{h} <- t.flags.{h} land lnot live;
  t.free.{t.n_free} <- h;
  t.n_free <- t.n_free + 1;
  t.released <- t.released + 1

let reset t =
  if Bigarray.Array1.dim t.flow > max_kept then resize t max_kept ~keep:false;
  t.n_free <- 0;
  t.fresh <- 0;
  t.acquired <- 0;
  t.released <- 0;
  t.misses <- 0

(* One table per domain, claimed by the outermost run.  [busy] is only
   ever touched by its own domain. *)
type slot = { table : table; mutable busy : bool }

let slot = Domain.DLS.new_key (fun () -> { table = create (); busy = false })

let with_domain_table f =
  let s = Domain.DLS.get slot in
  if s.busy then f (create ())
  else begin
    s.busy <- true;
    reset s.table;
    Fun.protect ~finally:(fun () -> s.busy <- false) (fun () -> f s.table)
  end

let domain_table () = (Domain.DLS.get slot).table
