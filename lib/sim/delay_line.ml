type t = {
  engine : Engine.t;
  delay : float;
  handler : int -> unit;
  (* Ring of handles in flight, with each one's agenda key (due time
     and packed seq) in two parallel columns. *)
  mutable buf : int array;
  mutable dues : float array;
  mutable keys : int array;
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
  mutable pop : Engine.handle;
}

(* Only the head is in the agenda.  Due times are nondecreasing in push
   order (constant delay, monotone clock) and seqs increase, so each
   firing consumes exactly the oldest element; it files the next head
   before calling the handler, which makes that push replace the
   firing entry in the agenda's root slot.  The wrap is a compare, not
   a [mod] — integer division is a hot-path cost. *)
(* remy-lint: hot *)
let pop t =
  let v = t.buf.(t.head) in
  let h = t.head + 1 in
  let h = if h >= Array.length t.buf then 0 else h in
  t.head <- h;
  t.len <- t.len - 1;
  if t.len > 0 then Engine.file t.engine t.dues t.keys h;
  t.handler v

let create engine ~delay handler =
  if not (delay >= 0.) then
    invalid_arg (Printf.sprintf "Delay_line.create: delay %g is not >= 0" delay);
  let t =
    {
      engine;
      delay;
      handler;
      buf = Array.make 16 Packet.none;
      dues = Array.make 16 0.;
      keys = Array.make 16 0;
      head = 0;
      len = 0;
      pop = Engine.no_handle;
    }
  in
  t.pop <- Engine.register engine (fun () -> pop t);
  t

let grow t =
  let cap = Array.length t.buf in
  let buf = Array.make (2 * cap) Packet.none in
  let dues = Array.make (2 * cap) 0. and keys = Array.make (2 * cap) 0 in
  for i = 0 to t.len - 1 do
    let j = (t.head + i) mod cap in
    buf.(i) <- t.buf.(j);
    dues.(i) <- t.dues.(j);
    keys.(i) <- t.keys.(j)
  done;
  t.buf <- buf;
  t.dues <- dues;
  t.keys <- keys;
  t.head <- 0

(* remy-lint: hot *)
let push t v =
  if t.len >= Array.length t.buf then grow t;
  let cap = Array.length t.buf in
  (* head < cap and len <= cap, so one conditional subtract wraps. *)
  let i = t.head + t.len in
  let i = if i >= cap then i - cap else i in
  t.buf.(i) <- v;
  (* delay >= 0, so the due time is never before now. *)
  t.dues.(i) <- Engine.now t.engine +. t.delay;
  t.keys.(i) <- Engine.key t.engine t.pop;
  t.len <- t.len + 1;
  if t.len = 1 then Engine.file t.engine t.dues t.keys i

let length t = t.len
