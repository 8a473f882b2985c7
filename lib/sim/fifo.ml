type t = {
  mutable handles : int array;
  mutable ats : float array;
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
}

let create () = { handles = [||]; ats = [||]; head = 0; len = 0 }
let length q = q.len

let grow q =
  let cap = Array.length q.handles in
  let cap' = Int.max 16 (2 * cap) in
  let handles = Array.make cap' Packet.none and ats = Array.make cap' 0. in
  for i = 0 to q.len - 1 do
    let j = q.head + i in
    let j = if j >= cap then j - cap else j in
    handles.(i) <- q.handles.(j);
    ats.(i) <- q.ats.(j)
  done;
  q.handles <- handles;
  q.ats <- ats;
  q.head <- 0

(* head < cap and len <= cap, so one conditional subtract wraps: the
   ring never pays for an integer division. *)
(* remy-lint: hot *)
let push q h ~at =
  if q.len >= Array.length q.handles then grow q;
  let cap = Array.length q.handles in
  let i = q.head + q.len in
  let i = if i >= cap then i - cap else i in
  q.handles.(i) <- h;
  q.ats.(i) <- at;
  q.len <- q.len + 1

(* remy-lint: hot *)
let pop q =
  if q.len = 0 then Packet.none
  else begin
    let h = q.handles.(q.head) in
    let next = q.head + 1 in
    q.head <- (if next >= Array.length q.handles then 0 else next);
    q.len <- q.len - 1;
    h
  end

let head_at q = q.ats.(q.head)
