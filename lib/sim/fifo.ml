type t = {
  mutable handles : Packet.ints;
  mutable ats : Packet.floats;
  mutable head : int;  (* index of the oldest element *)
  mutable len : int;
}

(* Every queue starts on these and gets its own columns at its first
   push.  Nothing can be stored in a zero-length column, so sharing them
   across queues and domains is safe. *)
let no_handles = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0
let no_ats = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0

let create () = { handles = no_handles; ats = no_ats; head = 0; len = 0 }
let length q = q.len

(* The new columns are left uninitialised: only the [len] elements from
   [head] are ever read, and each is written first. *)
let grow q =
  let cap = Bigarray.Array1.dim q.handles in
  let cap' = Int.max 16 (2 * cap) in
  let handles = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cap'
  and ats = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout cap' in
  for i = 0 to q.len - 1 do
    let j = q.head + i in
    let j = if j >= cap then j - cap else j in
    handles.{i} <- q.handles.{j};
    ats.{i} <- q.ats.{j}
  done;
  q.handles <- handles;
  q.ats <- ats;
  q.head <- 0

(* head < cap and len <= cap, so one conditional subtract wraps: the
   ring never pays for an integer division. *)
(* remy-lint: hot *)
let push q h ~at =
  if q.len >= Bigarray.Array1.dim q.handles then grow q;
  let cap = Bigarray.Array1.dim q.handles in
  let i = q.head + q.len in
  let i = if i >= cap then i - cap else i in
  q.handles.{i} <- h;
  q.ats.{i} <- at;
  q.len <- q.len + 1

(* remy-lint: hot *)
let pop q =
  if q.len = 0 then Packet.none
  else begin
    let h = q.handles.{q.head} in
    let next = q.head + 1 in
    q.head <- (if next >= Bigarray.Array1.dim q.handles then 0 else next);
    q.len <- q.len - 1;
    h
  end

let head_at q = q.ats.{q.head}
