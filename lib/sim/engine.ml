(* The agenda is a 4-ary min-heap over two unboxed columns: [times]
   holds entry times and [keys] packs each entry's sequence number above
   its handle ([seq lsl handle_bits lor handle]).  Seqs are unique, so
   one int compare breaks a time tie by seq, and moving an entry writes
   a float and an int, never a pointer (no [caml_modify]).  Callbacks
   live in a handle table: a registered source owns its slot for the
   engine's lifetime, and [schedule] lends a closure a free-listed
   one-shot slot until it fires.  test_engine checks the firing order
   against a binary-heap oracle (test/heap.ml). *)

let handle_bits = 22
let handle_mask = (1 lsl handle_bits) - 1
let max_seq = max_int lsr handle_bits

type handle = int

(* The clock is a record of one float field, which OCaml lays out flat:
   [drain] stores each event's time unboxed and without [caml_modify],
   and [now], inlined into its caller, reads it unboxed. *)
type clock = { mutable now : float }

(* Slot 0 is bound at creation to a callback that fails loudly, so a
   placeholder handle scheduled by mistake cannot fire silently. *)
let no_handle = 0

type t = {
  clock : clock;
  mutable tracer : Remy_obs.Trace.t;
  (* Heap columns, [size] entries in heap order. *)
  mutable times : float array;
  mutable keys : int array;
  mutable size : int;
  (* The running event still holds slot 0: the first push its callback
     makes replaces it (one sift-down instead of a pop plus a push);
     otherwise it is popped once the callback returns, or by the next
     [run] or push if the callback raised. *)
  mutable live_root : bool;
  mutable next_seq : int;
  (* Handle table.  One-shot slots stay one-shot; released ones wait on
     the [free] stack. *)
  mutable cbs : (unit -> unit) array;
  mutable oneshot : bool array;
  mutable handles : int;
  mutable free : int array;
  mutable nfree : int;
}

(* Scheduling tolerance: events aimed up to one nanosecond into the past
   are clamped to "now" rather than rejected, absorbing float round-off
   in rate computations (bytes / bandwidth etc.). *)
let schedule_epsilon = 1e-9

let create ?(tracer = Remy_obs.Trace.off) () =
  {
    clock = { now = 0. };
    tracer;
    times = Array.make 64 0.;
    keys = Array.make 64 0;
    size = 0;
    live_root = false;
    next_seq = 0;
    cbs = Array.make 16 (fun () -> invalid_arg "Engine: no_handle was scheduled");
    oneshot = Array.make 16 false;
    handles = 1;
    free = Array.make 16 0;
    nfree = 0;
  }

let[@inline] now t = t.clock.now
let tracer t = t.tracer
let set_tracer t tr = t.tracer <- tr

(* --- heap ------------------------------------------------------------ *)

(* Both sifts swap the moving entry one level at a time and recurse on
   int arguments only: a float crossing a call, held in a [float ref],
   or read through an array not annotated [float array] would be boxed
   on every step.  [less] and [swap] only see indices below [size],
   which never exceeds the columns' length, so they skip the bounds
   checks. *)

let[@inline] less (times : float array) (keys : int array) a b =
  let xa = Array.unsafe_get times a and xb = Array.unsafe_get times b in
  xa < xb || (xa = xb && Array.unsafe_get keys a < Array.unsafe_get keys b)

let[@inline] swap (times : float array) (keys : int array) a b =
  let xa = Array.unsafe_get times a and ka = Array.unsafe_get keys a in
  Array.unsafe_set times a (Array.unsafe_get times b);
  Array.unsafe_set keys a (Array.unsafe_get keys b);
  Array.unsafe_set times b xa;
  Array.unsafe_set keys b ka

(* remy-lint: hot *)
let rec sift_up (times : float array) (keys : int array) i =
  if i > 0 then begin
    let p = (i - 1) lsr 2 in
    if less times keys i p then begin
      swap times keys i p;
      sift_up times keys p
    end
  end

(* remy-lint: hot *)
let rec sift_down (times : float array) (keys : int array) n i =
  let c = (i lsl 2) + 1 in
  if c < n then begin
    (* The least of the (up to four) children c .. c+3. *)
    let m = if c + 1 < n && less times keys (c + 1) c then c + 1 else c in
    let m = if c + 2 < n && less times keys (c + 2) m then c + 2 else m in
    let m = if c + 3 < n && less times keys (c + 3) m then c + 3 else m in
    if less times keys m i then begin
      swap times keys i m;
      sift_down times keys n m
    end
  end

let pop_root t =
  t.live_root <- false;
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    t.times.(0) <- t.times.(n);
    t.keys.(0) <- t.keys.(n);
    sift_down t.times t.keys n 0
  end

let grow_heap t =
  let cap = 2 * Array.length t.times in
  let times = Array.make cap 0. and keys = Array.make cap 0 in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.keys 0 keys 0 t.size;
  t.times <- times;
  t.keys <- keys

(* A push writes its entry into [slot t] and then calls [settle], so the
   time never crosses a call and is never boxed. *)
let[@inline] slot t =
  if t.live_root then 0
  else begin
    if t.size = Array.length t.times then grow_heap t;
    t.size
  end

(* remy-lint: hot *)
let[@inline] settle t i =
  if t.live_root then begin
    t.live_root <- false;
    sift_down t.times t.keys t.size 0
  end
  else begin
    t.size <- i + 1;
    sift_up t.times t.keys i
  end

(* --- handles and keys ------------------------------------------------ *)

let new_slot t =
  let h = t.handles in
  if h > handle_mask then failwith "Engine: handle table full";
  if h = Array.length t.cbs then begin
    let cbs = Array.make (2 * h) ignore and oneshot = Array.make (2 * h) false in
    Array.blit t.cbs 0 cbs 0 h;
    Array.blit t.oneshot 0 oneshot 0 h;
    t.cbs <- cbs;
    t.oneshot <- oneshot
  end;
  t.handles <- h + 1;
  h

let register t f =
  let h = new_slot t in
  t.cbs.(h) <- f;
  h

let take_oneshot t f =
  let h =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else begin
      let h = new_slot t in
      t.oneshot.(h) <- true;
      h
    end
  in
  t.cbs.(h) <- f;
  h

let release t h =
  t.cbs.(h) <- ignore;
  if t.nfree = Array.length t.free then begin
    let free = Array.make (2 * t.nfree) 0 in
    Array.blit t.free 0 free 0 t.nfree;
    t.free <- free
  end;
  t.free.(t.nfree) <- h;
  t.nfree <- t.nfree + 1

let[@inline] key t h =
  let s = t.next_seq in
  if s > max_seq then failwith "Engine: sequence numbers exhausted";
  t.next_seq <- s + 1;
  (s lsl handle_bits) lor h

(* --- scheduling ------------------------------------------------------ *)

(* One comparison rejects both the past and NaN, which compares false
   with everything and would otherwise be filed into the heap. *)
let[@inline] in_range t at = at >= t.clock.now -. schedule_epsilon

let[@inline never] bad_time t at =
  invalid_arg
    (if Float.is_nan at then "Engine.schedule: time is NaN"
     else Printf.sprintf "Engine.schedule: time %.9f is before now %.9f" at t.clock.now)

(* remy-lint: hot *)
let[@inline] schedule_handle t at h =
  if not (in_range t at) then bad_time t at;
  let k = key t h in
  let i = slot t in
  t.times.(i) <- Float.max at t.clock.now;
  t.keys.(i) <- k;
  settle t i

(* remy-lint: hot *)
let[@inline] schedule_handle_in t dt h =
  let at = t.clock.now +. dt in
  if not (in_range t at) then bad_time t at;
  let k = key t h in
  let i = slot t in
  (* [Float.max at now] without its sign-bit calls: the two differ only
     on a -0. time, and [now +. dt] is never -0. *)
  let now = t.clock.now in
  t.times.(i) <- (if at < now then now else at);
  t.keys.(i) <- k;
  settle t i

let schedule t at f =
  (* Checked before a slot is taken, so a rejected time leaks none. *)
  if not (in_range t at) then bad_time t at;
  schedule_handle t at (take_oneshot t f)

let schedule_in t dt f = schedule t (t.clock.now +. dt) f

(* remy-lint: hot *)
let[@inline] file t (dues : float array) (keys : int array) j =
  let i = slot t in
  t.times.(i) <- dues.(j);
  t.keys.(i) <- keys.(j);
  settle t i

(* --- running --------------------------------------------------------- *)

(* Per event the drain reads the root, stores its time in the clock
   (unboxed, no write barrier) and calls; the callback's first push (a
   delay line filing its next head, a link starting its next
   transmission) lands in the root slot.  The event tally accumulates in
   an argument register, flushed to the atomic counter once per run. *)

(* remy-lint: hot *)
let rec drain t ~until fired =
  if t.size = 0 then fired
  else
    let at = t.times.(0) in
    if at > until then fired
    else begin
      let h = t.keys.(0) land handle_mask in
      let f = t.cbs.(h) in
      if t.oneshot.(h) then release t h;
      t.clock.now <- at;
      t.live_root <- true;
      f ();
      if t.live_root then pop_root t;
      drain t ~until (fired + 1)
    end

let run t ~until =
  if t.live_root then pop_root t;
  let fired = drain t ~until 0 in
  Remy_obs.Counters.add Remy_obs.Counters.events_run fired;
  t.clock.now <- Float.max t.clock.now until

let pending t = if t.live_root then t.size - 1 else t.size
