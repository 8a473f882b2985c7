(* Log-bucketed latency histogram, HDR-style: a fixed preallocated bucket
   array covering [2^min_exp, 2^max_exp) with [subbuckets] geometric
   subdivisions per octave.  Bucket indices come straight from the float's
   bit pattern (exponent bits select the octave, the top mantissa bits the
   subbucket), so the record fast path is a handful of integer ops — no
   [log], no allocation, no atomics.  A histogram is single-writer;
   cross-domain aggregation goes through [merge_into], which is bucketwise
   integer addition and therefore independent of merge order. *)

(* Octaves 2^-30 (~1 ns) .. 2^10 (1024 s): every latency this runtime
   measures, with underflow/overflow buckets catching the rest. *)
let min_exp = -30
let max_exp = 10
let sub_bits = 5
let subbuckets = 1 lsl sub_bits
let octaves = max_exp - min_exp

(* Upper bound on a bucket's relative width: hi/lo - 1 <= 1/subbuckets. *)
let relative_error = 1. /. float_of_int subbuckets

let n_buckets = (octaves * subbuckets) + 2 (* + underflow, overflow *)
let underflow = 0
let overflow = n_buckets - 1

type t = { counts : int array; mutable total : int }

let create () = { counts = Array.make n_buckets 0; total = 0 }

let clear t =
  Array.fill t.counts 0 n_buckets 0;
  t.total <- 0

let count t = t.total

(* Bucket index for a strictly positive finite [v] inside the tracked
   range.  IEEE754 doubles order the (exponent, mantissa) fields
   lexicographically, so the unbiased exponent and top mantissa bits give
   the octave and geometric subbucket directly. *)
let index_of v =
  let bits = Int64.bits_of_float v in
  let e = Int64.to_int (Int64.logand (Int64.shift_right_logical bits 52) 0x7FFL) - 1023 in
  if e < min_exp then underflow
  else if e >= max_exp then overflow
  else begin
    let sub = Int64.to_int (Int64.logand (Int64.shift_right_logical bits 47) 0x1FL) in
    1 + (((e - min_exp) * subbuckets) + sub)
  end

let record t v =
  let i =
    if Float.is_nan v || v <= 0. then underflow
    else if v = Float.infinity then overflow
    else index_of v
  in
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1

let merge_into ~into t =
  let c = into.counts and s = t.counts in
  for i = 0 to n_buckets - 1 do
    c.(i) <- c.(i) + s.(i)
  done;
  into.total <- into.total + t.total

(* Bucket bounds.  Slot 0 underflows to 0; the overflow slot reports the
   top of the tracked range. *)
let bucket_lo i =
  if i = underflow then 0.
  else if i = overflow then Float.ldexp 1. max_exp
  else begin
    let k = i - 1 in
    let e = min_exp + (k / subbuckets) in
    let sub = k mod subbuckets in
    Float.ldexp (1. +. (float_of_int sub /. float_of_int subbuckets)) e
  end

let bucket_hi i = if i >= overflow then Float.ldexp 1. max_exp else bucket_lo (i + 1)

(* Quantile = upper edge of the bucket holding the rank-ceil(q*n) sample,
   so for in-range data: exact <= quantile <= exact * (1 + relative_error)
   with the same rank convention. *)
let quantile t q =
  if t.total = 0 then Float.nan
  else begin
    let q = Float.min 1. (Float.max 0. q) in
    let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int t.total))) in
    let i = ref 0 in
    let cum = ref t.counts.(0) in
    while !cum < rank && !i < n_buckets - 1 do
      incr i;
      cum := !cum + t.counts.(!i)
    done;
    bucket_hi !i
  end

let max_value t =
  if t.total = 0 then Float.nan
  else begin
    let i = ref (n_buckets - 1) in
    while !i > 0 && t.counts.(!i) = 0 do
      decr i
    done;
    bucket_hi !i
  end

type summary = { n : int; p50 : float; p90 : float; p99 : float; p999 : float }

let summarize t =
  {
    n = t.total;
    p50 = quantile t 0.5;
    p90 = quantile t 0.9;
    p99 = quantile t 0.99;
    p999 = quantile t 0.999;
  }

let summary_fields ~prefix t : Record.t =
  let s = summarize t in
  let f k v = (prefix ^ "_" ^ k, Record.Float v) in
  [ (prefix ^ "_count", Record.Int s.n); f "p50" s.p50; f "p90" s.p90; f "p99" s.p99; f "p999" s.p999 ]
