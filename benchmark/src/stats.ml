(* Order statistics for the benchmark: exact nearest-rank percentiles over
   model-cycle samples, Python-compatible quartiles over run-level values,
   and a log-linear histogram for the unbounded host-time span streams. *)

(* Nearest-rank percentile of an ascending array: the smallest sample with
   at least [p] of the samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Samples ranked above the [p] percentile: the evidence behind a tail. *)
let beyond sorted p =
  let n = Array.length sorted in
  n - min n (int_of_float (Float.ceil (p *. float_of_int n)))

let median_float l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles(data, n=4)] (the default "exclusive"
   method), so the spreads printed here match the ones recomputed from
   the raw run logs with Python. Needs at least two values. *)
let quartiles l =
  let a = Array.of_list (List.sort compare l) in
  let ld = Array.length a in
  if ld < 2 then
    let v = if ld = 1 then a.(0) else nan in
    (v, v, v)
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* Log-linear histogram of non-negative ints: exact below 128, then 64
   buckets per octave (under 1.6% relative error), so a percentile over
   millions of host-time samples costs a fixed 30 KB. *)
module Hist = struct
  let sub_bits = 6
  let sub = 1 lsl sub_bits
  let buckets = 64 * sub

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make buckets 0; n = 0 }

  let msb v =
    let rec go v e = if v > 1 then go (v lsr 1) (e + 1) else e in
    go v 0

  let index v =
    if v < 2 * sub then max 0 v
    else
      let e = msb v in
      ((e - sub_bits + 1) * sub) + ((v lsr (e - sub_bits)) land (sub - 1))

  let value idx =
    if idx < 2 * sub then idx
    else
      let e = (idx / sub) + sub_bits - 1 in
      let lo = (sub + (idx mod sub)) lsl (e - sub_bits) in
      lo + ((1 lsl (e - sub_bits)) / 2)

  let add t v =
    let i = index v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1

  let count t = t.n

  let percentile t p =
    if t.n = 0 then 0
    else
      let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int t.n))) in
      let rec go i seen =
        let seen = seen + t.counts.(i) in
        if seen >= rank || i = buckets - 1 then value i else go (i + 1) seen
      in
      go 0 0
end
