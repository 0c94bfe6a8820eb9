(* Order statistics over measured samples. Every percentile in the
   benchmark is nearest-rank on the sorted samples, so a reported value
   is always one that was actually measured. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [p] in [0, 100]; 0 on no samples. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50.0 xs

(* Samples strictly above the nearest-rank [p]th percentile's rank: how
   many measurements the tail figure stands on. *)
let beyond p n = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))

let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = if xs = [] then 0.0 else sum xs /. float_of_int (List.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b
