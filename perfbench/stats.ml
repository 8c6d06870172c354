(* Order statistics over timing samples. *)

(* linear interpolation between closest ranks, as numpy's default *)
let quantile xs q =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. (pos -. float_of_int lo))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0.0 xs

let geomean = function
  | [] -> nan
  | xs -> exp (sum (List.map log xs) /. float_of_int (List.length xs))
