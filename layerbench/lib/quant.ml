(* Order statistics for the benchmark's reports. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  (* Python's [statistics.quantiles(xs, n=4)] (the "exclusive" method), so
     spreads read the same here as in any script that re-checks them *)
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let spread xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

(* rank of the nearest-rank [p]-th percentile among [n] samples (1-based);
   [p *. n /. 100.] keeps [90 *. 100 /. 100] exact where [0.9 *. 100] is not *)
let rank n p = max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9)))

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(min (n - 1) (rank n p - 1))

let beyond n p = n - rank n p

let ladder = [ 50.0; 90.0; 99.0; 99.9 ]

let tail_percentile n =
  List.fold_left
    (fun acc p -> if beyond n p >= 10 then Some p else acc)
    None ladder

let best_of rounds =
  let longest = List.fold_left (fun acc r -> max acc (List.length r)) 0 rounds in
  let arrays = List.map Array.of_list rounds in
  List.init longest (fun i ->
      List.fold_left
        (fun acc a -> if i < Array.length a then Float.min acc a.(i) else acc)
        infinity arrays)
