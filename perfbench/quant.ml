(* Order statistics for the benchmark's timings. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match xs with
  | [] -> invalid_arg "Quant.median: no samples"
  | _ ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Percentiles are given in basis points (9900 = p99) so that the rank
   arithmetic stays exact in integers: [0.99 *. 1000.] is not 990. *)
let rank ~n ~bp = max 1 (((bp * n) + 9999) / 10000)

(* Nearest-rank percentile: the smallest sample with at least [bp]/100 %
   of the samples at or below it. *)
let percentile xs ~bp =
  match xs with
  | [] -> invalid_arg "Quant.percentile: no samples"
  | _ ->
    let a = sorted xs in
    a.(min (Array.length a) (rank ~n:(Array.length a) ~bp) - 1)

(* Samples strictly above the nearest-rank percentile. *)
let beyond ~n ~bp = n - rank ~n ~bp

type tail = { bp : int; value : float; samples : int }

let tail_candidates = [ 9999; 9990; 9900; 9500; 9000; 5000 ]

(* The highest percentile that still has at least ten samples beyond it,
   with the sample count; [None] below twenty samples. *)
let tail xs =
  let n = List.length xs in
  match List.find_opt (fun bp -> beyond ~n ~bp >= 10) tail_candidates with
  | None -> None
  | Some bp -> Some { bp; value = percentile xs ~bp; samples = n }

let pct_name bp =
  if bp mod 100 = 0 then Printf.sprintf "p%d" (bp / 100)
  else Printf.sprintf "p%g" (float_of_int bp /. 100.)
