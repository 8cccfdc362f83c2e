(* Order statistics for the benchmark's reports. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let n = 4 and m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta)) /. float_of_int n
  in
  (cut 1, cut 3)

let rank ~level n = int_of_float (Float.ceil (level /. 100.0 *. float_of_int n -. 1e-9))

let percentile ~level xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(max 0 (min (n - 1) (rank ~level n - 1)))

let tail_levels = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let tail_level n = List.find_opt (fun level -> n - rank ~level n >= 10) tail_levels

let tail xs =
  match xs with
  | [] -> None
  | _ -> (
    match tail_level (List.length xs) with
    | Some level -> Some (level, percentile ~level xs)
    | None -> Some (100.0, List.fold_left Float.max neg_infinity xs))
