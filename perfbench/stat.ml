(* Order statistics over float samples. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Median; the mean of the two middle values for an even count. *)
let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stat.median: no samples"
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let median_list l = median (Array.of_list l)
let min_list = List.fold_left Float.min Float.infinity

(* The [p]-quantile smoothed over a band of ranks: the mean of the
   samples ranked within [p - half, p + half) (at least one sample).
   Averaging a band's neighbours damps the noise one sample carries
   where the ranks are sparse, as in a tail. *)
let band_quantile a ~p ~half =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Stat.band_quantile: no samples";
  let rank q = max 0 (min (n - 1) (int_of_float (Float.round (q *. float_of_int n)))) in
  let lo = rank (p -. half) in
  let hi = max (lo + 1) (rank (p +. half)) in
  let sum = ref 0. in
  for i = lo to hi - 1 do
    sum := !sum +. s.(i)
  done;
  !sum /. float_of_int (hi - lo)

(* Column-wise minima of equally long rows: each transaction's
   best-of-cycles time when every cycle replays the same stream. *)
let column_mins rows =
  match rows with
  | [] -> invalid_arg "Stat.column_mins: no rows"
  | first :: rest ->
    let m = Array.copy first in
    List.iter (Array.iteri (fun i x -> if x < m.(i) then m.(i) <- x)) rest;
    m
