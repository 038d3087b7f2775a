(* Order statistics and span arithmetic of the benchmark.

   [quartiles] follows Python's [statistics.quantiles(data, n=4)]
   (the default "exclusive" method), so that the spread this benchmark
   prints is the spread an outside check computes from the same
   values. *)

let sorted (xs : float list) = Array.of_list (List.sort Float.compare xs)

let median (xs : float list) =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The three cut points of statistics.quantiles(xs, n=4). *)
let quartiles (xs : float list) =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (cut 1, cut 2, cut 3)

(* Interquartile distance as a share of the median. *)
let iqr_share xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. median xs

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it.  Returns the value and how many samples
   lie beyond its rank. *)
let percentile (p : float) (xs : float list) =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, 0)
  else
    let rank = max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float_of_int n -. 1e-9)))) in
    (a.(rank - 1), n - rank)

(* The highest of p90, p99 and p99.9 that has at least 10 samples
   beyond it, or [None] when even p90 has fewer. *)
let tail_choice (xs : float list) =
  List.fold_left
    (fun acc p -> if snd (percentile p xs) >= 10 then Some p else acc)
    None [ 90.; 99.; 99.9 ]

(* A span as the traced run records it: times in ns; [parent] is -1 for
   the root of an operation. *)
type span = { id : int; name : string; start : int; stop : int; parent : int; op : int }

(* Self time of every span: its duration minus the part of its interval
   its children cover (children of one span never overlap: the traced
   run is single-threaded).  Result indexed by span id; ids are dense
   from 0. *)
let self_times (spans : span array) =
  let self = Array.map (fun s -> s.stop - s.start) spans in
  Array.iter
    (fun c ->
      if c.parent >= 0 then begin
        let p = spans.(c.parent) in
        let covered = max 0 (min p.stop c.stop - max p.start c.start) in
        self.(c.parent) <- self.(c.parent) - covered
      end)
    spans;
  self

(* Per operation, the summed self time (ns) of the spans named [name];
   operations without such a span are absent. *)
let self_by_op (spans : span array) (self : int array) name =
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun i s ->
      if s.name = name then
        Hashtbl.replace tbl s.op (self.(i) + Option.value (Hashtbl.find_opt tbl s.op) ~default:0))
    spans;
  Hashtbl.fold (fun op v acc -> (op, v) :: acc) tbl [] |> List.sort compare
