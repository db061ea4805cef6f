(* Statistics for the perf bench: nearest-rank percentiles with a guard
   on tail support, medians and quartiles across repeated runs, and the
   regression / unresolved comparison rule used by [--compare]. *)

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* 1-based nearest rank: the smallest sample with at least p% of the
   samples at or below it *)
let rank ~p n = max 1 (min n (int_of_float (Float.ceil (p /. 100. *. float_of_int n))))

let percentile ~p samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  (sorted_copy samples).(rank ~p n - 1)

let min_beyond = 10

let beyond ~p n = n - rank ~p n

(* A tail percentile is only meaningful when enough samples lie beyond
   it; below that the caller gets an error to report, never a number. *)
let tail ~p samples =
  let n = Array.length samples in
  let b = if n = 0 then 0 else beyond ~p n in
  if b < min_beyond then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it, %d samples give %d" p
         min_beyond n b)
  else Ok (percentile ~p samples)

let mean samples =
  let n = Array.length samples in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. samples /. float_of_int n

(* Quartiles as Python's statistics.quantiles(values, n=4) computes them
   (its default "exclusive" method), so the bench's own spread figures
   match any script that re-derives them from the raw values. A single
   value is its own quartiles. *)
let quartiles values =
  let d = sorted_copy values in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Stats.quartiles: no values";
  if ld = 1 then (d.(0), d.(0), d.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
  end

let median values =
  let _, m, _ = quartiles values in
  m

(* interquartile distance as a share of the median *)
let spread values =
  let q1, m, q3 = quartiles values in
  if m = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs m

(* {1 Comparison} *)

type better = Lower | Higher

type verdict =
  | Ok_within_bound of float   (** change's worsening share, within bound *)
  | Regression of float        (** worse by more than the bound *)
  | Unresolved of float        (** run-to-run spread wider than the bound *)
  | Better_every_run           (** spread is wide, but every change run
                                   beats every parent run *)

(* worsening of [b] relative to [a], as a share of [a]; negative when
   [b] is better *)
let worsening ~better a b =
  let d = match better with Lower -> b -. a | Higher -> a -. b in
  if a = 0. then if d > 0. then infinity else if d < 0. then neg_infinity else 0.
  else d /. Float.abs a

let better_than ~better x y = match better with Lower -> x < y | Higher -> x > y

(* The rule of the choosing-metrics guide (section 6.5): a change is no
   worse when its median is within the bound of the parent's; where
   either side's own spread exceeds the bound the pairing is unresolved,
   unless every change run beats every parent run. *)
let compare_runs ~better ~bound ~parent ~change =
  let w = worsening ~better (median parent) (median change) in
  if Float.max (spread parent) (spread change) > bound then
    if Array.for_all (fun c -> Array.for_all (fun p -> better_than ~better c p) parent) change
    then Better_every_run
    else Unresolved w
  else if w > bound then Regression w
  else Ok_within_bound w

let verdict_to_string = function
  | Ok_within_bound w -> Printf.sprintf "ok (%+.1f%%)" (100. *. w)
  | Regression w -> Printf.sprintf "REGRESSION (%+.1f%%)" (100. *. w)
  | Unresolved w -> Printf.sprintf "unresolved (%+.1f%%, spread above bound)" (100. *. w)
  | Better_every_run -> "better on every run"
