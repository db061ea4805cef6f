(* Per-column statistics math for the cost-based planner: selectivity
   fractions derived from the ANALYZE catalog (row counts, NDV, nulls,
   min/max, equi-depth histograms) collected by
   [Genalg_storage.Table.analyze]. Every function degrades to [None]
   when the statistics cannot answer, so callers fall back to the
   static selectivities in [Plan]. *)

module D = Genalg_storage.Dtype
module T = Genalg_storage.Table

type column = T.column_stats

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

let null_fraction (c : column) =
  if c.T.rows <= 0 then 0.
  else clamp 0. 1. (float_of_int c.T.nulls /. float_of_int c.T.rows)

(* Fraction of ALL rows matching [col = <literal>]: uniform share of the
   non-null rows across the distinct values. *)
let eq_selectivity (c : column) =
  if c.T.rows <= 0 then None
  else if c.T.distinct <= 0 then Some 0.
  else
    Some
      (clamp 0. 1. ((1. -. null_fraction c) /. float_of_int c.T.distinct))

(* Numeric coordinate for within-bucket interpolation. Strings and
   opaque payloads have no usable metric; their partial buckets count
   half. *)
let numeric = function
  | D.Int i -> Some (float_of_int i)
  | D.Float f -> Some f
  | D.Bool b -> Some (if b then 1. else 0.)
  | D.Null | D.Str _ | D.Opaque _ -> None

let interpolate ~lo ~hi v =
  match numeric lo, numeric hi, numeric v with
  | Some l, Some h, Some x when h > l -> clamp 0. 1. ((x -. l) /. (h -. l))
  | _ -> 0.5

(* Fraction of the NON-NULL values that are <= v, from the histogram:
   whole buckets below v plus an interpolated share of the straddling
   bucket. *)
let hist_fraction_le (c : column) (h : T.histogram) v =
  let nb = Array.length h.T.bounds in
  let total = Array.fold_left ( + ) 0 h.T.counts in
  if nb = 0 || total = 0 then None
  else begin
    let lo_of i = if i = 0 then Option.value c.T.min_value ~default:h.T.bounds.(0) else h.T.bounds.(i - 1) in
    let rec walk i acc =
      if i = nb then acc
      else
        let hi = h.T.bounds.(i) in
        if D.compare_value v hi >= 0 then walk (i + 1) (acc +. float_of_int h.T.counts.(i))
        else if D.compare_value v (lo_of i) < 0 then acc
        else
          acc
          +. (float_of_int h.T.counts.(i) *. interpolate ~lo:(lo_of i) ~hi v)
    in
    Some (clamp 0. 1. (walk 0 0. /. float_of_int total))
  end

(* Non-null fraction <= v without a histogram: linear interpolation over
   [min, max] when the column is numeric. *)
let minmax_fraction_le (c : column) v =
  match c.T.min_value, c.T.max_value with
  | Some lo, Some hi ->
      if D.compare_value v lo < 0 then Some 0.
      else if D.compare_value v hi >= 0 then Some 1.
      else (
        match numeric lo, numeric hi, numeric v with
        | Some l, Some h, Some x when h > l -> Some (clamp 0. 1. ((x -. l) /. (h -. l)))
        | _ -> None)
  | _ -> None

let fraction_le (c : column) v =
  match c.T.histogram with
  | Some h -> (
      match hist_fraction_le c h v with
      | Some _ as r -> r
      | None -> minmax_fraction_le c v)
  | None -> minmax_fraction_le c v

(* Selectivity over ALL rows (nulls never satisfy a comparison) of
   [col <op> <literal>]. Strict bounds shave off one equality share. *)
let cmp_selectivity (c : column) ~op v =
  match fraction_le c v with
  | None -> None
  | Some f_le ->
      let eq_share =
        if c.T.distinct <= 0 then 0. else 1. /. float_of_int c.T.distinct
      in
      let nn = 1. -. null_fraction c in
      let frac =
        match op with
        | `Le -> f_le
        | `Lt -> Float.max 0. (f_le -. eq_share)
        | `Gt -> Float.max 0. (1. -. f_le)
        | `Ge -> Float.min 1. (1. -. f_le +. eq_share)
      in
      Some (clamp 0. 1. (frac *. nn))

(* Estimated rows of [col between lo and hi] style conjunctions; bounds
   are optional so open ranges work. *)
let range_selectivity (c : column) ~lo ~hi =
  let lo_sel =
    match lo with
    | None -> Some 1.
    | Some (v, inclusive) -> cmp_selectivity c ~op:(if inclusive then `Ge else `Gt) v
  in
  let hi_sel =
    match hi with
    | None -> Some 1.
    | Some (v, inclusive) -> cmp_selectivity c ~op:(if inclusive then `Le else `Lt) v
  in
  match lo_sel, hi_sel with
  | Some a, Some b ->
      (* overlap of the two half-ranges within the non-null mass *)
      let nn = 1. -. null_fraction c in
      Some (clamp 0. 1. (Float.max 0. (a +. b -. nn)))
  | _ -> None
