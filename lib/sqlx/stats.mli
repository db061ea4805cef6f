(** Selectivity estimation from the ANALYZE statistics catalog.

    Thin, purely functional math over
    {!Genalg_storage.Table.column_stats}: every estimator returns
    [None] when the statistics cannot answer (no stats, non-numeric
    values without a histogram, zero rows), so the planner can fall
    back to its static selectivities. *)

type column = Genalg_storage.Table.column_stats

val null_fraction : column -> float
(** Fraction of rows where the column is NULL, in [0, 1]. *)

val eq_selectivity : column -> float option
(** Fraction of all rows matching [col = <literal>], assuming the
    non-null mass is spread uniformly over the distinct values. *)

val fraction_le : column -> Genalg_storage.Dtype.value -> float option
(** Fraction of the {e non-null} values that are [<= v]: equi-depth
    histogram buckets with within-bucket linear interpolation when the
    type is numeric, falling back to min/max interpolation. *)

val cmp_selectivity :
  column -> op:[ `Lt | `Le | `Gt | `Ge ] -> Genalg_storage.Dtype.value -> float option
(** Fraction of all rows satisfying [col <op> <literal>] (nulls never
    match). Strict bounds shave off one average equality share. *)

val range_selectivity :
  column ->
  lo:(Genalg_storage.Dtype.value * bool) option ->
  hi:(Genalg_storage.Dtype.value * bool) option ->
  float option
(** Selectivity of a (possibly half-open) range; the [bool] marks an
    inclusive bound. [None] bounds are unbounded. *)
