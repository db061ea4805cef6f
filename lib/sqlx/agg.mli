(** Aggregates: what COUNT, SUM, AVG, MIN and MAX mean, for the
    executor, which feeds each group's rows, and the scatter merge
    ({!Scatter}), which feeds the shards' partials for the group.

    SUM over integers is exact: a sum outside the int range is the error
    ["integer overflow in SUM"]. Once a [Float] is fed, SUM is the float
    sum of every value in feed order, from [0.]. AVG is SUM / COUNT as a
    [Float]. MIN and MAX keep the first extreme value by
    {!Genalg_storage.Dtype.compare_value}. Over no non-NULL value, all
    but COUNT are NULL. An error (an argument that fails to evaluate, a
    non-numeric value under SUM or AVG) fails its call, not the group:
    the first one in row order surfaces only where the call is
    substituted, so a group HAVING drops raises none. *)

module D := Genalg_storage.Dtype

type t
(** The distinct aggregate calls of one statement. *)

val collect : Ast.select -> (t, string) result
(** The aggregate calls of a statement's items, HAVING and ORDER BY
    keys, deduplicated by {!Ast.equal_expr}, in order of first
    occurrence, then [count( * )], which counts a group's rows, if none
    of them is it. A call with other than one argument is an [Error]. *)

val partial_items : t -> Ast.expr list
(** What a shard computes per group for {!feed_partials}: one column
    per call in call order, two for [avg] (its sum, then its count). *)

type group
(** One group's accumulators, and a way to read its columns. *)

val group : t -> Eval.env -> group
(** Fresh accumulators, a group that saw no rows, reading columns
    through the environment: the group's first row, or in the scatter
    merge its keys. *)

val feed_row : group -> Eval.env -> unit
(** Feed one row. *)

val feed_partials : group -> D.value array -> int -> unit
(** [feed_partials g row pos] feeds one shard's partials for the group,
    laid out as {!partial_items} from column [pos]. A SUM or AVG that
    adds a [Float] partial to another non-NULL partial fails with
    ["float SUM/AVG over partials of several shards"]: float addition
    order would change its bits. *)

val lacks_row : group -> bool
(** The group saw no rows, and the statement reads a column outside
    every aggregate call: there is no row to read it from. *)

val eval : group -> Ast.expr -> (D.value, string) result
(** Evaluate an expression over the group: each aggregate call is its
    finished value, the first failed one in left-to-right order the
    [Error]. *)
