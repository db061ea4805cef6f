(** Scatter-gather decomposition of SELECT statements for the sharded
    warehouse ([lib/shard]).

    A coordinator holding N hash-partitioned shards answers a SELECT by
    rewriting it into a {e shard select} that every shard runs locally,
    then merging the gathered rows so the final answer is byte-identical
    to running the original statement on the unpartitioned database
    ([docs/SHARDING.md] has the full argument):

    - {b Plain} (no grouping): each shard projects the original items,
      the ORDER BY key expressions, and the hidden insertion-order column
      [__grid]; the coordinator restores the global scan order by sorting
      on [__grid] and finishes through the executor's tail
      ({!Exec.order_and_limit}): the stable ORDER BY, then LIMIT.
    - {b Grouped}: each shard computes the {!Agg.partial_items} of the
      statement's aggregate calls per group, plus [min(__grid)]. The
      coordinator unifies groups across shards through the executor's
      key map ({!Exec.Group_keys}), feeds the partials into the same
      accumulators the executor uses ({!Agg.feed_partials}), orders
      groups by first global occurrence, and finishes them through the
      executor's own tail ({!Exec.finish_groups}).

    Queries the rewrite cannot reproduce exactly — joins, [SELECT *] with
    grouping, nested aggregates, range predicates over indexed columns
    (whose single-node plan may emit in key order rather than scan
    order) — come back as {!Not_shardable} with a reason; float SUM or
    AVG partials from several shards and an integer sum out of range
    make {!merge_grouped} return [Error]. Either way the cluster answers
    from its coordinator mirror, which {e is} the single-node database,
    so the fallback is trivially identical. *)

module D := Genalg_storage.Dtype

val grid_col : string
(** ["__grid"] — the hidden global-insertion-order column every shard
    table carries. User schemas may not use the name. *)

type plain = {
  p_shard : Ast.select;     (** what each shard runs *)
  p_columns : string list;  (** output column names *)
  p_items : int;            (** projection item count (prefix of a row) *)
  p_order : bool list;      (** ascending flag per ORDER BY key *)
  p_limit : int option;
}

type grouped = {
  g_shard : Ast.select;
  g_columns : string list;
  g_nkeys : int;            (** group-key columns (prefix of a row) *)
  g_aggs : Agg.t;           (** the statement's aggregate calls; their
                                {!Agg.partial_items} follow the keys *)
  g_items : (Ast.expr * string option) list;
  g_having : Ast.expr option;
  g_order : Ast.order_item list;
      (** items, HAVING and ORDER BY keys with every subtree equal to
          the i-th group key replaced by the column reference [i] *)
  g_limit : int option;
}

type t =
  | Plain of plain
  | Grouped of grouped
  | Not_shardable of string  (** reason, surfaced by EXPLAIN *)

val decompose :
  star_columns:(unit -> (string list, string) result) ->
  has_index:(string -> bool) ->
  Ast.select -> t
(** [star_columns] resolves [SELECT *] to the table's column names (an
    [Error] means the coordinator cannot see the table either — the
    caller falls back so the canonical error message surfaces).
    [has_index] reports whether a column of the FROM table carries a
    B-tree index — used by the key-order guard. *)

val merge_plain :
  plain -> D.value array list -> Exec.result_set
(** Merge gathered shard rows (each [items @ order-keys @ grid]).
    Never fails: all row-level evaluation already happened shard-side. *)

val merge_grouped :
  udts:Genalg_storage.Udt.t ->
  grouped -> D.value array list -> (Exec.result_set, string) result
(** Merge gathered per-shard group rows (each
    [keys @ partials @ min-grid]) and finish the query at the
    coordinator. Errors carry the executor's message for the same
    failure (e.g. ["HAVING evaluated to 3"], ["integer overflow in
    SUM"]), or refuse float partials ({!Agg.feed_partials}). *)
