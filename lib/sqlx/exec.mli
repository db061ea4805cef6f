(** Query execution against the Unifying Database.

    Materializing executor over {!Plan} plans: index or full scans,
    pushed-down filters, nested-loop joins with early join-filter
    application, grouping/aggregation, HAVING, ORDER BY, LIMIT. All reads
    and writes are permission-checked through {!Genalg_storage.Database}
    with the calling actor.

    Observability: every SELECT increments the [sqlx.queries] counter and
    runs under an [sqlx.select] span; each table access runs under an
    [sqlx.scan] span carrying a [table] attribute, and result cardinality
    feeds [sqlx.rows_out]. Execution always assembles a per-operator
    {!op_profile} tree — cheap enough to build unconditionally — which
    {!explain} renders for [EXPLAIN ANALYZE]. *)

module D := Genalg_storage.Dtype

type result_set = {
  columns : string list;
  rows : D.value array list;
}

type outcome =
  | Rows of result_set
  | Affected of int   (** INSERT / DELETE *)
  | Executed          (** DDL *)

type op_profile = {
  op : string;            (** operator label, e.g. ["Scan genes via full scan"] *)
  actual_rows : int;      (** rows the operator produced *)
  est_rows : int option;
      (** the planner's cardinality estimate for this operator, on
          measured or default statistics; [None] for [optimize:false]
          plans and shaping operators *)
  elapsed_s : float;      (** wall-clock seconds, inclusive of children *)
  children : op_profile list;
}
(** One node of an EXPLAIN ANALYZE operator tree. The root is always a
    [Select] node whose [actual_rows] equals the result-set cardinality. *)

val run_select :
  ?optimize:bool ->
  Genalg_storage.Database.t -> actor:string -> Ast.select ->
  (result_set, string) result

val run_select_profiled :
  ?optimize:bool ->
  Genalg_storage.Database.t -> actor:string -> Ast.select ->
  (result_set * op_profile, string) result
(** Like {!run_select} but also returns the per-operator profile tree.
    Profiling is always on — it adds a handful of clock reads per query,
    not per row. *)

val render_profile : op_profile -> string list
(** Render a profile tree as indented lines,
    ["Select  (rows=3, time=1.204 ms)"] style; operators with a planner
    estimate render ["(rows=3, est~5, time=1.204 ms)"]. *)

val explain :
  ?optimize:bool ->
  Genalg_storage.Database.t -> actor:string -> analyze:bool -> Ast.select ->
  (result_set, string) result
(** [EXPLAIN] ([analyze:false]) renders the access plan without executing;
    [EXPLAIN ANALYZE] executes the SELECT and renders the operator tree.
    Either way the result is a single-column [QUERY PLAN] result set. *)

val run :
  ?optimize:bool ->
  Genalg_storage.Database.t -> actor:string -> Ast.stmt ->
  (outcome, string) result
(** DDL and INSERTs target the actor's own space, except for the loader
    actor, whose tables live in the public space. *)

val query :
  ?optimize:bool ->
  Genalg_storage.Database.t -> actor:string -> string ->
  (outcome, string) result
(** Parse then {!run}. *)

(** {1 Query tail}

    What a SELECT does after its rows or groups exist: HAVING, the
    per-group projection and ORDER BY keys, the stable sort and LIMIT.
    The executor and the scatter merge ({!Scatter}) both finish through
    these functions, so a sharded answer, and the error it surfaces, is
    the single-node one by construction. *)

module Group_keys : Map.S with type key = D.value list
(** GROUP BY keys: two keys are one group when [D.compare_value] finds
    every pair of values equal, so NULLs form one group and [Int 1]
    meets [Float 1.0]. *)

type keyed_row = D.value array * (D.value * bool) list
(** An output row with its ORDER BY key values and ascending flags. *)

val finish_groups :
  Agg.bound ->
  items:(Ast.expr * string option) list ->
  having:Ast.expr option ->
  order_by:Ast.order_item list ->
  Agg.group list -> (keyed_row list, string) result
(** Compiles HAVING, the projection and the ORDER BY keys once with
    {!Agg.compile}, then per group in order evaluates HAVING (a
    non-boolean, non-NULL result is the error ["HAVING evaluated to
    <v>"]), the projection and the keys; the first error wins. A group
    that {!Agg.lacks_row} gives no output row. *)

val order_and_limit :
  ?on_sorted:(unit -> unit) -> limit:int option -> keyed_row list ->
  D.value array list
(** Stable sort on the keys ([D.compare_value], descending keys
    negated) when rows carry any, then LIMIT. [on_sorted] runs between
    the two, for profile timestamps. *)

(** {1 Result cache}

    {!run} and {!query} serve read-only SELECTs from a bounded LRU
    ([cache.result], 128 entries, 4 MiB) that each database owns: it
    starts empty in every {!Genalg_storage.Database.create}, [clone] and
    [load], and goes away with its database. The key is (actor,
    optimize, SELECT ast). Entries are validated on lookup against the
    catalog version and the data/schema versions of every touched table,
    so a stale result is never served, whatever path wrote; a miss also
    drops every stale entry before storing its result. Full story in
    [docs/CACHING.md].

    {!run_select}, {!run_select_profiled} and {!explain} never touch the
    cache: they always plan and execute. A cached result set is shared —
    treat returned rows as read-only (the engine never mutates them). *)

val render : Genalg_storage.Database.t -> result_set -> string
(** ASCII table with UDT-aware value display. *)
