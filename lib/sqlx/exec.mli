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
      (** the cost-based planner's cardinality estimate for this
          operator; [None] for unanalyzed tables, [optimize:false]
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

(** {1 Statement caches}

    Two process-wide LRUs with fixed bounds back {!run} (full story in
    [docs/CACHING.md]):

    - [cache.plan] — (database id, actor, optimize, SELECT ast) -> plan,
      validated against table schema versions and the catalog version;
    - [cache.result] — same key -> result set for read-only SELECTs
      executed via {!run}/{!query}, validated against table data/schema
      versions, eagerly swept by SQL writes and DDL.

    Validation makes staleness impossible regardless of the write path:
    a hit is only served while every touched table's version counters
    match those recorded at execution. A cached result set is shared —
    treat returned rows as read-only (the engine never mutates them). *)

val invalidate_table : Genalg_storage.Database.t -> table:string -> int
(** Eagerly drop every cached plan/result depending on [table] in this
    database; returns how many entries were dropped (all counted under
    [cache.{plan,result}.invalidations]). *)

val clear_statement_caches : unit -> unit
(** Empty both caches (statistics are kept). For tests/benches. *)

val render : Genalg_storage.Database.t -> result_set -> string
(** ASCII table with UDT-aware value display. *)
