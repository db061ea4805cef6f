(** Logical planning: predicate pushdown, index selection and
    selectivity-ordered predicate evaluation.

    Section 6.5 of the paper calls for "optimisation rules for genomic
    data, information about the selectivity of genomic predicates, and
    cost estimation of access plans containing genomic operators". The
    model here: every WHERE conjunct gets a per-row evaluation cost and a
    selectivity estimate; single-table conjuncts are pushed to their
    table, every candidate access path is costed with {!Cost} and the
    cheapest wins, and residual conjuncts run cheapest-and-most-selective
    first (ascending [cost / (1 - selectivity)]). One planner serves
    every table: selectivities come from ANALYZE statistics where they
    exist and from {!predicate_selectivity} where they do not. *)

module D := Genalg_storage.Dtype

type access =
  | Full_scan
  | Index_eq of { column : string; key : D.value }
  | Index_range of {
      column : string;
      lo : D.value option;
      hi : D.value option;
      lo_inclusive : bool;
      hi_inclusive : bool;
    }
  | Genomic_contains of { column : string; pattern : string }
      (** serve a [contains(col, 'PATTERN')] conjunct from the column's
          k-mer substring index (paper section 6.5); the executor falls
          back to a scan with the predicate re-applied when the index
          cannot serve the pattern *)
  | Genomic_seed of {
      column : string;
      pattern : string;  (** uppercased, pure ACGT *)
      min_len : int;     (** safe bound from {!Cost.resembles_min_len} *)
      threshold : float;
    }
      (** seed-and-verify path for [resembles(col, dna('P')) >= t]: scan
          only the k-mer seed candidates (plus rows shorter than
          [min_len], which the bound cannot exclude). The resembles
          conjunct is {e not} consumed — it stays in [filters], so a
          fallback scan or a candidate superset never changes results *)

type table_plan = {
  table : string;
  alias : string;
  access : access;
  filters : Ast.expr list;  (** residual predicates, in evaluation order *)
  est_rows : float option;
      (** cost-based estimate of rows this scan emits after filters, on
          measured or default statistics; [None] for [optimize:false]
          plans *)
  vec_kernels : string list;
      (** labels of the packed kernels the vectorized scan expects to
          serve [filters] with (e.g. ["packed-gc(seq)"]); display-only
          — the executor re-classifies against the live schema and
          function registry. Empty when no filter has a packed kernel *)
}

type join_strategy =
  | Nested_loop
  | Hash_join of {
      outer_alias : string;  (** already-bound side, lowercased alias *)
      outer_col : string;    (** probe key column on the bound side *)
      inner_col : string;    (** build key column on the incoming table *)
    }
      (** build a hash table over the incoming table keyed on [inner_col]
          (NULL keys excluded, SQL three-valued [=] semantics), probe it
          with each accumulated row's [outer_alias.outer_col] — chosen
          whenever a join step's conjuncts contain a simple column
          equality across the join frontier *)

type join_step = {
  step_alias : string;           (** lowercased alias of the joined table *)
  strategy : join_strategy;
  step_filters : Ast.expr list;
      (** conjuncts first evaluable at this step (the hash-key equality,
          when consumed by [Hash_join], is removed), evaluation order *)
  step_est : float option;
      (** estimated cumulative cardinality after this step; [None]
          unless every table in the plan has an estimate *)
}

type t = {
  tables : table_plan list;      (** joined left to right, execution order *)
  join_filters : Ast.expr list;  (** all cross-table conjuncts, evaluation order *)
  joins : join_step list;        (** one step per table after the first *)
  tail_filters : Ast.expr list;
      (** conjuncts no step can evaluate (unknown aliases/columns); the
          executor applies them last so the error still surfaces *)
  est_out : float option;        (** estimated output cardinality *)
  output_order : string list;
      (** aliases in the original FROM order. When cost-based join
          reordering permutes [tables], the executor restores bindings to
          this order before projection so [SELECT *] output is stable *)
}

type catalog = {
  has_index : table:string -> column:string -> bool;
  has_genomic_index : table:string -> column:string -> bool;
  column_exists : table:string -> column:string -> bool;
  column_dtype : table:string -> column:string -> D.t option;
      (** declared dtype of a column, used to classify pushed-down
          filters against the packed scan kernels ({!Vec}) both for
          kernel-aware chain costing and the EXPLAIN [vec [...]]
          annotation, and to admit the resembles seed path only on DNA
          columns (its bound holds for [Scoring.dna_default] alone) *)
  analyzed : table:string -> bool;
      (** the table has ANALYZE statistics. Access paths do not depend
          on it; join reordering does: joins are reordered only when
          every FROM table is analyzed, because reordering on default
          statistics would change the row order of unordered joins over
          unanalyzed tables *)
  row_count : table:string -> int;  (** live cardinality *)
  stats_of : table:string -> column:string -> Genalg_storage.Table.column_stats option;
      (** ANALYZE statistics; [None] falls back to
          {!predicate_selectivity} *)
  genomic_k_of : table:string -> column:string -> int option;
  genomic_mean_len_of : table:string -> column:string -> float option;
}
(** What the planner knows about the tables; supplied by the executor
    from the storage layer. *)

val predicate_cost : Ast.expr -> float
(** Estimated per-row evaluation cost (abstract units). Genomic UDF calls
    dominate: alignment-backed operators ≈ 5000, substring search ≈ 200,
    cheap genomic accessors ≈ 50, scalar built-ins ≈ 5, comparisons 1. *)

val predicate_selectivity : Ast.expr -> float
(** Estimated fraction of rows surviving the predicate, in (0, 1].
    Notably: [contains(seq, 'PATTERN')] uses the 4^-|pattern| motif
    probability model, and threshold comparisons over [resembles] are
    highly selective. *)

val rank : Ast.expr -> float
(** [cost / (1 - selectivity)] — ascending rank gives the classic optimal
    ordering of independent predicates. *)

val make : ?optimize:bool -> catalog -> Ast.select -> t
(** Build a plan. With [optimize:false] (default true), no pushdown
    reordering or index selection happens beyond assigning conjuncts to
    the last table that makes them evaluable, and every join step is a
    nested loop — the naive baseline for the optimizer experiment.

    Otherwise every table gets cost-based access selection: each
    candidate path (full scan, each usable B-tree conjunct, the k-mer
    contains path, the resembles seed path) is costed with {!Cost} over
    {!Stats} selectivities, or the static ones for columns without
    statistics, and the cheapest wins; every scan carries a row
    estimate. When every FROM table is analyzed, joins are greedily
    reordered by estimated cardinality (see [catalog.analyzed]). *)

val to_string : ?jobs:int -> t -> string
(** Human-readable plan: one line per table scan (full scans carry the
    planned partition count when [jobs > 1]), one line per join step with
    its strategy ("hash join on l.k = r.k" vs "nested-loop join"), then
    any tail join filters. *)

val strategy_to_string : join_step -> string
(** ["hash join on l.k = r.k"] or ["nested-loop join"] — used for EXPLAIN
    output and join operator labels. *)

val access_to_string : access -> string
(** One-line description of an access path, e.g. ["full scan"] or
    ["index id = 42"] — used for EXPLAIN output and scan labels. *)
