(** Logical planning: predicate pushdown, index selection and
    selectivity-ordered predicate evaluation.

    Section 6.5 of the paper calls for "optimisation rules for genomic
    data, information about the selectivity of genomic predicates, and
    cost estimation of access plans containing genomic operators". The
    model here: every WHERE conjunct gets a per-row evaluation cost and a
    selectivity estimate; single-table conjuncts are pushed to their
    table, equality/range conjuncts over indexed columns become index
    accesses, and residual conjuncts run cheapest-and-most-selective
    first (ascending [cost / (1 - selectivity)]). *)

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
      (** cost-based estimate of rows this scan emits after filters;
          [None] for unanalyzed tables and [optimize:false] plans *)
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

type stats_provider = {
  analyzed : table:string -> bool;
      (** the table has ANALYZE statistics; without them the planner
          keeps the heuristic rules, so plans only change where measured
          statistics exist *)
  row_count : table:string -> int;
  stats_of : table:string -> column:string -> Genalg_storage.Table.column_stats option;
  genomic_k_of : table:string -> column:string -> int option;
  genomic_mean_len_of : table:string -> column:string -> float option;
  is_dna : table:string -> column:string -> bool;
      (** the column's declared type is the DNA UDT — the resembles
          seed bound is only valid for [Scoring.dna_default] *)
}
(** Live statistics the cost-based planner consults; supplied by the
    executor from the storage layer. *)

type catalog = {
  has_index : table:string -> column:string -> bool;
  has_genomic_index : table:string -> column:string -> bool;
  column_exists : table:string -> column:string -> bool;
  equality_selectivity : table:string -> column:string -> float option;
      (** [1 / distinct] from ANALYZE statistics; [None] when the table
          has not been analyzed *)
  column_dtype : table:string -> column:string -> D.t option;
      (** declared dtype of a column, used to classify pushed-down
          filters against the packed scan kernels ({!Vec}) both for
          kernel-aware chain costing and the EXPLAIN [vec [...]]
          annotation *)
}

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

val rank_with : catalog -> table:string -> alias:string -> Ast.expr -> float
(** Like {!rank} but equality predicates over analyzed columns use the
    measured [1 / distinct] selectivity instead of the static default
    (section 6.5: selectivity information for access-plan costing). *)

val make : ?optimize:bool -> ?stats:stats_provider -> catalog -> Ast.select -> t
(** Build a plan. With [optimize:false] (default true), no pushdown
    reordering or index selection happens beyond assigning conjuncts to
    the last table that makes them evaluable, and every join step is a
    nested loop — the naive baseline for the optimizer experiment.

    With [?stats], ANALYZEd tables get cost-based access selection:
    every candidate path (full scan, each usable B-tree conjunct, the
    k-mer contains path, the resembles seed path) is costed with {!Cost}
    over {!Stats} selectivities and the cheapest wins; when every FROM
    table is analyzed, joins are greedily reordered by estimated
    cardinality and the plan carries row estimates. Without [?stats]
    (or for unanalyzed tables) the static rules choose: the first
    usable index conjunct, residual filters by ascending {!rank_with}. *)

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
