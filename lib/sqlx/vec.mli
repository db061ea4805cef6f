(** Batch-at-a-time (vectorized) scan execution.

    Scans feed the pushed-down filter pipeline columnar chunks of
    {!chunk_rows} rows carrying a selection vector. Within a chunk the
    pipeline runs predicate-major: each stage shrinks the selection
    before the next stage sees it, which preserves left-to-right
    short-circuit semantics per row. Stages the {!classify}r recognizes
    run as word-level kernels on the packed sequence frame (GC content,
    length, substring containment) without decoding; every other stage
    — and every row a kernel cannot decide — goes to the row evaluator,
    so results, including errors and their input-order position, are
    those of evaluating the filters row by row. Every filtered scan
    runs through this pipeline.

    See docs/EXECUTION.md for the model and the kernel catalog. *)

module D = Genalg_storage.Dtype

val chunk_rows : int
(** Rows per columnar chunk (1024). *)

(** {2 Kernel classification} *)

type kind =
  | Gc_cmp of Ast.binop * D.value * bool
      (** [gc_content(col) <cmp> lit]; the bool is [lit_first]. *)
  | Len_cmp of Ast.binop * D.value * bool  (** [length(col) <cmp> lit]. *)
  | Contains of string  (** [contains(col, 'pattern')]. *)

type kernel = {
  k_col : int;  (** resolver token (the executor passes a column index) *)
  k_col_name : string;
  k_udt : string;  (** declared column UDT: dna, rna or proteinseq *)
  k_kind : kind;
}

val kernel_label : kernel -> string
(** ["packed-gc(seq)"], ["packed-len(seq)"] or ["packed-contains(seq)"]. *)

val classify :
  dtype_of:(string option -> string -> (D.t * int) option) ->
  resolves:(string -> D.t list -> bool) ->
  Ast.expr ->
  kernel option
(** Recognize a kernel-servable predicate. [dtype_of qualifier column]
    resolves a column reference against the scan's binding (returning
    the declared dtype and a token stored in [k_col]); [resolves]
    confirms the genomic function is registered for the argument types
    (otherwise the row evaluator's "unknown function" error must
    surface, so no kernel may run). [None] means the stage is decided
    per row by the row evaluator. *)

(** {2 The fused filter pipeline} *)

type stage = {
  st_kernel : (kernel * (D.value array -> bool option)) option;
      (** [None]: row-evaluated stage. The kernel function returns
          [None] for rows it cannot decide (NULL, corrupt frame, wrong
          alphabet), which routes that row to the row evaluator. *)
  st_eval : D.value array -> (bool, string) result;
      (** the row evaluator: the filter compiled once *)
}

val compile :
  dtype_of:(string option -> string -> (D.t * int) option) ->
  resolves:(string -> D.t list -> bool) ->
  predicate:(Ast.expr -> D.value array -> (bool, string) result) ->
  Ast.expr list ->
  stage list
(** One stage per pushed-down filter, in plan order; [predicate]
    compiles a filter for the row evaluator. *)

val kernel_labels : stage list -> string list

type report = {
  batches : int;
  rows_in : int;
  rows_out : int;
  kernel_rows : int;  (** row×stage decisions served by packed kernels *)
  fallback_rows : int;  (** row×stage decisions by the row evaluator *)
  parts : int;  (** degree of parallelism used for the chunks *)
  kernels : string list;
}

val run :
  stages:stage list ->
  D.value array array ->
  (int list * report, string) result
(** Run the pipeline; returns surviving row indices, ascending.
    Equivalent to applying the stage expressions left to right per row
    with short-circuit on false, first-error-in-input-order on error.
    Chunks partition over the {!Genalg_par.Par} pool when the input is
    large enough and jobs > 1; results are jobs-invariant. *)

val report_to_string : report -> string
(** ["[vec batches=4 rows=4000->512 kernels=[packed-gc(seq)] ...]"] —
    the annotation EXPLAIN ANALYZE appends to vectorized scans. *)
