(** Abstract syntax of the extended query language.

    A SQL subset whose expressions admit user-defined (genomic) functions
    in every position — SELECT list, WHERE, GROUP BY, ORDER BY — exactly
    the integration surface paper section 6.3 describes. *)

type binop =
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or
  | Add | Sub | Mul | Div
  | Like   (** SQL LIKE with [%] and [_] wildcards *)

type expr =
  | Lit of Genalg_storage.Dtype.value
  | Col of string option * string     (** optional table alias, column *)
  | Fn of string * expr list          (** built-in, aggregate or UDF call *)
  | Not of expr
  | Neg of expr
  | Binop of binop * expr * expr
  | Count_star                        (** the COUNT-star aggregate *)

type order_item = { key : expr; ascending : bool }

type projection =
  | Star
  | Exprs of (expr * string option) list  (** expression, optional AS alias *)

type select = {
  projection : projection;
  from : (string * string) list;      (** (table, alias); alias defaults to table *)
  where : expr option;
  group_by : expr list;
  having : expr option;
  order_by : order_item list;
  limit : int option;
}

type column_def = {
  col_name : string;
  col_type : Genalg_storage.Dtype.t;
  col_nullable : bool;
}

type stmt =
  | Select of select
  | Insert of { table : string; columns : string list; rows : expr list list }
  | Create_table of { table : string; defs : column_def list }
  | Create_index of { table : string; column : string }
  | Create_genomic_index of { table : string; column : string }
      (** a k-mer substring index over an opaque (sequence) column *)
  | Delete of { table : string; where : expr option }
  | Analyze of string  (** collect per-column statistics for a table *)
  | Drop_table of string
  | Explain of { analyze : bool; select : select }
      (** [EXPLAIN SELECT ...] shows the access plan without running it;
          [EXPLAIN ANALYZE SELECT ...] executes the query and reports the
          per-operator tree with row counts and elapsed times *)

val expr_to_string : expr -> string
val stmt_to_string : stmt -> string

val is_aggregate_fn : string -> bool
(** count, sum, avg, min, max (case-insensitive). *)

val contains_aggregate : expr -> bool

val item_name : expr * string option -> string
(** Output column name of a projection item: its alias, else the
    expression's text. *)

val needs_grouping : select -> bool
(** GROUP BY, HAVING or an aggregate in the projection: the SELECT
    answers one row per group rather than one per input row. *)

val conjuncts : expr -> expr list
(** Flatten a tree of ANDs into its conjuncts. *)

val columns_of_expr : expr -> (string option * string) list
(** Column references, in order of first occurrence. *)

val equal_expr : expr -> expr -> bool
