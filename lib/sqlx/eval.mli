(** Scalar expression evaluation.

    Compiles {!Ast.expr} trees, once per statement, into functions over
    rows, so genomic operators registered by the adapter are callable in
    any expression position (paper section 6.3). Every column reference
    is resolved at compile time against a {!scope}, the shape of the rows
    the expression will read, and becomes a read of one slot of the row:
    evaluating a row does no name work. A reference that does not resolve
    compiles to a function that returns the resolution error, so an error
    still surfaces only when, and in the order that, rows are evaluated.
    Aggregates are the executor's business and are rejected here unless
    the caller maps them to slots. *)

module D := Genalg_storage.Dtype

type binding = {
  alias : string;
  schema : Genalg_storage.Schema.t;
  offset : int;  (** slot of the schema's first column in the row *)
}

type scope = binding list
(** The bindings a row holds, in binding order: a row is one flat
    array, and binding [b]'s column [i] is slot [b.offset + i]. *)

val scope : (string * Genalg_storage.Schema.t) list -> scope
(** Bindings laid out one after the other from slot 0. *)

val width : scope -> int
(** Slots a row of the scope holds. *)

val resolve :
  scope -> string option -> string ->
  (int * Genalg_storage.Schema.column, string) result
(** Resolve a (qualifier, column) reference to its slot, case-
    insensitively. Errors: ["unknown table alias q"], ["no column x in
    q"], ["unknown column x"], ["ambiguous column x"]. A qualifier names
    the first binding with that alias. In the empty scope of a constant
    expression (INSERT VALUES), every reference is an unknown column. *)

type compiled = D.value array -> (D.value, string) result

val compile :
  ?aggregate:(Ast.expr -> int option) ->
  Genalg_storage.Udt.t -> scope -> Ast.expr -> compiled
(** Compile against a scope and a UDF registry. [aggregate] maps an
    aggregate call ([count( * )], [sum(x)], ...) to the slot holding its
    value; without a slot, the call evaluates to the error ["aggregate f
    outside an aggregate context"]. Function names are matched against
    the built-ins once; UDFs are resolved per call by their argument
    types. Compiled functions hold no mutable state, so parallel
    partitions may share them. *)

val compile_predicate :
  Genalg_storage.Udt.t -> scope -> Ast.expr ->
  D.value array -> (bool, string) result
(** Evaluate to a boolean; [Null] counts as false (SQL semantics). *)

val like_match : pattern:string -> string -> bool
(** SQL LIKE: [%] any run, [_] any one character; case-sensitive. *)

val builtin_functions : string list
(** Scalar built-ins always available: upper, lower, strlen, abs, round,
    coalesce, substr. *)
