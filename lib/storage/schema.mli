(** Relation schemas: ordered, named, typed columns. *)

type column = {
  name : string;
  dtype : Dtype.t;
  nullable : bool;
}

type t

val make : column list -> (t, string) result
(** Column names must be non-empty and distinct (case-insensitive). *)

val make_exn : column list -> t

val columns : t -> column list
val arity : t -> int

val column_index : t -> string -> int option
(** Case-insensitive lookup; allocates nothing but the result. *)

val column : t -> int -> column

val validate_row : t -> Dtype.value array -> (unit, string) result
(** Arity, type conformance and null admissibility. *)

val to_string : t -> string
(** ["(id int, seq dna, len int)"]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
