(** Column types and runtime values of the Unifying Database's storage
    engine.

    The engine knows the usual scalar types plus {!Opaque} values — byte
    blobs of a named user-defined type whose "internal and mostly complex
    structure is unknown to the DBMS" (paper section 6.2). Genomic data
    types enter the database exclusively as opaque attribute values through
    the adapter. *)

type t =
  | TBool
  | TInt
  | TFloat
  | TString
  | TOpaque of string  (** UDT name, e.g. ["dna"] *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Opaque of string * bytes  (** UDT name and its packed payload *)

val type_of_value : value -> t option
(** [None] for [Null] (which belongs to every type). *)

val conforms : t -> value -> bool
(** Whether a value may be stored in a column of the type ([Null] always
    may; [Int] also conforms to [TFloat]). *)

val to_string : t -> string
val of_string : string -> t option

val value_to_display : value -> string
(** Rendering for result tables; opaque payloads print as
    [<udt:NN bytes>]. *)

val equal_value : value -> value -> bool
val compare_value : value -> value -> int
(** Total order used by indexes and ORDER BY: [Null] first, then by type;
    numeric values compare numerically across [Int]/[Float]. *)

module Value_map : Map.S with type key = value
(** Persistent maps ordered by {!compare_value}; a column index is one. *)

val encode_value : Buffer.t -> value -> unit
(** Append a self-describing binary encoding. *)

val read_value : Byte_reader.t -> value
(** Read one value written by {!encode_value}. *)

val encode_row : value array -> bytes

val read_row : Byte_reader.t -> value array
(** Read one row written by {!encode_row}; bytes after it stay unread. *)

val decode_row : bytes -> (value array, string) result
(** {!read_row} over a whole buffer; corrupt input is an [Error]. *)

val pp : Format.formatter -> t -> unit
val pp_value : Format.formatter -> value -> unit
