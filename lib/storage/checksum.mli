(** CRC-32 (IEEE 802.3 polynomial, reflected) over strings and bytes.
    Used by the database snapshot format for torn-write detection and by
    the save journal to identify a complete file image. *)

val string : string -> int32
val bytes : Bytes.t -> int32

val sub : Bytes.t -> pos:int -> len:int -> int32
(** CRC of a slice, without copying. Raises [Invalid_argument] unless
    the slice lies within the buffer. *)
