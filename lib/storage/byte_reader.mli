(** A bounds-checked cursor over one buffer: the one reader behind every
    binary decoder (wire frames, database images, the WAL, the cluster
    manifest, UDT payloads and rows).

    Every read checks the bytes it needs against the cursor's end first,
    as [n > end - pos], which a length field near [max_int] cannot wrap.
    A failed read raises an exception private to this module; {!run}
    turns it into an [Error], so a decoder of untrusted bytes written
    with these functions returns a result and never raises. The texts
    are [truncated], [negative length], [implausible count] and
    [trailing bytes], plus whatever the decoder passes to {!fail}. *)

type t

val run : bytes -> (t -> 'a) -> ('a, string) result
(** [run data f] applies [f] to a cursor over all of [data]. Only the
    functions of this module may be called on the cursor, and only while
    [f] runs. *)

val run_string : string -> (t -> 'a) -> ('a, string) result
(** {!run} over a string's bytes, without a copy: the reader never
    writes to its buffer. *)

val fail : string -> 'a
(** Abandon the decode; {!run} returns [Error msg]. *)

val remaining : t -> int
(** Bytes left before the cursor's end. *)

val int64 : t -> int64
(** Eight bytes, little-endian, any value. *)

val int : t -> int
(** A little-endian 64-bit integer that must not be negative. *)

val count : t -> int
(** An {!int} that counts items each taking at least one byte, so it
    cannot exceed {!remaining}; checked before the caller allocates. *)

val char : t -> char

val raw : t -> int -> string
(** The next [n] bytes. *)

val bytes : t -> int -> bytes
(** The next [n] bytes, as a fresh buffer. *)

val string : t -> string
(** A length-prefixed string: an {!int} length, then the bytes. *)

val sub : t -> int -> t
(** A cursor over the next [n] bytes, sharing the buffer; the parent
    moves past them. *)

val crc : t -> int -> int32
(** {!Checksum.sub} of the next [n] bytes, which stay unread. *)

val expect_end : t -> unit
(** Fails with [trailing bytes] unless the cursor is at its end. *)
