(** Slotted pages.

    Fixed-size byte pages holding variable-length records behind a slot
    directory, the classic heap-file building block. Records are opaque
    byte strings (encoded rows); deletion leaves a tombstone slot and the
    space is reclaimed by {!compact}. *)

type t

val page_size : int
(** 8192 bytes. *)

val create : unit -> t

val insert : t -> bytes -> int option
(** Insert a record, returning its slot number, or [None] when the page
    has insufficient free space. Records longer than the page payload are
    rejected with [Invalid_argument]. *)

val get : t -> int -> bytes option
(** [None] for deleted or out-of-range slots. *)

val delete : t -> int -> bool
(** Tombstone a slot; false when it was already dead or out of range. *)

val update : t -> int -> bytes -> bool
(** Replace a record in place when the new payload fits in this page
    (possibly after compaction); false otherwise. *)

val slot_count : t -> int
(** Slots ever allocated (live + tombstoned). *)

val live_count : t -> int

val free_space : t -> int
(** Bytes available for a further insert (payload + slot entry). *)

val compact : t -> unit
(** Reclaim tombstoned space. Slot numbers of live records are stable. *)

val iter : (int -> bytes -> unit) -> t -> unit
(** Live records in slot order. *)
