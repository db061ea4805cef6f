(** Heap files: an append-friendly sequence of slotted pages addressed by
    record ids. Pages live decoded in memory; there is no page cache. *)

type t

type rid = { page : int; slot : int }
(** A record's physical address. *)

val create : unit -> t

val insert : t -> bytes -> rid
(** Appends into the last page with room (first-fit over the tail), or a
    new page. *)

val get : t -> rid -> bytes option
val delete : t -> rid -> bool

val update : t -> rid -> bytes -> rid
(** In-place when the page can hold it; otherwise delete + reinsert,
    returning the (possibly new) rid. *)

val iter : (rid -> bytes -> unit) -> t -> unit
(** Live records in physical order. *)

val fold : (rid -> bytes -> 'a -> 'a) -> t -> 'a -> 'a

val record_count : t -> int
val page_count : t -> int
