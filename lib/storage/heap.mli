(** Heap files: one growable array of row slots addressed by record ids.
    Rows are decoded value arrays, stored as given and handed out
    without a copy; the caller ({!Table}) owns their immutability. *)

type t

type rid = int
(** A row's slot index. Stable for the row's lifetime: deleted slots are
    never reused and updates replace in place. *)

val create : unit -> t

val copy : t -> t
(** A second heap with its own slot array over the same (immutable)
    rows: one pointer blit of the spine, O(slots), and writes to either
    side stay private to it. *)

val insert : t -> Dtype.value array -> rid
(** Appends a new slot. *)

val get : t -> rid -> Dtype.value array option
(** [None] for deleted or out-of-range rids. *)

val delete : t -> rid -> bool
(** False when the rid was already deleted or out of range. *)

val update : t -> rid -> Dtype.value array -> bool
(** Replace a live row in place; false (and no change) otherwise. *)

val iter : (rid -> Dtype.value array -> unit) -> t -> unit
(** Live rows in rid order. *)

val fold : (rid -> Dtype.value array -> 'a -> 'a) -> t -> 'a -> 'a

val record_count : t -> int
