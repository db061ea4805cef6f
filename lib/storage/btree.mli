(** In-memory B-trees keyed by {!Dtype.value}, mapping each key to the
    record ids holding it (secondary indexes; duplicates allowed). The
    classic CLRS structure with minimum degree 16. *)

type t

val create : unit -> t

val copy : t -> t
(** An independent tree with the same postings: writes to either side
    are invisible to the other. *)

val insert : t -> Dtype.value -> Heap.rid -> unit

val remove : t -> Dtype.value -> Heap.rid -> bool
(** Drop one (key, rid) posting; false when absent. The key stays in the
    tree with an empty posting list (lazy deletion). *)

val find : t -> Dtype.value -> Heap.rid list
(** Postings for an exact key, insertion order. *)

val range :
  ?lo:Dtype.value -> ?hi:Dtype.value ->
  ?lo_inclusive:bool -> ?hi_inclusive:bool ->
  t -> (Dtype.value * Heap.rid list) list
(** Keys in [lo, hi] (each bound optional, inclusive by default), in key
    order, with their postings. *)

val iter : (Dtype.value -> Heap.rid list -> unit) -> t -> unit
(** All keys in order (including lazily-emptied ones). *)

val cardinal : t -> int
(** Number of distinct keys with at least one posting. *)

val height : t -> int

val distinct_keys : t -> int
(** Number of keys present in the tree (postings may be empty). *)
