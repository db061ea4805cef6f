(** A per-record k-mer posting index over opaque payload text — the
    engine half of the "genomic index structures" of paper section 6.5.

    Each indexed record contributes the k-mers of its canonical index
    text; a containment query looks up the pattern's first k-mer, unions
    in the always-candidate records, and verifies every candidate with
    the type's authoritative matcher. Postings are maintained on insert
    and delete, so results are exact at all times.

    An index is a persistent value: {!add_many}, {!add} and {!remove}
    return a new index and leave their argument unchanged, so any
    number of table versions may hold one without copying it. *)

type t

val create : ?k:int -> Udt.search_support -> t
(** Default k = 8. Raises [Invalid_argument] when k is outside [2, 31]. *)

val k : t -> int

val add_many : t -> (Heap.rid * bytes) list -> t
(** Index records' payloads. The records' k-mers are grouped first, so
    a bulk build updates each distinct k-mer once. *)

val add : t -> Heap.rid -> bytes -> t
(** [add_many] of one record. *)

val remove : t -> Heap.rid -> bytes -> t
(** Drop one record's postings (pass the payload it was indexed with). *)

val candidates : t -> pattern:string -> Heap.rid list option
(** Records that may contain [pattern]: posting hits for its first
    k-mer plus all always-candidates. [None] when the pattern is shorter
    than [k] or its first k-mer contains letters outside A/C/G/T — the
    caller must fall back to a scan. The result is unverified. *)

val seed_candidates : t -> pattern:string -> min_len:int -> Heap.rid list option
(** Similarity-seed candidates: the union of posting hits for {e every}
    k-mer of [pattern], the always-candidates, and every record whose
    index text is shorter than [min_len]. [None] when [pattern] is
    shorter than [k] or contains letters outside A/C/G/T. Unverified;
    complete only under the caller's similarity-threshold bound (see
    docs/OPTIMIZER.md). *)

val search :
  t -> pattern:string -> payload_of:(Heap.rid -> bytes option) -> Heap.rid list option
(** Verified containment matches; [None] when the index cannot serve the
    pattern. Pure-ACGT candidates are verified by exact search
    (Boyer–Moore–Horspool, or a cached suffix array for records of
    ≥ 4096 letters); ambiguous ones through the type's authoritative
    [matches]. Records whose payload can no longer be fetched are
    dropped. The suffix-array cache is shared by every version of the
    index; an entry answers only for the payload, compared by physical
    identity, that it was built from. *)

val mean_len : t -> float option
(** Mean length of the indexed texts, or [None] when the index is empty;
    O(1). Feeds the planner's k-mer candidate-fraction model. *)
