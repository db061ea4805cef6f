(** Tables: a schema, a heap file, and optional secondary indexes:
    column indexes (persistent ordered maps from key to rids) and
    genomic k-mer indexes.

    Stored rows are immutable. {!get}, {!scan} and {!fold} hand out the
    stored array itself, shared with the table and with every {!share}d
    handle: callers must never mutate a returned row. *)

type t

val create : name:string -> Schema.t -> t

val name : t -> string
val schema : t -> Schema.t

val share : t -> t
(** A second handle on the same heap, column indexes and genomic
    indexes, in O(1). Both handles are marked shared; the first row
    write through either ({!insert}, {!delete}, {!update}) first copies
    that handle's heap spine, one pointer per row slot, so neither
    handle ever observes the other's writes. The indexes are persistent
    values that each write replaces in its own handle, so they are
    never copied. Statistics, pending genomic specs and version counters
    carry over. *)

val insert : t -> Dtype.value array -> (Heap.rid, string) result
(** Validates against the schema, stores a copy of the row, and
    maintains every index. *)

val insert_exn : t -> Dtype.value array -> Heap.rid

val get : t -> Heap.rid -> Dtype.value array option
(** The stored row (shared; do not mutate). *)

val delete : t -> Heap.rid -> bool

val update : t -> Heap.rid -> Dtype.value array -> (Heap.rid, string) result
(** Replaces the row in place with a copy of the new one; the rid never
    changes. *)

val scan : t -> (Heap.rid -> Dtype.value array -> unit) -> unit
(** Full scan in rid order. Rows are shared; do not mutate. *)

val fold : t -> init:'a -> f:('a -> Heap.rid -> Dtype.value array -> 'a) -> 'a

val row_count : t -> int

(** {1 Version counters — cache-coherence tokens}

    Every cache above the storage engine validates entries against these
    monotonic counters instead of trusting write paths to call back, so
    invalidation is correct no matter who wrote (sqlx, the ETL loader, or
    direct [Table] calls). See [docs/CACHING.md]. *)

val data_version : t -> int
(** Bumped by every successful {!insert}, {!delete}, {!update}. *)

val schema_version : t -> int
(** Bumped by planning-relevant changes: {!create_index},
    {!create_genomic_index}, {!analyze}. *)

val create_index : t -> column:string -> (unit, string) result
(** Build an index over an existing column (backfilled from the heap).
    Fails for unknown columns or when an index already exists. *)

val has_index : t -> column:string -> bool
val indexed_columns : t -> string list

val index_lookup : t -> column:string -> Dtype.value -> Heap.rid list option
(** [None] when the column has no index; [Some rids] (possibly empty)
    otherwise. *)

val index_range :
  t -> column:string ->
  ?lo:Dtype.value -> ?hi:Dtype.value ->
  ?lo_inclusive:bool -> ?hi_inclusive:bool ->
  unit -> Heap.rid list option

(** {1 Statistics — paper section 6.5's optimizer inputs} *)

type column_stats = {
  rows : int;           (** live rows when analyzed *)
  distinct : int;       (** distinct non-null values *)
  nulls : int;
  min_value : Dtype.value option;
      (** smallest non-null value; [None] when the column is all-null or
          opaque (UDT payloads have no engine order) *)
  max_value : Dtype.value option;
  histogram : histogram option;
      (** equi-depth histogram; [None] for all-null or opaque columns *)
}

and histogram = {
  bounds : Dtype.value array;
      (** ascending inclusive upper bounds, one per bucket; each bound is
          the last value of its bucket so duplicates never straddle *)
  counts : int array;   (** rows per bucket; sums to [rows - nulls] *)
}

val analyze : t -> unit
(** Scan the table and cache per-column statistics (row count, NDV,
    nulls, min/max, equi-depth histograms for scalar columns).
    Statistics are a snapshot: they go stale under writes until the next
    [analyze] (the usual DBMS contract). Bumps {!schema_version}. *)

val column_stats : t -> column:string -> column_stats option
(** [None] before {!analyze} or for unknown columns. *)

val has_stats : t -> bool

val stats_snapshot : t -> (string * column_stats) list
(** All per-column statistics sorted by column name; [[]] before
    {!analyze}. Used by image persistence. *)

val set_stats : t -> (string * column_stats) list -> unit
(** Install statistics wholesale (image load); [[]] is a no-op.
    Bumps {!schema_version}. *)

(** {1 Genomic (substring) indexes — paper section 6.5}

    A genomic index over an opaque column accelerates containment
    predicates ([contains(seq, 'PATTERN')]) through per-record k-mer
    postings with authoritative verification. The column's UDT must
    provide {!Udt.search_support}. *)

val create_genomic_index :
  ?k:int -> t -> column:string -> registry:Udt.t -> (unit, string) result
(** Build (and backfill) a genomic index. Fails for unknown columns,
    non-opaque columns, types without search support, or duplicates. *)

val has_genomic_index : t -> column:string -> bool

val genomic_specs : t -> (string * int) list
(** Every genomic index as a [(column, k)] spec — live indexes plus any
    specs restored from an image that still await rebuilding. Sorted;
    this is what image saves persist. *)

val set_pending_genomic : t -> (string * int) list -> unit
(** Stash [(column, k)] specs read from an image. The index itself is
    not built — backfilling needs a UDT registry — until
    {!rebuild_genomic_indexes} runs. *)

val rebuild_genomic_indexes : t -> registry:Udt.t -> unit
(** Build every pending genomic spec against [registry] (the adapter
    calls this when it attaches). Specs whose UDT is still unregistered
    stay pending; successfully built or already-live specs are
    cleared. *)

val genomic_k : t -> column:string -> int option
(** The k-mer width of the column's genomic index, when one exists. The
    planner needs it to derive the safe seed length for [resembles]. *)

val genomic_mean_len : t -> column:string -> float option
(** Mean length of the texts indexed by the column's genomic index;
    [None] without an index or when it is empty. Feeds the planner's
    candidate-fraction estimates for genomic access paths. *)

val genomic_search :
  t -> column:string -> pattern:string ->
  [ `No_index | `Unsupported_pattern | `Hits of Heap.rid list ]
(** Verified rids of rows whose column contains [pattern].
    [`Unsupported_pattern] means the index exists but cannot serve this
    pattern (shorter than k, or ambiguous first k-mer) — fall back to a
    scan. *)

val genomic_seed :
  t -> column:string -> pattern:string -> min_len:int ->
  [ `No_index | `Unsupported_pattern | `Hits of Heap.rid list ]
(** Unverified candidate rids for similarity ([resembles]) predicates:
    rows sharing at least one k-mer with [pattern], plus every
    always-candidate and every row whose indexed text is shorter than
    [min_len]. The caller must verify each candidate with the real
    predicate; completeness holds only under the planner's similarity
    bound (see docs/OPTIMIZER.md). [`Unsupported_pattern] when [pattern]
    is shorter than k or not pure A/C/G/T. *)
