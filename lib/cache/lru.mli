(** A generic bounded LRU cache, the shared core behind the sqlx
    result cache and the mediator response cache.

    Bounds: [max_entries] caps the entry count and [max_bytes] caps the sum
    of entry weights (as computed by [weight]). When either bound is
    exceeded the cache evicts from the least-recently-used end.

    An entry whose own weight exceeds [max_bytes] is never admitted
    (counted under [rejections]); admitting it would immediately purge the
    whole cache for a value that cannot be retained anyway.

    Every cache keeps two sets of statistics:
    - always-on internal tallies ({!stats}, {!registry_stats}) used by the
      [CACHE] bench and [genalg stats], aggregated per cache {i name}
      across instances;
    - [Obs] counters [cache.<name>.{hits,misses,evictions,invalidations}],
      gated by [Obs.set_enabled] like every other instrument and listed in
      [docs/OBSERVABILITY.md].

    Keys are compared with structural equality ([Hashtbl.hash] / [(=)]);
    do not use cyclic or functional keys. *)

type ('k, 'v) t

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** capacity-driven removals *)
  invalidations : int;
      (** explicit removals via {!invalidate} / {!invalidate_where},
          including TTL expiries counted by callers *)
  rejections : int;  (** values refused because weight > [max_bytes] *)
}

val create :
  name:string ->
  ?max_entries:int ->
  ?max_bytes:int ->
  ?weight:('k -> 'v -> int) ->
  unit ->
  ('k, 'v) t
(** [create ~name ()] makes an empty cache. [name] selects the
    [cache.<name>.*] instrument family and the {!registry_stats} row.
    [max_entries] defaults to 1024, [max_bytes] to [max_int], [weight] to
    [fun _ _ -> 0]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit refreshes the entry's recency. Counts a hit or miss. *)

val find_validated : ('k, 'v) t -> 'k -> validate:('v -> bool) -> 'v option
(** Like {!find}, but a present entry that fails [validate] is removed and
    counted as one invalidation plus one miss (not a hit) — the lookup
    path for version- or TTL-validated caches. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Lookup without touching recency or statistics. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace, making the entry most-recently-used, then evict
    until the bounds hold. *)

val remove : ('k, 'v) t -> 'k -> bool
(** Detach an entry. Counts nothing — use {!invalidate} when the removal
    is a cache-coherence event. *)

val invalidate : ('k, 'v) t -> 'k -> bool
(** {!remove} counted under [invalidations]. *)

val invalidate_where : ('k, 'v) t -> ('k -> 'v -> bool) -> int
(** Remove every matching entry; returns how many, all counted under
    [invalidations]. *)

val note_invalidation : ('k, 'v) t -> int -> unit
(** Count [n] invalidations that the caller performed by other means
    (e.g. a TTL expiry detected at lookup). *)

val mem : ('k, 'v) t -> 'k -> bool
val length : ('k, 'v) t -> int
val weight_total : ('k, 'v) t -> int
val max_entries : ('k, 'v) t -> int
val max_bytes : ('k, 'v) t -> int

val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
(** Most-recently-used first. Must not mutate the cache. *)

val keys : ('k, 'v) t -> 'k list
(** Most-recently-used first. *)

val stats : ('k, 'v) t -> stats
(** This instance's tallies (always on, independent of [Obs]). *)

val name : ('k, 'v) t -> string

val registry_stats : unit -> (string * stats) list
(** Aggregated tallies per cache name across all instances ever created,
    sorted by name — the backing for [genalg stats]' cache table. *)

val reset_registry_stats : unit -> unit
(** Zero the per-name aggregates (instance tallies are untouched).
    For tests and benches that need a clean measurement window. *)
