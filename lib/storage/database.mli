(** The Unifying Database: a catalog of tables split into a read-only
    public space and per-user spaces (paper section 5.1), an opaque-UDT
    registry, and snapshot persistence.

    "The schema containing the external data is read-only to facilitate
    maintenance of the warehouse; user-owned entities are updateable by
    their owners … sharing of data between users can be controlled via the
    standard database access control mechanism." Writes to the public
    space are reserved to the ETL loader actor {!loader_actor}; user
    tables are writable by their owner and readable by grantees. *)

type space =
  | Public
  | User of string  (** owner name *)

type t

val create : unit -> t

type cache = ..
(** Per-database state owned by a layer above storage. The sqlx result
    cache extends this type, so each database carries its own cache and
    drops it with the database. *)

val cache : t -> cache option
(** [None] until {!set_cache}; {!create}, {!clone} and {!load} all start
    with [None]. *)

val set_cache : t -> cache -> unit

val catalog_version : t -> int
(** Bumped by {!create_table}, {!drop_table} and new {!grant_read}s —
    anything that can change how a name resolves or who may read it.
    Cache-coherence token (see [docs/CACHING.md]). *)

val loader_actor : string
(** The distinguished actor ("etl") allowed to write the public space. *)

val udts : t -> Udt.t
(** The database's UDT/UDF registry (the adapter populates it). *)

val create_table :
  t -> actor:string -> space:space -> name:string -> Schema.t ->
  (Table.t, string) result
(** Table names are unique within a space, case-insensitive. Creating in
    [Public] requires the loader actor; in [User u], actor [u]. *)

val drop_table : t -> actor:string -> space:space -> name:string -> (unit, string) result

val find_table : t -> space:space -> string -> Table.t option

val resolve : t -> actor:string -> string -> (space * Table.t) option
(** Name resolution for queries: the actor's own space first, then
    public. Only readable tables resolve. *)

val can_read : t -> actor:string -> space -> bool
val can_write : t -> actor:string -> space -> bool

val grant_read : t -> owner:string -> grantee:string -> table:string -> (unit, string) result
(** Share a user table; only its owner may grant. *)

val insert :
  t -> actor:string -> space:space -> table:string -> Dtype.value array ->
  (Heap.rid, string) result
(** Permission-checked insert; [Opaque] values are validated against the
    UDT registry. *)

val clone : t -> t
(** A snapshot that shares every table copy-on-write ({!Table.share}),
    in O(tables): rows, B-trees, genomic indexes, ANALYZE statistics and
    grants carry over, and the UDT registry is shared, so the copy needs
    no adapter attach. The first write to a table through either
    database copies that table for the writer only. Starts with an empty
    {!cache}. Transaction snapshots in the serve layer are made with
    this. *)

val tables : t -> (space * Table.t) list
(** Every table, public space first, then user spaces sorted by owner. *)

val table_count : t -> int

val save : t -> string -> (unit, string) result
(** Snapshot the catalog, all heaps and index definitions to a file.

    Crash-safe: the snapshot body is wrapped in CRC-32-checksummed 8 KiB
    chunks (torn-write detection) and written under a write-ahead intent
    journal ([<path>.journal]) via [<path>.tmp] and an atomic rename. A
    save interrupted at any point — the fault registry exposes crash
    points [storage.save.serialize], [.journal], [.tmp_partial], [.tmp]
    and [.rename] — leaves a file that {!load} restores to either the
    previous or the new snapshot, never a mix. *)

val load : string -> (t, string) result
(** Restore a snapshot; runs {!recover} first, then verifies chunk
    checksums (counter [storage.recovery.checksum_failures] on
    mismatch). Files written by pre-checksum versions (bare [GENALGDB1]
    bodies) still load. B-tree indexes are rebuilt. UDT registrations,
    genomic (substring) indexes and ANALYZE statistics are in-memory
    only — re-attach the adapter and re-issue [CREATE GENOMIC INDEX] /
    [ANALYZE] after loading. *)

(** {1 Crash recovery} *)

type recovery =
  | No_journal      (** clean open: no interrupted save *)
  | Rolled_forward  (** a complete new image in [<path>.tmp] was
                        promoted ([storage.recovery.roll_forward]) *)
  | Rolled_back     (** the interrupted save was discarded; the previous
                        snapshot stands ([storage.recovery.roll_back]) *)
  | Completed       (** the rename had landed; only the journal clear
                        was replayed *)

val recover : string -> recovery
(** Inspect [<path>.journal] and finish or undo an interrupted save.
    Called automatically by {!load}; idempotent. Always clears the
    journal and any leftover tmp file
    ([storage.recovery.journal_cleared]). *)

val recovery_to_string : recovery -> string

val crash_points : string list
(** The fault-injection crash points registered by the save path, in
    protocol order. *)
