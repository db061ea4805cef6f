(** The genalg serving layer: a Unix-domain-socket server with
    concurrent sessions, snapshot transactions and a group-commit WAL.

    Architecture (full story in [docs/SERVING.md]): a single-threaded
    event loop ([select] over the listen socket and every session)
    interleaves sessions at {e statement} granularity — the statements
    themselves still fan out over the [lib/par] domain pool — so session
    state needs no locks and every interleaving is deterministic to
    test. Transactions get snapshot isolation by copy-on-BEGIN
    ({!Genalg_storage.Database.clone}): reads inside a transaction see
    the database exactly as of BEGIN plus the transaction's own writes;
    COMMIT is first-committer-wins (version-counter conflict check),
    applies the write set to the live database, appends logical redo
    records to the WAL and is acknowledged only after the group flush.

    Durability: the snapshot image on disk is a checkpoint; every commit
    since the last checkpoint is re-playable from [<db>.wal]
    ({!Genalg_storage.Wal}). {!create} replays the log before serving,
    so an acknowledged commit survives a crash. A clean shutdown
    checkpoints (image save + WAL truncate).

    Admission control: session count is capped ([max_sessions], HELLO
    refused with [ADMISSION]); per-query row and time limits refuse
    oversized answers with [LIMIT]; and a per-session
    {!Genalg_resilience.Resilience.Breaker} trips after consecutive
    failing statements, refusing further ones with [ADMISSION] until its
    call-counted cooldown passes — one misbehaving client cannot hog the
    loop.

    Instruments ([docs/OBSERVABILITY.md]): [serve.connections],
    [serve.sessions.{opened,closed}],
    [serve.admission.{rejected,version_rejected,breaker_open}],
    [serve.queries], [serve.query_errors], [serve.query] (histogram),
    [serve.txn.{begin,commit,rollback,conflict}],
    [serve.group_commit.{batches,commits}], [serve.wal.replayed]. *)

type config = {
  socket_path : string;    (** Unix-domain socket to listen on *)
  max_sessions : int;      (** HELLOs beyond this are refused (default 32) *)
  max_rows : int;          (** per-query result cap (default 100_000) *)
  max_query_s : float;     (** per-query wall-clock cap (default 5.0) *)
  breaker_failures : int;  (** consecutive statement failures that trip a
                               session's breaker (default 8) *)
  metrics : bool;          (** enable {!Genalg_obs.Obs} recording so
                               [serve.*] instruments tick (default true) *)
  attach : Genalg_storage.Database.t -> unit;
      (** UDT/UDF registration, applied to the live database and to
          every transaction snapshot (the CLI passes the genomic
          adapter; tests may pass [ignore]) *)
  topology : string;
      (** serving shape announced to v2 clients in the WELCOME:
          ["standalone"] (default), or ["shard I/N"] when this process
          is one shard of a cluster ([genalg serve --shard-id
          --shard-count]) *)
}

val default_config : socket_path:string -> config

type t

val create : config -> db_path:string -> (t, string) result
(** Load the snapshot at [db_path], replay [<db_path>.wal] through the
    SQL executor, open the WAL for appending, and bind the socket. The
    database file must exist ([genalg demo] makes one). *)

val replayed : t -> int
(** Committed statements re-applied from the WAL by {!create}. *)

val db : t -> Genalg_storage.Database.t
(** The live database (tests inspect it between requests). *)

val serve : t -> (unit, string) result
(** Run the event loop until {!stop} or a client's SHUTDOWN request.
    A clean stop checkpoints and removes the socket; a SHUTDOWN with
    [dirty = true] skips the checkpoint (recovery is then WAL replay).
    Re-raises {!Genalg_fault.Fault.Crash_point} from a WAL crash point —
    the simulated process death the recovery tests rely on. *)

val stop : t -> unit
(** Ask the loop to stop after the current iteration (clean shutdown);
    safe to call from another domain. *)

val checkpoint : t -> (unit, string) result
(** Save the snapshot image, persist the epoch state file, and truncate
    the WAL. Called by clean shutdown; exposed for tests. *)

(** {1 Cluster fencing state}

    A server that is one shard of a cluster carries a {e fencing epoch}
    and an {e applied-LSN cursor} (protocol v3, [docs/SHARDING.md]). A
    [Fenced_query] is refused with [FENCED] unless its epoch matches;
    one carrying an LSN at or below the cursor is skipped as already
    applied. Both survive restarts: the cursor rides the WAL as ['M']
    markers between checkpoints, and [<db>.epoch] holds both at clean
    checkpoints and on every [Resync] handshake. *)

val epoch : t -> int
(** The fencing epoch in force (0 until a coordinator resyncs one in). *)

val applied_lsn : t -> int
(** LSN of the last fenced statement durably applied (0 if none). *)

val shard_topology :
  shard_id:int option -> shard_count:int option -> (string, string) result
(** Validate [--shard-id]/[--shard-count] into a WELCOME topology
    string: [Ok "standalone"] when both are absent, [Ok "shard I/N"]
    when consistent, and [Error] for values no coordinator could ever
    address (one flag without the other, [count <= 0], [id < 0],
    [id >= count]). *)
