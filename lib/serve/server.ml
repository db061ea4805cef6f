module Db = Genalg_storage.Database
module Table = Genalg_storage.Table
module Wal = Genalg_storage.Wal
module Exec = Genalg_sqlx.Exec
module Ast = Genalg_sqlx.Ast
module Parser = Genalg_sqlx.Parser
module Obs = Genalg_obs.Obs
module Resilience = Genalg_resilience.Resilience
module P = Protocol

let c_connections = Obs.counter "serve.connections"
let c_sessions_opened = Obs.counter "serve.sessions.opened"
let c_sessions_closed = Obs.counter "serve.sessions.closed"
let c_admission_rejected = Obs.counter "serve.admission.rejected"
let c_version_rejected = Obs.counter "serve.admission.version_rejected"
let c_breaker_open = Obs.counter "serve.admission.breaker_open"
let c_queries = Obs.counter "serve.queries"
let c_query_errors = Obs.counter "serve.query_errors"
let c_txn_begin = Obs.counter "serve.txn.begin"
let c_txn_commit = Obs.counter "serve.txn.commit"
let c_txn_rollback = Obs.counter "serve.txn.rollback"
let c_txn_conflict = Obs.counter "serve.txn.conflict"
let c_gc_batches = Obs.counter "serve.group_commit.batches"
let c_gc_commits = Obs.counter "serve.group_commit.commits"
let c_wal_replayed = Obs.counter "serve.wal.replayed"
let c_fenced_rejected = Obs.counter "serve.fenced.rejected"
let c_fenced_skipped = Obs.counter "serve.fenced.skipped"
let c_resyncs = Obs.counter "serve.resyncs"
let h_query = Obs.histogram "serve.query"

type config = {
  socket_path : string;
  max_sessions : int;
  max_rows : int;
  max_query_s : float;
  breaker_failures : int;
  metrics : bool;
  attach : Db.t -> unit;
  topology : string;
      (* serving shape announced in the v2 WELCOME: "standalone", or
         "shard I/N" when this process is one shard of a cluster *)
}

let default_config ~socket_path =
  {
    socket_path;
    max_sessions = 32;
    max_rows = 100_000;
    max_query_s = 5.0;
    breaker_failures = 8;
    metrics = true;
    attach = ignore;
    topology = "standalone";
  }

(* One open transaction: a snapshot clone for reads and validation, the
   recorded write set (statement text, replayed on the live db at
   commit), and the version counters the conflict check compares. *)
type txn = {
  snapshot : Db.t;
  mutable writes : (string * string) list; (* (table, sql) newest first *)
  mutable ddl : bool;                      (* write set contains DDL *)
  begin_versions : (string * (int * int)) list; (* key -> data/schema vsn *)
  begin_catalog : int;
}

type session = {
  fd : Unix.file_descr;
  sid : int;
  framing : P.Framing.t;
  breaker : Resilience.Breaker.t;
  mutable actor : string option; (* None until HELLO *)
  mutable txn : txn option;
}

type t = {
  config : config;
  db_path : string;
  live : Db.t;
  wal : Wal.t;
  listen : Unix.file_descr;
  sessions : (Unix.file_descr, session) Hashtbl.t;
  stopping : bool Atomic.t;
  mutable dirty_stop : bool;
  mutable next_sid : int;
  mutable next_txn : int;
  mutable replayed : int;
  mutable txns_committed : int;
  mutable epoch : int;       (* shard-pair fencing epoch in force *)
  mutable applied_lsn : int; (* last coordinator LSN durably applied *)
}

let replayed t = t.replayed
let db t = t.live
let stop t = Atomic.set t.stopping true
let epoch t = t.epoch
let applied_lsn t = t.applied_lsn

(* ------------------------------------------------------------------ *)
(* Epoch state file: [<db>.epoch] holds the fencing epoch and the
   applied-LSN cursor as of the last resync or clean checkpoint. The
   WAL's 'M' markers carry the cursor between checkpoints, so a dirty
   crash recovers [max (file, markers)]. Losing the file entirely only
   regresses the server to epoch 0 — a fenced write then fails and the
   coordinator resyncs it forward, so the file needs atomicity (tmp +
   rename) but no journal. *)

let epoch_magic = "GENALGEP1"
let epoch_path db_path = db_path ^ ".epoch"

let load_epoch_file db_path =
  let file = epoch_path db_path in
  if not (Sys.file_exists file) then (0, 0)
  else
    match
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error _ -> (0, 0)
    | contents -> (
        try
          Scanf.sscanf contents "%s %d %d" (fun m e l ->
              if m = epoch_magic && e >= 0 && l >= 0 then (e, l) else (0, 0))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> (0, 0))

let save_epoch_file t =
  let file = epoch_path t.db_path in
  let tmp = file ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc "%s %d %d\n" epoch_magic t.epoch t.applied_lsn);
    Genalg_storage.Fsutil.fsync_file tmp;
    Sys.rename tmp file;
    Genalg_storage.Fsutil.fsync_dir (Genalg_storage.Fsutil.parent file)
  with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Statement classification: what a statement touches decides where it
   runs inside a transaction and what the commit-time conflict check
   must validate.                                                      *)

type access =
  | Read                 (* SELECT / EXPLAIN *)
  | Write of string      (* DML / index DDL on an existing table *)
  | Catalog of string    (* CREATE TABLE / DROP TABLE *)

let classify = function
  | Ast.Select _ | Ast.Explain _ -> Read
  | Ast.Insert { table; _ }
  | Ast.Delete { table; _ }
  | Ast.Create_index { table; _ }
  | Ast.Create_genomic_index { table; _ } ->
      Write table
  | Ast.Analyze table -> Write table
  | Ast.Create_table { table; _ } | Ast.Drop_table table -> Catalog table

let space_key = function
  | Db.Public -> "!public"
  | Db.User u -> "user:" ^ String.lowercase_ascii u

let version_key space name = space_key space ^ "/" ^ String.lowercase_ascii name

let all_versions db =
  List.map
    (fun (space, tbl) ->
      ( version_key space (Table.name tbl),
        (Table.data_version tbl, Table.schema_version tbl) ))
    (Db.tables db)

(* ------------------------------------------------------------------ *)

let create config ~db_path =
  match Db.load db_path with
  | Error msg -> Error msg
  | Ok live -> (
      config.attach live;
      if config.metrics then Obs.set_enabled true;
      (* redo: re-apply every committed statement since the last
         checkpoint, in commit order, through the executor *)
      match Wal.replay (Wal.wal_path db_path) with
      | Error msg -> Error ("wal replay: " ^ msg)
      | Ok rp -> (
          let replay_errors = ref 0 in
          List.iter
            (fun (s : Wal.replay_stmt) ->
              match Exec.query live ~actor:s.Wal.rp_actor s.Wal.rp_sql with
              | Ok _ -> ()
              | Error _ -> incr replay_errors)
            rp.Wal.committed;
          Obs.add c_wal_replayed (List.length rp.Wal.committed);
          if !replay_errors > 0 then
            Error
              (Printf.sprintf "wal replay: %d of %d statements failed"
                 !replay_errors
                 (List.length rp.Wal.committed))
          else
            match Wal.open_ (Wal.wal_path db_path) with
            | Error msg -> Error msg
            | Ok wal -> (
                match
                  if Sys.file_exists config.socket_path then
                    Sys.remove config.socket_path;
                  let listen =
                    Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
                  in
                  Unix.bind listen (Unix.ADDR_UNIX config.socket_path);
                  Unix.listen listen 64;
                  listen
                with
                | exception Unix.Unix_error (e, _, _) ->
                    Wal.close wal;
                    Error (config.socket_path ^ ": " ^ Unix.error_message e)
                | listen ->
                    (* the durable applied-LSN cursor is whichever got
                       further: the epoch file (last clean checkpoint /
                       resync) or the WAL's committed markers *)
                    let file_epoch, file_lsn = load_epoch_file db_path in
                    let applied_lsn =
                      max file_lsn (Option.value rp.Wal.last_lsn ~default:0)
                    in
                    Ok
                      {
                        config;
                        db_path;
                        live;
                        wal;
                        listen;
                        sessions = Hashtbl.create 16;
                        stopping = Atomic.make false;
                        dirty_stop = false;
                        next_sid = 0;
                        next_txn = 0;
                        replayed = List.length rp.Wal.committed;
                        txns_committed = 0;
                        epoch = file_epoch;
                        applied_lsn;
                      })))

let checkpoint t =
  match Db.save t.live t.db_path with
  | Error _ as e -> e
  | Ok () ->
      (* truncation erases the WAL's applied-LSN markers, so the cursor
         must be durable in the epoch file first *)
      save_epoch_file t;
      Wal.truncate t.wal

(* Shard topology validation for [genalg serve --shard-id/--shard-count]
   (and the WELCOME announcement): values that can never be addressed by
   a coordinator are refused at startup instead of silently joining. *)
let shard_topology ~shard_id ~shard_count =
  match (shard_id, shard_count) with
  | None, None -> Ok "standalone"
  | Some _, None -> Error "--shard-id requires --shard-count"
  | None, Some _ -> Error "--shard-count requires --shard-id"
  | Some i, Some n ->
      if n <= 0 then
        Error (Printf.sprintf "--shard-count must be positive (got %d)" n)
      else if i < 0 then
        Error (Printf.sprintf "--shard-id must be non-negative (got %d)" i)
      else if i >= n then
        Error
          (Printf.sprintf
             "--shard-id %d is out of range for --shard-count %d (valid: \
              0..%d)"
             i n (n - 1))
      else Ok (Printf.sprintf "shard %d/%d" i n)

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

let err code message = P.Error_reply { code; message }

let active_sessions t =
  Hashtbl.fold
    (fun _ s acc -> if s.actor <> None then acc + 1 else acc)
    t.sessions 0

let close_session t s =
  (match s.txn with
  | Some _ ->
      s.txn <- None;
      Obs.add c_txn_rollback 1
  | None -> ());
  Hashtbl.remove t.sessions s.fd;
  (try Unix.close s.fd with Unix.Unix_error _ -> ());
  if s.actor <> None then Obs.add c_sessions_closed 1

let send t s reply =
  try P.write_frame s.fd (P.encode_reply reply)
  with Unix.Unix_error _ -> close_session t s

(* Execute one parsed statement with the per-query limits applied;
   returns the wire reply. *)
let execute_limited t target ~actor stmt =
  let t0 = Unix.gettimeofday () in
  let result = Exec.run target ~actor stmt in
  let elapsed = Unix.gettimeofday () -. t0 in
  Obs.observe h_query elapsed;
  if elapsed > t.config.max_query_s then
    err P.LIMIT
      (Printf.sprintf "query exceeded the %.1fs time limit (took %.1fs)"
         t.config.max_query_s elapsed)
  else
    match result with
    | Error msg -> err P.QUERY msg
    | Ok (Exec.Rows rs) ->
        if List.length rs.Exec.rows > t.config.max_rows then
          err P.LIMIT
            (Printf.sprintf "result exceeds the %d-row limit (add LIMIT)"
               t.config.max_rows)
        else P.Rows { columns = rs.Exec.columns; rows = rs.Exec.rows }
    | Ok (Exec.Affected n) -> P.Affected n
    | Ok Exec.Executed -> P.Ok_reply { info = "ok" }

let is_error = function P.Error_reply _ -> true | _ -> false

(* Append one committed transaction's redo records; the flush (and the
   client's acknowledgement) happens once per group in [flush_group]. *)
let wal_log_txn ?lsn t ~actor stmts =
  t.next_txn <- t.next_txn + 1;
  let txn = t.next_txn in
  Wal.append_begin t.wal ~txn;
  List.iter (fun sql -> Wal.append_stmt t.wal ~txn ~actor ~sql) stmts;
  (* a fenced statement's LSN cursor commits atomically with it *)
  (match lsn with
  | Some l -> Wal.append_marker t.wal ~txn ~lsn:l
  | None -> ());
  Wal.append_commit t.wal ~txn

(* The commit-time conflict check: first committer wins. Every table in
   the write set must be exactly as the snapshot saw it at BEGIN —
   version counters unmoved, existence unchanged — and DDL additionally
   pins the catalog version. *)
let conflict_check t txn ~actor =
  let check_table table =
    match Db.resolve t.live ~actor table with
    | Some (space, tbl) -> (
        let key = version_key space (Table.name tbl) in
        match List.assoc_opt key txn.begin_versions with
        | None ->
            Some (Printf.sprintf "table %s was created concurrently" table)
        | Some (dv, sv) ->
            if
              Table.data_version tbl <> dv || Table.schema_version tbl <> sv
            then
              Some
                (Printf.sprintf "table %s was modified concurrently" table)
            else None)
    | None -> (
        (* absent now: fine if it was also absent (or unreadable) at
           BEGIN — i.e. this transaction created it *)
        let lname = String.lowercase_ascii table in
        let existed =
          List.exists
            (fun (k, _) ->
              match String.rindex_opt k '/' with
              | Some i ->
                  String.sub k (i + 1) (String.length k - i - 1) = lname
              | None -> false)
            txn.begin_versions
        in
        if existed then
          Some (Printf.sprintf "table %s was dropped concurrently" table)
        else None)
  in
  let tables =
    List.sort_uniq compare (List.map fst (List.rev txn.writes))
  in
  let table_conflict =
    List.fold_left
      (fun acc tbl -> match acc with Some _ -> acc | None -> check_table tbl)
      None tables
  in
  match table_conflict with
  | Some _ as c -> c
  | None ->
      if txn.ddl && Db.catalog_version t.live <> txn.begin_catalog then
        Some "catalog changed concurrently"
      else None

(* Handle one request; [defer] registers a reply to be sent only after
   the group-commit flush. *)
let handle_request t s ~defer req =
  match s.actor, req with
  | _, P.Ping -> send t s P.Pong
  | None, P.Hello { actor; client_version } ->
      if not (P.supported client_version) then begin
        Obs.add c_version_rejected 1;
        send t s
          (err P.VERSION
             (Printf.sprintf
                "unsupported protocol version %d (server speaks %d..%d)"
                client_version P.min_version P.version));
        close_session t s
      end
      else if active_sessions t >= t.config.max_sessions then begin
        Obs.add c_admission_rejected 1;
        send t s
          (err P.ADMISSION
             (Printf.sprintf "server full (%d sessions)" t.config.max_sessions));
        close_session t s
      end
      else begin
        s.actor <- Some actor;
        Obs.add c_sessions_opened 1;
        (* the topology handshake is a v2 field; v1 clients get the v1
           wire shape (no trailing string) *)
        let topology =
          if client_version >= 2 then t.config.topology else ""
        in
        send t s
          (P.Welcome { session = s.sid; server_version = P.version; topology })
      end
  | None, _ ->
      send t s (err P.PROTO "say HELLO first");
      close_session t s
  | Some _, P.Hello _ -> send t s (err P.PROTO "already said HELLO")
  | Some _, P.Goodbye ->
      send t s P.Bye;
      close_session t s
  | Some _, P.Shutdown { dirty } ->
      t.dirty_stop <- dirty;
      Atomic.set t.stopping true;
      send t s (P.Ok_reply { info = "shutting down" })
  | Some _, P.Stats ->
      let b = Buffer.create 512 in
      Printf.bprintf b "genalg server on %s\n" t.config.socket_path;
      Printf.bprintf b "database: %s (%d tables)\n" t.db_path
        (Db.table_count t.live);
      Printf.bprintf b
        "sessions: %d active (max %d); limits: %d rows, %.1fs per query\n"
        (active_sessions t) t.config.max_sessions t.config.max_rows
        t.config.max_query_s;
      Printf.bprintf b
        "wal: %s, %d B pending, %d stmts replayed at startup, %d txns \
         committed\n"
        (Wal.path t.wal) (Wal.pending_bytes t.wal) t.replayed
        t.txns_committed;
      Printf.bprintf b "cluster: epoch %d, applied lsn %d\n\n" t.epoch
        t.applied_lsn;
      Buffer.add_string b (Obs.render_table ());
      send t s (P.Stats_text (Buffer.contents b))
  | Some _, P.Begin -> (
      match s.txn with
      | Some _ -> send t s (err P.TXN_STATE "already in a transaction")
      | None ->
          let snapshot = Db.clone t.live in
          s.txn <-
            Some
              {
                snapshot;
                writes = [];
                ddl = false;
                begin_versions = all_versions t.live;
                begin_catalog = Db.catalog_version t.live;
              };
          Obs.add c_txn_begin 1;
          send t s (P.Ok_reply { info = "transaction started" }))
  | Some _, P.Rollback -> (
      match s.txn with
      | None -> send t s (err P.TXN_STATE "no transaction in progress")
      | Some _ ->
          s.txn <- None;
          Obs.add c_txn_rollback 1;
          send t s (P.Ok_reply { info = "rolled back" }))
  | Some actor, P.Commit -> (
      match s.txn with
      | None -> send t s (err P.TXN_STATE "no transaction in progress")
      | Some txn -> (
          s.txn <- None;
          match List.rev txn.writes with
          | [] ->
              (* read-only: nothing to validate, apply or log *)
              Obs.add c_txn_commit 1;
              send t s (P.Ok_reply { info = "committed (read-only)" })
          | writes -> (
              match conflict_check t txn ~actor with
              | Some msg ->
                  Obs.add c_txn_conflict 1;
                  send t s
                    (err P.CONFLICT ("serialization failure: " ^ msg))
              | None ->
                  (* the checked tables are exactly as the snapshot saw
                     them, so replaying the statements on the live
                     database reproduces the snapshot's outcome *)
                  List.iter
                    (fun (_, sql) ->
                      ignore (Exec.query t.live ~actor sql))
                    writes;
                  wal_log_txn t ~actor (List.map snd writes);
                  t.txns_committed <- t.txns_committed + 1;
                  Obs.add c_txn_commit 1;
                  defer s (P.Ok_reply { info = "committed" }))))
  | Some _, P.Resync { epoch } ->
      (* adopt the higher epoch (a coordinator announcing a failover it
         performed while we were away) and report where we stand so the
         coordinator can replay exactly the delta *)
      t.epoch <- max t.epoch epoch;
      save_epoch_file t;
      Obs.add c_resyncs 1;
      send t s (P.Resync_state { epoch = t.epoch; applied_lsn = t.applied_lsn })
  | Some actor, P.Fenced_query { epoch; lsn; sql } -> (
      Obs.add c_queries 1;
      if epoch <> t.epoch then begin
        (* stale primary fencing: a coordinator (or replayed write) on
           the wrong epoch cannot mutate state until it resyncs *)
        Obs.add c_fenced_rejected 1;
        send t s
          (err P.FENCED
             (Printf.sprintf
                "epoch %d is not in force here (server at epoch %d); resync \
                 first"
                epoch t.epoch))
      end
      else
        match lsn with
        | Some l when l <= t.applied_lsn ->
            (* resync replay re-sending a statement that survived in the
               WAL: applying it twice would diverge the store *)
            Obs.add c_fenced_skipped 1;
            send t s (P.Ok_reply { info = "already applied" })
        | _ -> (
            match Parser.parse sql with
            | Error msg ->
                Obs.add c_query_errors 1;
                send t s (err P.QUERY msg)
            | Ok stmt -> (
                let reply = execute_limited t t.live ~actor stmt in
                if is_error reply then Obs.add c_query_errors 1;
                match classify stmt with
                | Read -> send t s reply
                | Write _ | Catalog _ ->
                    if is_error reply then send t s reply
                    else begin
                      wal_log_txn ?lsn t ~actor [ sql ];
                      (match lsn with
                      | Some l -> t.applied_lsn <- max t.applied_lsn l
                      | None -> ());
                      t.txns_committed <- t.txns_committed + 1;
                      defer s reply
                    end)))
  | Some actor, P.Query { sql } -> (
      Obs.add c_queries 1;
      if not (Resilience.Breaker.allow s.breaker) then begin
        Obs.add c_breaker_open 1;
        send t s
          (err P.ADMISSION
             "session back-off: too many consecutive failing statements")
      end
      else
        let reply_and_count reply =
          if is_error reply then begin
            Obs.add c_query_errors 1;
            Resilience.Breaker.failure s.breaker
          end
          else Resilience.Breaker.success s.breaker;
          reply
        in
        match Parser.parse sql with
        | Error msg -> send t s (reply_and_count (err P.QUERY msg))
        | Ok stmt -> (
            match s.txn with
            | None -> (
                (* autocommit: run on the live database; a successful
                   write becomes its own logged, group-flushed txn *)
                let reply = execute_limited t t.live ~actor stmt in
                match classify stmt with
                | Read -> send t s (reply_and_count reply)
                | Write _ | Catalog _ ->
                    let reply = reply_and_count reply in
                    if is_error reply then send t s reply
                    else begin
                      wal_log_txn t ~actor [ sql ];
                      t.txns_committed <- t.txns_committed + 1;
                      defer s reply
                    end)
            | Some txn -> (
                (* inside a transaction everything runs on the snapshot:
                   reads are as of BEGIN plus own writes, and validated
                   writes join the write set for commit time *)
                let reply = execute_limited t txn.snapshot ~actor stmt in
                let reply = reply_and_count reply in
                (match classify stmt with
                | Read -> ()
                | Write table | Catalog table ->
                    if not (is_error reply) then begin
                      txn.writes <- (table, sql) :: txn.writes;
                      match classify stmt with
                      | Catalog _ -> txn.ddl <- true
                      | _ -> ()
                    end);
                send t s reply)))

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)

let accept_new t =
  match Unix.accept t.listen with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
      Obs.add c_connections 1;
      t.next_sid <- t.next_sid + 1;
      Hashtbl.replace t.sessions fd
        {
          fd;
          sid = t.next_sid;
          framing = P.Framing.create ();
          breaker =
            Resilience.Breaker.create
              ~failure_threshold:t.config.breaker_failures ~cooldown_calls:4
              ();
          actor = None;
          txn = None;
        }

let read_buf = Bytes.create 65536

(* Read whatever is available on a ready session and process its
   complete frames, stopping early once a reply has been deferred to
   the group flush (per-session replies must stay in order). *)
let handle_readable t s deferred =
  let closed =
    match Unix.read s.fd read_buf 0 (Bytes.length read_buf) with
    | 0 -> true
    | n ->
        P.Framing.feed s.framing read_buf n;
        false
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> true
    | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> false
  in
  if closed then close_session t s
  else begin
    let session_deferred = ref false in
    let defer s' reply =
      session_deferred := true;
      deferred := (s', reply) :: !deferred
    in
    let continue = ref true in
    while !continue && not !session_deferred do
      match P.Framing.next s.framing with
      | Error msg ->
          send t s (err P.PROTO msg);
          close_session t s;
          continue := false
      | Ok None -> continue := false
      | Ok (Some frame) -> (
          match P.decode_request frame with
          | Error msg ->
              send t s (err P.PROTO msg);
              close_session t s;
              continue := false
          | Ok req ->
              handle_request t s ~defer req;
              if not (Hashtbl.mem t.sessions s.fd) then continue := false)
    done
  end

(* One WAL flush acknowledges every commit gathered this iteration:
   that is the group commit. *)
let flush_group t deferred =
  match !deferred with
  | [] -> ()
  | acks ->
      let acks = List.rev acks in
      Obs.add c_gc_batches 1;
      Obs.add c_gc_commits (List.length acks);
      (match Wal.flush t.wal with
      | Ok () -> List.iter (fun (s, reply) -> send t s reply) acks
      | Error msg ->
          List.iter
            (fun (s, _) -> send t s (err P.QUERY ("wal flush: " ^ msg)))
            acks)

let shutdown_loop t =
  Hashtbl.iter (fun _ s -> try Unix.close s.fd with Unix.Unix_error _ -> ())
    t.sessions;
  Hashtbl.reset t.sessions;
  (try Unix.close t.listen with Unix.Unix_error _ -> ());
  if Sys.file_exists t.config.socket_path then
    Sys.remove t.config.socket_path

let serve t =
  (* a client that vanished mid-reply must surface as EPIPE on the write
     (the session is torn down), not kill the whole server process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let result =
    try
      while not (Atomic.get t.stopping) do
        let fds =
          t.listen
          :: Hashtbl.fold (fun fd _ acc -> fd :: acc) t.sessions []
        in
        let ready, _, _ =
          try Unix.select fds [] [] 0.05
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        let deferred = ref [] in
        List.iter
          (fun fd ->
            if fd == t.listen then accept_new t
            else
              match Hashtbl.find_opt t.sessions fd with
              | Some s -> handle_readable t s deferred
              | None -> ())
          ready;
        flush_group t deferred
      done;
      if t.dirty_stop then Ok ()
      else
        (* clean shutdown: flush any tail, then checkpoint *)
        match Wal.flush t.wal with
        | Error _ as e -> e
        | Ok () -> checkpoint t
    with
    | Genalg_fault.Fault.Crash_point _ as crash ->
        (* simulated process death: leave the WAL exactly as torn as the
           crash point left it, close nothing gracefully *)
        shutdown_loop t;
        Wal.close t.wal;
        raise crash
  in
  shutdown_loop t;
  Wal.close t.wal;
  result
