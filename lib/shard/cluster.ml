module D = Genalg_storage.Dtype
module Db = Genalg_storage.Database
module Table = Genalg_storage.Table
module Schema = Genalg_storage.Schema
module Wal = Genalg_storage.Wal
module Fsutil = Genalg_storage.Fsutil
module Ast = Genalg_sqlx.Ast
module Eval = Genalg_sqlx.Eval
module Exec = Genalg_sqlx.Exec
module Parser = Genalg_sqlx.Parser
module Scatter = Genalg_sqlx.Scatter
module Obs = Genalg_obs.Obs
module Fault = Genalg_fault.Fault
module Breaker = Genalg_resilience.Resilience.Breaker
module Client = Genalg_serve.Client
module P = Genalg_serve.Protocol

let ( let* ) = Result.bind

let c_queries = Obs.counter "shard.queries"
let c_fanout = Obs.counter "shard.scatter.fanout"
let c_gathered = Obs.counter "shard.gathered_rows"
let c_failovers = Obs.counter "shard.failovers"
let c_merges = Obs.counter "shard.partial_merges"
let c_fallbacks = Obs.counter "shard.fallbacks"
let c_pruned = Obs.counter "shard.pruned"
let c_epoch_bumps = Obs.counter "shard.epoch.bumps"
let h_gather = Obs.histogram "shard.gather"
let h_merge = Obs.histogram "shard.merge"

(* the three steps of the staged checkpoint protocol, for crash tests *)
let ckpt_crash_points =
  [
    "shard.checkpoint.stage";
    "shard.checkpoint.commit";
    "shard.checkpoint.promote";
  ]

let () = List.iter Fault.register_crash_point ckpt_crash_points

type endpoint = Resync.endpoint =
  | Local of Db.t
  | Remote of Client.t
  | Detached of string

type role = R_primary | R_replica

(* One store of a shard pair. [m_applied] is the coordinator's view of
   the highest statement LSN the member holds (for a remote member:
   durably, because fenced writes are acknowledged after the server's
   group flush). A member that misses a statement is marked unhealthy
   and catches up through the statement log; [m_dead] means it can
   never catch up from the log (its delta was checkpointed away). *)
type member = {
  mutable m_ep : endpoint;
  m_sock : string option;  (* re-dial address for a remote member *)
  mutable m_healthy : bool;
  mutable m_dead : bool;
  mutable m_applied : int;
}

type shard = {
  sid : int;
  primary : member;
  replica : member option;
  breaker : Breaker.t;
  mutable epoch : int;
  mutable resyncing : bool;
}

type shard_state = Serving | Degraded | Resyncing | Dead

type report = {
  targets : int;
  gathered : int;
  failed_over : int;
  fallback : string option;
}

(* internal mutable version of the report *)
type rep = {
  mutable r_targets : int;
  mutable r_gathered : int;
  mutable r_failed_over : int;
  mutable r_fallback : string option;
}

type persist = { dir : string; log : Wal.t }

type t = {
  shards : shard array;
  mirror_db : Db.t;
  pcols : (string, string) Hashtbl.t;  (* lc table -> lc partition column *)
  mutable next_seq : int;  (* next LSN, which doubles as the __grid value *)
  mutable log_base : int;  (* LSNs <= this are checkpointed into images *)
  mem_logs : (int * string * string) list array;  (* newest-first, per shard *)
  persist : persist option;
  topology : Manifest.topology;
  rep : rep;
  mutable failovers_sum : int;
  (* set when a statement-log flush failed: the coordinator refuses
     further writes until it is reopened (recovery re-derives a
     consistent state from the durable log) *)
  mutable wedged : string option;
}

(* a shard (primary or replica) that cannot answer at all — injected
   fault, simulated crash, or a broken remote connection *)
exception Shard_down of string

let shard_count t = Array.length t.shards
let mirror t = t.mirror_db

let endpoint_db = function Local db -> Some db | Remote _ | Detached _ -> None

let primary_db t i =
  if i < 0 || i >= Array.length t.shards then None
  else endpoint_db t.shards.(i).primary.m_ep

let replica_db t i =
  if i < 0 || i >= Array.length t.shards then None
  else
    Option.bind t.shards.(i).replica (fun m -> endpoint_db m.m_ep)

let last_report t =
  {
    targets = t.rep.r_targets;
    gathered = t.rep.r_gathered;
    failed_over = t.rep.r_failed_over;
    fallback = t.rep.r_fallback;
  }

let failovers_total t = t.failovers_sum
let epoch t i = t.shards.(i).epoch

let members sh =
  (R_primary, sh.primary)
  :: (match sh.replica with Some m -> [ (R_replica, m) ] | None -> [])

let shard_site i = function
  | R_primary -> Printf.sprintf "shard.%d.primary" i
  | R_replica -> Printf.sprintf "shard.%d.replica" i

let is_shard_site s = String.length s >= 6 && String.sub s 0 6 = "shard."

let shard_state_of sh =
  let replica_ok =
    match sh.replica with Some m -> m.m_healthy | None -> false
  in
  if sh.resyncing then Resyncing
  else if sh.primary.m_healthy then Serving
  else if replica_ok then Degraded
  else if sh.primary.m_dead then Dead
  else Resyncing

let shard_state_to_string = function
  | Serving -> "serving"
  | Degraded -> "degraded"
  | Resyncing -> "resyncing"
  | Dead -> "dead"

let shard_states t = Array.map shard_state_of t.shards

let next_lsn t =
  let l = t.next_seq in
  t.next_seq <- l + 1;
  l

(* ------------------------------------------------------------------ *)
(* Coordinator state directory                                         *)

let log_file dir = Filename.concat dir "statements.log"
let mirror_file dir = Filename.concat dir "mirror.db"
let shard_image dir i = Filename.concat dir (Printf.sprintf "shard%d.db" i)

(* A checkpoint must be crash-atomic against the statement log: saving
   an image and truncating the log are separate steps, and a crash
   between them must not leave recovery replaying statements an image
   already holds. The protocol stages every image under the log base
   it covers — [<file>.ckpt-<base>] — and commits by persisting the
   manifest with that base; only then are the staged images renamed
   over the live ones and the log truncated. Recovery (see
   [settle_staged]) finishes a committed promotion and sweeps staged
   files of an uncommitted one, and every replay path filters by
   [lsn > log_base], so each statement is applied exactly once no
   matter where the crash landed. *)
let ckpt_infix = ".ckpt-"
let staged_image file base = Printf.sprintf "%s%s%d" file ckpt_infix base

type staged =
  | Staged_db of string * int  (* live file name, checkpoint base *)
  | Staged_aux  (* a save-machinery leftover: <file>.ckpt-<base>.tmp/.journal *)

let classify_staged name =
  let n = String.length name and m = String.length ckpt_infix in
  let rec find i =
    if i + m > n then None
    else if String.sub name i m = ckpt_infix then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i -> (
      let j = ref (i + m) in
      while !j < n && name.[!j] >= '0' && name.[!j] <= '9' do
        incr j
      done;
      match int_of_string_opt (String.sub name (i + m) (!j - i - m)) with
      | None -> None
      | Some w ->
          if !j = n then Some (Staged_db (String.sub name 0 i, w))
          else if name.[!j] = '.' then Some Staged_aux
          else None)

(* Finish or sweep an interrupted checkpoint. A staged image whose base
   matches the manifest's belongs to a committed checkpoint whose
   promotion crashed mid-way: rename it into place. Staged images (and
   their tmp/journal leftovers) of an uncommitted checkpoint are
   removed — the manifest never named their base, so the live images
   plus the intact log are still the truth. *)
let settle_staged dir ~log_base =
  match
    Array.iter
      (fun name ->
        match classify_staged name with
        | None -> ()
        | Some Staged_aux -> Sys.remove (Filename.concat dir name)
        | Some (Staged_db (live, w)) ->
            let staged = Filename.concat dir name in
            if w = log_base then Sys.rename staged (Filename.concat dir live)
            else Sys.remove staged)
      (Sys.readdir dir);
    Fsutil.fsync_dir dir
  with
  | () -> Ok ()
  | exception Sys_error e -> Error e

(* The statement log is physically one LSN-ordered file but logically
   per-shard: each statement's transaction (txn id = LSN) carries the
   original statement for the mirror plus the routed statement tagged
   with its target shard in the actor field. Actor names starting with
   '@' are reserved for this tag. *)
let encode_route tgt actor = "@" ^ tgt ^ ":" ^ actor

let decode_route actor =
  if String.length actor > 0 && actor.[0] = '@' then
    match String.index_opt actor ':' with
    | Some i ->
        Some
          ( String.sub actor 1 (i - 1),
            String.sub actor (i + 1) (String.length actor - i - 1) )
    | None -> None
  else None

let manifest_of t =
  let pcols =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.pcols [])
  in
  let shards =
    Array.to_list
      (Array.map
         (fun sh ->
           {
             Manifest.epoch = sh.epoch;
             primary_applied = sh.primary.m_applied;
             replica_applied = Option.map (fun m -> m.m_applied) sh.replica;
           })
         t.shards)
  in
  {
    Manifest.topology = t.topology;
    pcols;
    next_seq = t.next_seq;
    log_base = t.log_base;
    shards;
  }

(* The manifest is advisory over the logs, so a failed write is not
   fatal to the statement that triggered it — recovery re-derives the
   truth. Injected crash points still propagate. *)
let save_manifest t =
  match t.persist with
  | None -> ()
  | Some p -> (
      match Manifest.save (manifest_of t) ~dir:p.dir with
      | Ok () | Error _ -> ())

(* Log one routed statement under its LSN, atomically with the original
   it was derived from: both records share one log transaction, so both
   survive a crash or neither does — there is no window where the
   mirror and a shard diverge after recovery. [target] is a shard
   index, or [-1] for a broadcast.

   A statement is only as durable as its flush: if the flush fails the
   LSN may not survive a restart, and applying the statement to members
   anyway would let a later coordinator re-assign that LSN to a
   different statement, which the members' idempotent-replay cursors
   would then silently skip. A failed flush therefore fails the
   statement — no member sees it, its buffered records are dropped so a
   later flush cannot resurrect them — and wedges the coordinator
   against further writes until it is reopened (the mirror, which
   rules on statements first, is one undurable statement ahead of the
   log until then). *)
let log_statement t ~actor ~lsn ~target ~original ~routed =
  match t.persist with
  | Some p -> (
      Wal.append_begin p.log ~txn:lsn;
      Wal.append_stmt p.log ~txn:lsn ~actor ~sql:original;
      let tgt = if target < 0 then "*" else string_of_int target in
      Wal.append_stmt p.log ~txn:lsn ~actor:(encode_route tgt actor)
        ~sql:routed;
      Wal.append_commit p.log ~txn:lsn;
      (* flush per statement: a member ack means its LSN is replayable;
         a torn tail from a flush crash is rebuilt on recovery *)
      match
        Fault.hit "shard.log.flush";
        Wal.flush p.log
      with
      | Ok () -> Ok ()
      | Error e | (exception Fault.Injected (_, e)) ->
          Wal.drop_pending p.log;
          let msg =
            Printf.sprintf
              "statement log write failed (%s); the coordinator refuses \
               further writes — reopen the state directory to recover"
              e
          in
          t.wedged <- Some msg;
          Error msg)
  | None ->
      if target < 0 then
        Array.iteri
          (fun i l -> t.mem_logs.(i) <- (lsn, actor, routed) :: l)
          t.mem_logs
      else begin
        t.mem_logs.(target) <- (lsn, actor, routed) :: t.mem_logs.(target)
      end;
      Ok ()

(* the logical statement stream of shard [i]: routed statements
   targeting it (or broadcast) with LSN strictly above [lsn], ascending *)
let entries_after t i lsn =
  match t.persist with
  | Some p -> (
      match Wal.replay_from (Wal.path p.log) ~lsn with
      | Error _ -> []
      | Ok rp ->
          List.filter_map
            (fun (s : Wal.replay_stmt) ->
              match decode_route s.Wal.rp_actor with
              | Some (tgt, actor) when tgt = "*" || tgt = string_of_int i ->
                  Some (s.Wal.rp_txn, actor, s.Wal.rp_sql)
              | _ -> None)
            rp.Wal.committed)
  | None ->
      List.rev (List.filter (fun (l, _, _) -> l > lsn) t.mem_logs.(i))

(* ------------------------------------------------------------------ *)
(* Endpoint execution                                                  *)

let exec_endpoint ~actor ep stmt =
  match ep with
  | Local db -> Exec.run db ~actor stmt
  | Detached socket -> raise (Shard_down (socket ^ ": unreachable"))
  | Remote c -> (
      match Client.query c (Ast.stmt_to_string stmt) with
      | Ok (P.Rows { columns; rows }) -> Ok (Exec.Rows { columns; rows })
      | Ok (P.Affected n) -> Ok (Exec.Affected n)
      | Ok (P.Ok_reply _) -> Ok Exec.Executed
      | Ok (P.Error_reply { message; _ }) -> Error message
      | Ok _ -> raise (Shard_down "unexpected reply")
      | Error e -> raise (Shard_down e))

(* a fenced write: remote members get the statement under the shard's
   epoch and the statement's LSN, so a stale primary is refused
   (FENCED) and a restarted server skips statements it already holds *)
let exec_write ~actor ~epoch ~lsn ep stmt =
  match ep with
  | Local db -> Exec.run db ~actor stmt
  | Detached socket -> raise (Shard_down (socket ^ ": unreachable"))
  | Remote c -> (
      match Client.fenced_query c ~epoch ~lsn (Ast.stmt_to_string stmt) with
      | Ok (P.Rows { columns; rows }) -> Ok (Exec.Rows { columns; rows })
      | Ok (P.Affected n) -> Ok (Exec.Affected n)
      | Ok (P.Ok_reply _) -> Ok Exec.Executed
      | Ok (P.Error_reply { code = P.FENCED; message }) ->
          raise (Shard_down message)
      | Ok (P.Error_reply { message; _ }) -> Error message
      | Ok _ -> raise (Shard_down "unexpected reply")
      | Error e -> raise (Shard_down e))

let try_endpoint ~actor ep stmt =
  try exec_endpoint ~actor ep stmt with Shard_down m -> Error m

(* ------------------------------------------------------------------ *)
(* Health, fencing, resync                                             *)

(* Losing a primary fences the pair: the epoch bumps and is pushed to
   every member still serving, so the stale primary — which may come
   back with writes it never durably applied elsewhere — is refused
   under its old epoch until it resyncs. *)
let rec mark_down t sh role m =
  if m.m_healthy then begin
    m.m_healthy <- false;
    if role = R_primary then begin
      sh.epoch <- sh.epoch + 1;
      Obs.add c_epoch_bumps 1;
      propagate_epoch t sh
    end;
    save_manifest t
  end

and propagate_epoch t sh =
  List.iter
    (fun (role, m) ->
      if m.m_healthy && not m.m_dead then
        match m.m_ep with
        | Local _ | Detached _ -> ()
        | Remote c -> (
            match Client.resync c ~epoch:sh.epoch with
            | Ok (srv_epoch, _) when srv_epoch > sh.epoch ->
                sh.epoch <- srv_epoch
            | Ok _ -> ()
            | Error _ -> mark_down t sh role m))
    (members sh)

(* A down remote member may be holding a dead connection (its server
   crashed or restarted). Before the probe, re-dial the remembered
   socket: a fresh connection reaches the restarted server where the
   stale fd only ever yields EPIPE. While the server stays gone the
   member parks as [Detached socket] so nothing blocks on a dead fd. *)
let redial m ~actor =
  match (m.m_ep, m.m_sock) with
  | (Remote _ | Detached _), Some socket -> (
      match Client.connect ~actor ~socket () with
      | Ok c ->
          (match m.m_ep with Remote old -> Client.close old | _ -> ());
          m.m_ep <- Remote c
      | Error _ -> (
          match m.m_ep with
          | Remote old ->
              Client.close old;
              m.m_ep <- Detached socket
          | _ -> ()))
  | _ -> ()

(* One resync probe for a down member. On success the member's cursor
   is current and it rejoins serving; partial progress survives in
   [m_applied] so the next probe resumes where this one stopped. *)
let resync_member t sh role m ~actor =
  if m.m_dead then false
  else begin
    redial m ~actor;
    sh.resyncing <- true;
    Fun.protect
      ~finally:(fun () -> sh.resyncing <- false)
      (fun () ->
        match
          Resync.attempt ~actor
            ~site:(shard_site sh.sid role)
            ~epoch:sh.epoch ~log_base:t.log_base ~applied:m.m_applied
            ~entries_after:(entries_after t sh.sid)
            m.m_ep
        with
        | Resync.Rejoined { applied; replayed = _ } ->
            m.m_applied <- applied;
            m.m_healthy <- true;
            save_manifest t;
            true
        | Resync.Failed { applied } ->
            m.m_applied <- applied;
            false
        | Resync.Unrecoverable ->
            m.m_dead <- true;
            save_manifest t;
            false
        | Resync.Epoch_superseded { epoch } ->
            if epoch > sh.epoch then begin
              sh.epoch <- epoch;
              save_manifest t
            end;
            false)
  end

(* ------------------------------------------------------------------ *)
(* Writes                                                              *)

(* Member writes never fail the statement: the mirror already accepted
   it and is the authority. A member that cannot apply it (fault,
   crash, transport, fencing) is marked down and catches up through
   the statement log on a later resync probe. *)
let write_member t sh role m ~actor ~lsn stmt =
  if m.m_healthy && not m.m_dead then
    match
      Fault.hit (shard_site sh.sid role);
      exec_write ~actor ~epoch:sh.epoch ~lsn m.m_ep stmt
    with
    | Ok _ -> m.m_applied <- lsn
    | Error _ -> mark_down t sh role m
    | exception Fault.Injected _ -> mark_down t sh role m
    | exception Fault.Crash_point site when is_shard_site site ->
        mark_down t sh role m
    | exception Shard_down _ -> mark_down t sh role m

let write_shard t ~actor i ~lsn stmt =
  let sh = t.shards.(i) in
  List.iter
    (fun (role, m) -> write_member t sh role m ~actor ~lsn stmt)
    (members sh)

let broadcast_write t ~actor ~lsn stmt =
  Array.iter
    (fun sh ->
      List.iter
        (fun (role, m) -> write_member t sh role m ~actor ~lsn stmt)
        (members sh))
    t.shards

(* ------------------------------------------------------------------ *)
(* Reads with failover                                                 *)

(* [None] = this endpoint is down (fault/crash/transport); [Some r] =
   it answered, where [r] may still be a query-level error *)
let attempt ~actor i role ep stmt =
  try
    Fault.hit (shard_site i role);
    Some (exec_endpoint ~actor ep stmt)
  with
  | Fault.Injected _ -> None
  | Fault.Crash_point site when is_shard_site site -> None
  | Shard_down _ -> None

(* Read from shard [i]: primary behind its breaker, then replica.
   [None] = the whole shard is unavailable. A granted breaker probe
   doubles as the rejoin driver: before retrying the primary it tries
   to resync every member that is down but recoverable. *)
let shard_read t ~actor i stmt =
  let sh = t.shards.(i) in
  let allowed = Breaker.allow sh.breaker in
  if allowed then
    List.iter
      (fun (role, m) ->
        if (not m.m_healthy) && not m.m_dead then
          ignore (resync_member t sh role m ~actor))
      (members sh);
  let primary_answer =
    if allowed && sh.primary.m_healthy then
      match attempt ~actor sh.sid R_primary sh.primary.m_ep stmt with
      | Some r ->
          Breaker.success sh.breaker;
          Some r
      | None ->
          Breaker.failure sh.breaker;
          mark_down t sh R_primary sh.primary;
          None
    else begin
      (* a claimed half-open probe must be resolved either way *)
      if allowed then Breaker.failure sh.breaker;
      None
    end
  in
  match primary_answer with
  | Some r -> Some r
  | None -> (
      Obs.add c_failovers 1;
      t.rep.r_failed_over <- t.rep.r_failed_over + 1;
      t.failovers_sum <- t.failovers_sum + 1;
      match sh.replica with
      | None -> None
      | Some m ->
          if m.m_healthy then
            match attempt ~actor sh.sid R_replica m.m_ep stmt with
            | Some r -> Some r
            | None ->
                mark_down t sh R_replica m;
                None
          else None)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let fresh_rep () =
  { r_targets = 0; r_gathered = 0; r_failed_over = 0; r_fallback = None }

let fresh_member ?sock ep =
  { m_ep = ep; m_sock = sock; m_healthy = true; m_dead = false; m_applied = 0 }

let fresh_shard ?psock ?rsock i primary replica =
  {
    sid = i;
    primary = fresh_member ?sock:psock primary;
    replica = Option.map (fresh_member ?sock:rsock) replica;
    breaker = Breaker.create ();
    epoch = 0;
    resyncing = false;
  }

(* A fresh state directory: refuse one that already holds a manifest
   (that cluster's logs would be clobbered — reopen it with
   {!open_dir} instead). *)
let open_fresh_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  if Sys.file_exists (Manifest.path dir) then
    Error
      (Printf.sprintf "%s already holds a coordinator manifest (use open_dir)"
         dir)
  else
    match Wal.open_ (log_file dir) with
    | Ok log -> Ok { dir; log }
    | Error e -> Error e

let make ~shards ~mirror_db ~persist ~topology =
  let t =
    {
      shards;
      mirror_db;
      pcols = Hashtbl.create 8;
      next_seq = 1;
      log_base = 0;
      mem_logs = Array.make (Array.length shards) [];
      persist;
      topology;
      rep = fresh_rep ();
      failovers_sum = 0;
      wedged = None;
    }
  in
  save_manifest t;
  t

let create_local ?(attach = fun _ -> ()) ?(replicas = true) ?dir ~shards:n () =
  let mk () =
    let db = Db.create () in
    attach db;
    db
  in
  let mirror_db = mk () in
  let n = max 1 n in
  let shards =
    Array.init n (fun i ->
        fresh_shard i
          (Local (mk ()))
          (if replicas then Some (Local (mk ())) else None))
  in
  let* persist =
    match dir with
    | None -> Ok None
    | Some dir -> Result.map Option.some (open_fresh_dir dir)
  in
  Ok
    (make ~shards ~mirror_db ~persist
       ~topology:(Manifest.Local { shards = n; replicas }))

let close t =
  (match t.persist with
  | Some p ->
      (match Wal.flush p.log with Ok () | Error _ -> ());
      save_manifest t;
      Wal.close p.log
  | None -> ());
  Array.iter
    (fun sh ->
      List.iter
        (fun (_, m) ->
          match m.m_ep with
          | Remote c -> Client.close c
          | Local _ | Detached _ -> ())
        (members sh))
    t.shards

let create_remote ?(attach = fun _ -> ()) ?(replicas = []) ?dir ~actor ~sockets
    () =
  if sockets = [] then Error "no shard sockets given"
  else begin
    let connected = ref [] in
    let fail msg =
      List.iter (fun c -> Client.close c) !connected;
      Error msg
    in
    let rec connect_all acc = function
      | [] -> Ok (List.rev acc)
      | socket :: rest -> (
          match Client.connect ~actor ~socket () with
          | Ok c ->
              connected := c :: !connected;
              connect_all (c :: acc) rest
          | Error e -> Error (socket ^ ": " ^ e))
    in
    match connect_all [] sockets with
    | Error e -> fail e
    | Ok primaries -> (
        match connect_all [] replicas with
        | Error e -> fail e
        | Ok reps -> (
            let persist_r =
              match dir with
              | None -> Ok None
              | Some dir -> (
                  match open_fresh_dir dir with
                  | Ok p -> Ok (Some p)
                  | Error e -> Error e)
            in
            match persist_r with
            | Error e -> fail e
            | Ok persist ->
                let mirror_db = Db.create () in
                attach mirror_db;
                let reps = Array.of_list reps in
                let rsocks = Array.of_list replicas in
                let shards =
                  Array.of_list
                    (List.mapi
                       (fun i (sock, c) ->
                         if i < Array.length reps then
                           fresh_shard i ~psock:sock
                             ~rsock:rsocks.(i) (Remote c)
                             (Some (Remote reps.(i)))
                         else fresh_shard i ~psock:sock (Remote c) None)
                       (List.combine sockets primaries))
                in
                Ok
                  (make ~shards ~mirror_db ~persist
                     ~topology:(Manifest.Remote { actor; sockets; replicas }))))
  end

(* ------------------------------------------------------------------ *)
(* Recovery: reopen a coordinator state directory                      *)

(* After a torn tail the intact committed prefix is rewritten to a
   fresh file: replay tolerates the tear, but appending after one
   would leave the new records unreachable behind it. *)
let rebuild_log dir (rp : Wal.replay) =
  let file = log_file dir in
  let tmp = file ^ ".rebuild" in
  if Sys.file_exists tmp then Sys.remove tmp;
  let* log = Wal.open_ tmp in
  let last = ref min_int in
  List.iter
    (fun (s : Wal.replay_stmt) ->
      if s.Wal.rp_txn <> !last then begin
        if !last <> min_int then Wal.append_commit log ~txn:!last;
        Wal.append_begin log ~txn:s.Wal.rp_txn;
        last := s.Wal.rp_txn
      end;
      Wal.append_stmt log ~txn:s.Wal.rp_txn ~actor:s.Wal.rp_actor
        ~sql:s.Wal.rp_sql)
    rp.Wal.committed;
  if !last <> min_int then Wal.append_commit log ~txn:!last;
  let* () = Wal.flush log in
  Wal.close log;
  Sys.rename tmp file;
  Fsutil.fsync_dir dir;
  Wal.open_ file

let route_entries (rp : Wal.replay) i =
  List.filter_map
    (fun (s : Wal.replay_stmt) ->
      match decode_route s.Wal.rp_actor with
      | Some (tgt, actor) when tgt = "*" || tgt = string_of_int i ->
          Some (s.Wal.rp_txn, actor, s.Wal.rp_sql)
      | _ -> None)
    rp.Wal.committed

(* [from] is both the filter and the cursor: entries at or below it are
   already in the image being rebuilt (they were checkpointed away) and
   must not be applied again *)
let apply_entries db ~from entries =
  let rec go applied = function
    | [] -> Ok applied
    | (lsn, _, _) :: rest when lsn <= from -> go applied rest
    | (lsn, actor, sql) :: rest ->
        let* stmt = Parser.parse sql in
        let* _ = Exec.run db ~actor stmt in
        go (max applied lsn) rest
  in
  go from entries

let load_image ~attach path =
  ignore (Db.recover path);
  let* db = if Sys.file_exists path then Db.load path else Ok (Db.create ()) in
  attach db;
  Ok db

let open_dir ?(attach = fun _ -> ()) ~dir () =
  let* mf_opt = Manifest.load ~dir in
  match mf_opt with
  | None -> Error (dir ^ ": no coordinator manifest")
  | Some mf ->
      let log_base = mf.Manifest.log_base in
      (* an interrupted checkpoint first: promote its images if it
         committed, sweep them if it did not *)
      let* () = settle_staged dir ~log_base in
      let* rp = Wal.replay (log_file dir) in
      let* log =
        if rp.Wal.torn then rebuild_log dir rp else Wal.open_ (log_file dir)
      in
      (* mirror: checkpoint image + every original (non-routed) logged
         statement, in LSN order; partition columns follow the DDL the
         replay carries (the manifest may predate a crash-logged
         CREATE TABLE) *)
      let* mirror_db = load_image ~attach (mirror_file dir) in
      let pcols = Hashtbl.create 8 in
      List.iter
        (fun (table, col) -> Hashtbl.replace pcols table col)
        mf.Manifest.pcols;
      let rec replay_mirror = function
        | [] -> Ok ()
        (* at or below the checkpoint base: the image already holds it *)
        | (s : Wal.replay_stmt) :: rest when s.Wal.rp_txn <= log_base ->
            replay_mirror rest
        | (s : Wal.replay_stmt) :: rest -> (
            match decode_route s.Wal.rp_actor with
            | Some _ -> replay_mirror rest
            | None ->
                let* stmt = Parser.parse s.Wal.rp_sql in
                let* _ = Exec.run mirror_db ~actor:s.Wal.rp_actor stmt in
                (match stmt with
                | Ast.Create_table { table; defs } ->
                    Hashtbl.replace pcols
                      (String.lowercase_ascii table)
                      (String.lowercase_ascii
                         (Partitioner.partition_column defs))
                | Ast.Drop_table table ->
                    Hashtbl.remove pcols (String.lowercase_ascii table)
                | _ -> ());
                replay_mirror rest)
      in
      let* () = replay_mirror rp.Wal.committed in
      let max_txn =
        List.fold_left
          (fun a (s : Wal.replay_stmt) -> max a s.Wal.rp_txn)
          0 rp.Wal.committed
      in
      let next_seq = max mf.Manifest.next_seq (max_txn + 1) in
      let entry i = List.nth_opt mf.Manifest.shards i in
      let entry_epoch i =
        match entry i with Some e -> e.Manifest.epoch | None -> 0
      in
      let finish shards =
        {
          shards;
          mirror_db;
          pcols;
          next_seq;
          log_base;
          mem_logs = Array.make (Array.length shards) [];
          persist = Some { dir; log };
          topology = mf.Manifest.topology;
          rep = fresh_rep ();
          failovers_sum = 0;
          wedged = None;
        }
      in
      (match mf.Manifest.topology with
      | Manifest.Local { shards = n; replicas } ->
          (* in-process members are rebuilt from their checkpoint image
             plus their logical log stream, so they come back serving *)
          let rec build acc i =
            if i >= n then Ok (Array.of_list (List.rev acc))
            else
              let* pdb = load_image ~attach (shard_image dir i) in
              let* applied =
                apply_entries pdb ~from:log_base (route_entries rp i)
              in
              let rdb = if replicas then Some (Local (Db.clone pdb)) else None in
              let sh = fresh_shard i (Local pdb) rdb in
              sh.epoch <- entry_epoch i;
              sh.primary.m_applied <- applied;
              Option.iter (fun m -> m.m_applied <- applied) sh.replica;
              build (sh :: acc) (i + 1)
          in
          let* shards = build [] 0 in
          Ok (finish shards)
      | Manifest.Remote { actor; sockets; replicas } ->
          (* no fail-fast dialing: a shard whose server is still gone
             reopens as a down [Detached] member holding its socket; the
             eager resync pass below — and every later breaker probe —
             re-dials it and rejoins it once the server is back *)
          let rsocks = Array.of_list replicas in
          let shards =
            Array.of_list
              (List.mapi
                 (fun i sock ->
                   let sh =
                     if i < Array.length rsocks then
                       fresh_shard i ~psock:sock ~rsock:rsocks.(i)
                         (Detached sock)
                         (Some (Detached rsocks.(i)))
                     else fresh_shard i ~psock:sock (Detached sock) None
                   in
                   sh.epoch <- entry_epoch i;
                   (* members start down: the resync handshake below
                      re-imposes the persisted epoch and finds each
                      server's durable cursor before it rejoins *)
                   List.iter
                     (fun (_, m) -> m.m_healthy <- false)
                     (members sh);
                   sh)
                 sockets)
          in
          let t = finish shards in
          Array.iter
            (fun sh ->
              List.iter
                (fun (role, m) ->
                  ignore (resync_member t sh role m ~actor))
                (members sh))
            t.shards;
          Ok t)

(* Checkpoint: fold the log into images and truncate it, via the staged
   protocol described at [staged_image] (stage images -> commit by
   manifest -> promote -> truncate), so a crash at any step recovers
   without replaying a statement twice or losing one. Refused while any
   member is not serving — truncation would strand that member's delta
   and turn a recoverable lag into a dead store — and while the
   coordinator is wedged on a failed log flush — the mirror is ahead of
   the log then, and an image of it would launder the undurable
   statement into the checkpoint. *)
let checkpoint t =
  match t.persist with
  | None -> Error "not a persistent cluster (no state directory)"
  | Some p -> (
      match t.wedged with
      | Some msg -> Error msg
      | None ->
          if
            Array.exists
              (fun sh ->
                List.exists (fun (_, m) -> not m.m_healthy) (members sh))
              t.shards
          then Error "cannot checkpoint: a shard member is not serving"
          else begin
            let base = t.next_seq - 1 in
            let live = ref [ mirror_file p.dir ] in
            let* () =
              Db.save t.mirror_db (staged_image (mirror_file p.dir) base)
            in
            let rec save_shards i =
              if i >= Array.length t.shards then Ok ()
              else
                match t.shards.(i).primary.m_ep with
                | Local db ->
                    let file = shard_image p.dir i in
                    let* () = Db.save db (staged_image file base) in
                    live := file :: !live;
                    save_shards (i + 1)
                | Remote _ | Detached _ -> save_shards (i + 1)
            in
            let* () = save_shards 0 in
            Fault.crash "shard.checkpoint.stage";
            (* commit point: the manifest now names the staged set *)
            let old_base = t.log_base in
            t.log_base <- base;
            match Manifest.save (manifest_of t) ~dir:p.dir with
            | Error e ->
                t.log_base <- old_base;
                Error e
            | Ok () ->
                Fault.crash "shard.checkpoint.commit";
                let* () =
                  match
                    List.iter
                      (fun file ->
                        Sys.rename (staged_image file base) file)
                      !live;
                    Fsutil.fsync_dir p.dir
                  with
                  | () -> Ok ()
                  | exception Sys_error e -> Error e
                in
                Fault.crash "shard.checkpoint.promote";
                let* () = Wal.truncate p.log in
                Array.iteri (fun i _ -> t.mem_logs.(i) <- []) t.mem_logs;
                Ok ()
          end)

(* ------------------------------------------------------------------ *)
(* Scatter-gather SELECT                                               *)

let pcol_of t table = Hashtbl.find_opt t.pcols (String.lowercase_ascii table)

let conjunct_col ~alias = function
  | Ast.Col (None, c) -> Some c
  | Ast.Col (Some q, c)
    when String.lowercase_ascii q = String.lowercase_ascii alias ->
      Some c
  | _ -> None

(* WHERE pins the partition column to a literal -> one target shard *)
let prune t (select : Ast.select) =
  let n = Array.length t.shards in
  let all = List.init n Fun.id in
  match select.Ast.from with
  | [ (table, alias) ] -> (
      match pcol_of t table, select.Ast.where with
      | Some pcol, Some w -> (
          let hit =
            List.find_map
              (fun c ->
                match c with
                | Ast.Binop (Ast.Eq, lhs, Ast.Lit v)
                | Ast.Binop (Ast.Eq, Ast.Lit v, lhs) -> (
                    match conjunct_col ~alias lhs with
                    | Some c
                      when String.lowercase_ascii c = pcol && v <> D.Null ->
                        Some v
                    | _ -> None)
                | _ -> None)
              (Ast.conjuncts w)
          in
          match hit with
          | Some v ->
              Obs.add c_pruned 1;
              [ Partitioner.shard_of ~shards:n v ]
          | None -> all)
      | _ -> all)
  | _ -> all

let star_columns t ~actor (select : Ast.select) () =
  match select.Ast.from with
  | [ (table, _) ] -> (
      match Db.resolve t.mirror_db ~actor table with
      | Some (_, tbl) ->
          Ok
            (List.map
               (fun (c : Schema.column) -> c.Schema.name)
               (Schema.columns (Table.schema tbl)))
      | None -> Error (Printf.sprintf "unknown or unreadable table %s" table))
  | _ -> Error "multi-table star"

let has_index t ~actor (select : Ast.select) column =
  match select.Ast.from with
  | [ (table, _) ] -> (
      match Db.resolve t.mirror_db ~actor table with
      | Some (_, tbl) -> Table.has_index tbl ~column
      | None -> false)
  | _ -> false

(* gather rows from every target; any shard-level problem aborts the
   scatter (the caller answers from the mirror instead) *)
let gather t ~actor targets shard_select =
  let t0 = Obs.now_s () in
  (* per-shard row lists, newest first, concatenated once at the end *)
  let rec loop acc = function
    | [] ->
        Obs.observe h_gather (Obs.now_s () -. t0);
        Ok (List.concat (List.rev acc))
    | i :: rest -> (
        match shard_read t ~actor i (Ast.Select shard_select) with
        | None -> Error (Printf.sprintf "shard %d unavailable" i)
        | Some (Error msg) -> Error (Printf.sprintf "shard %d: %s" i msg)
        | Some (Ok (Exec.Rows rs)) ->
            t.rep.r_gathered <- t.rep.r_gathered + 1;
            loop (rs.Exec.rows :: acc) rest
        | Some (Ok _) -> Error (Printf.sprintf "shard %d: unexpected reply" i))
  in
  loop [] targets

let scatter_select t ~actor select =
  Obs.add c_queries 1;
  t.rep.r_targets <- 0;
  t.rep.r_gathered <- 0;
  t.rep.r_failed_over <- 0;
  t.rep.r_fallback <- None;
  let fallback reason =
    Obs.add c_fallbacks 1;
    t.rep.r_fallback <- Some reason;
    Exec.run t.mirror_db ~actor (Ast.Select select)
  in
  Obs.with_span "shard.scatter" (fun () ->
      match
        Scatter.decompose
          ~star_columns:(star_columns t ~actor select)
          ~has_index:(has_index t ~actor select)
          select
      with
      | Scatter.Not_shardable reason -> fallback reason
      | Scatter.Plain p -> (
          let targets = prune t select in
          t.rep.r_targets <- List.length targets;
          Obs.add c_fanout (List.length targets);
          match gather t ~actor targets p.Scatter.p_shard with
          | Error reason -> fallback reason
          | Ok rows ->
              Obs.add c_gathered (List.length rows);
              let m0 = Obs.now_s () in
              let rs = Scatter.merge_plain p rows in
              Obs.observe h_merge (Obs.now_s () -. m0);
              Ok (Exec.Rows rs))
      | Scatter.Grouped g -> (
          let targets = prune t select in
          t.rep.r_targets <- List.length targets;
          Obs.add c_fanout (List.length targets);
          match gather t ~actor targets g.Scatter.g_shard with
          | Error reason -> fallback reason
          | Ok rows -> (
              Obs.add c_gathered (List.length rows);
              Obs.add c_merges 1;
              let m0 = Obs.now_s () in
              let merged =
                Scatter.merge_grouped ~udts:(Db.udts t.mirror_db) g rows
              in
              Obs.observe h_merge (Obs.now_s () -. m0);
              match merged with
              | Ok rs -> Ok (Exec.Rows rs)
              | Error reason ->
                  (* a coordinator-side evaluation error; the mirror
                     reproduces the canonical single-node message *)
                  fallback reason)))

(* ------------------------------------------------------------------ *)
(* EXPLAIN                                                             *)

let plan_rows lines =
  Exec.Rows
    {
      Exec.columns = [ "QUERY PLAN" ];
      rows = List.map (fun l -> [| D.Str l |]) lines;
    }

let rows_to_lines (rs : Exec.result_set) =
  List.filter_map
    (fun row -> match row with [| D.Str s |] -> Some s | _ -> None)
    rs.Exec.rows

let explain_cluster t ~actor ~analyze select =
  let n = Array.length t.shards in
  let mirror_explain header =
    let* rs = Exec.explain t.mirror_db ~actor ~analyze select in
    Ok (plan_rows (header :: List.map (fun l -> "  " ^ l) (rows_to_lines rs)))
  in
  (* a shardable SELECT: what each shard runs, and how its rows merge *)
  let explain_scatter shard_select gather_line =
    if analyze then begin
      let* outcome = scatter_select t ~actor select in
      let rep = last_report t in
      match rep.fallback with
      | Some reason ->
          mirror_explain (Printf.sprintf "Gather-all (fallback: %s)" reason)
      | None ->
          let rows_out =
            match outcome with
            | Exec.Rows rs -> List.length rs.Exec.rows
            | _ -> 0
          in
          Ok
            (plan_rows
               [
                 Printf.sprintf
                   "Scatter-gather (shards=%d gathered=%d failed-over=%d)" n
                   rep.gathered rep.failed_over;
                 "  " ^ gather_line;
                 Printf.sprintf "  rows=%d" rows_out;
               ])
    end
    else begin
      let targets = prune t select in
      let partition =
        match select.Ast.from with
        | [ (table, _) ] -> (
            match pcol_of t table with Some c -> c | None -> "none")
        | _ -> "none"
      in
      let header =
        Printf.sprintf "Scatter-gather (shards=%d, targets=%d, partition=%s)"
          n (List.length targets) partition
      in
      let shard_plan =
        match targets with
        | [] -> [ "  (no targets)" ]
        | i0 :: _ -> (
            match
              try_endpoint ~actor t.shards.(i0).primary.m_ep
                (Ast.Explain { analyze = false; select = shard_select })
            with
            | Ok (Exec.Rows rs) ->
                Printf.sprintf "  shard %d plan:" i0
                :: List.map (fun l -> "    " ^ l) (rows_to_lines rs)
            | Ok _ | Error _ -> [ "  (shard plan unavailable)" ])
      in
      Ok (plan_rows ((header :: shard_plan) @ [ "  " ^ gather_line ]))
    end
  in
  match
    Scatter.decompose
      ~star_columns:(star_columns t ~actor select)
      ~has_index:(has_index t ~actor select)
      select
  with
  | Scatter.Not_shardable reason ->
      mirror_explain (Printf.sprintf "Gather-all (fallback: %s)" reason)
  | Scatter.Plain p ->
      explain_scatter p.Scatter.p_shard
        ("Gather: merge on __grid"
        ^ (if p.Scatter.p_order <> [] then "; sort" else "")
        ^
        match p.Scatter.p_limit with
        | Some l -> Printf.sprintf "; limit %d" l
        | None -> "")
  | Scatter.Grouped g ->
      explain_scatter g.Scatter.g_shard
        "Gather: merge partial aggregates; groups by first occurrence"

(* ------------------------------------------------------------------ *)
(* Writes and DDL                                                      *)

let target_space ~actor =
  if actor = Db.loader_actor then Db.Public else Db.User actor

let reserved_column defs =
  List.exists
    (fun d -> String.lowercase_ascii d.Ast.col_name = Scatter.grid_col)
    defs

let run_insert t ~actor table columns rows =
  let udts = Db.udts t.mirror_db in
  let schema = ref None in
  let get_schema () =
    match !schema with
    | Some s -> Some s
    | None -> (
        match Db.find_table t.mirror_db ~space:(target_space ~actor) table with
        | Some tbl ->
            let s = Table.schema tbl in
            schema := Some s;
            Some s
        | None -> None)
  in
  let partition_value exprs =
    (* evaluation cannot fail here: the mirror already accepted the row *)
    let values =
      List.map
        (fun e -> match Eval.compile udts [] e [||] with Ok v -> v | Error _ -> D.Null)
        exprs
    in
    match get_schema (), pcol_of t table with
    | Some schema, Some pcol -> (
        if columns = [] then
          match Schema.column_index schema pcol with
          | Some i when i < List.length values -> List.nth values i
          | _ -> D.Null
        else
          let rec find cols vals =
            match cols, vals with
            | c :: _, v :: _ when String.lowercase_ascii c = pcol -> v
            | _ :: cs, _ :: vs -> find cs vs
            | _ -> D.Null
          in
          find columns values)
    | _ -> D.Null
  in
  let shard_columns () =
    (if columns = [] then
       match get_schema () with
       | Some s ->
           List.map (fun (c : Schema.column) -> c.Schema.name)
             (Schema.columns s)
       | None -> []
     else columns)
    @ [ Scatter.grid_col ]
  in
  let rec insert_rows n = function
    | [] -> Ok (Exec.Affected n)
    | exprs :: rest -> (
        (* the mirror rules on each row first: its errors are the
           canonical single-node errors, and like the single-node
           engine, rows before a failing one stay applied *)
        let original = Ast.Insert { table; columns; rows = [ exprs ] } in
        match Exec.run t.mirror_db ~actor original with
        | Error _ as e -> e
        | Ok _ ->
            let v = partition_value exprs in
            let tgt =
              Partitioner.shard_of ~shards:(Array.length t.shards) v
            in
            (* the statement LSN doubles as the row's __grid value:
               both only need to be monotone in arrival order *)
            let lsn = next_lsn t in
            let stmt =
              Ast.Insert
                {
                  table;
                  columns = shard_columns ();
                  rows = [ exprs @ [ Ast.Lit (D.Int lsn) ] ];
                }
            in
            let* () =
              log_statement t ~actor ~lsn ~target:tgt
                ~original:(Ast.stmt_to_string original)
                ~routed:(Ast.stmt_to_string stmt)
            in
            write_shard t ~actor tgt ~lsn stmt;
            insert_rows (n + 1) rest)
  in
  insert_rows 0 rows

(* a broadcast DDL/DML statement: mirror first (if it rejects, no shard
   sees the statement), then log under one LSN, then every member *)
let run_broadcast t ~actor stmt shard_stmt =
  let lsn = next_lsn t in
  let* () =
    log_statement t ~actor ~lsn ~target:(-1)
      ~original:(Ast.stmt_to_string stmt)
      ~routed:(Ast.stmt_to_string shard_stmt)
  in
  broadcast_write t ~actor ~lsn shard_stmt;
  Ok ()

let is_write = function
  | Ast.Select _ | Ast.Explain _ -> false
  | Ast.Insert _ | Ast.Create_table _ | Ast.Drop_table _ | Ast.Create_index _
  | Ast.Create_genomic_index _ | Ast.Analyze _ | Ast.Delete _ ->
      true

let reserved_actor actor = String.length actor > 0 && actor.[0] = '@'

let run_stmt t ~actor stmt =
  match stmt with
  | Ast.Select select -> scatter_select t ~actor select
  | Ast.Explain { analyze; select } -> explain_cluster t ~actor ~analyze select
  | Ast.Insert { table; columns; rows } -> run_insert t ~actor table columns rows
  | Ast.Create_table { table; defs } ->
      if reserved_column defs then
        Error
          (Printf.sprintf "column name %s is reserved by the sharding layer"
             Scatter.grid_col)
      else
        let* outcome = Exec.run t.mirror_db ~actor stmt in
        let pcol = Partitioner.partition_column defs in
        Hashtbl.replace t.pcols
          (String.lowercase_ascii table)
          (String.lowercase_ascii pcol);
        let shard_stmt =
          Ast.Create_table
            {
              table;
              defs =
                defs
                @ [
                    {
                      Ast.col_name = Scatter.grid_col;
                      col_type = D.TInt;
                      col_nullable = false;
                    };
                  ];
            }
        in
        let* () = run_broadcast t ~actor stmt shard_stmt in
        save_manifest t;
        Ok outcome
  | Ast.Drop_table table ->
      let* outcome = Exec.run t.mirror_db ~actor stmt in
      Hashtbl.remove t.pcols (String.lowercase_ascii table);
      let* () = run_broadcast t ~actor stmt stmt in
      save_manifest t;
      Ok outcome
  | Ast.Create_index _ | Ast.Create_genomic_index _ | Ast.Analyze _
  | Ast.Delete _ ->
      let* outcome = Exec.run t.mirror_db ~actor stmt in
      let* () = run_broadcast t ~actor stmt stmt in
      Ok outcome

let run t ~actor stmt =
  if reserved_actor actor then
    Error
      (Printf.sprintf
         "actor name %S is invalid: names starting with '@' are reserved by \
          the sharding layer"
         actor)
  else
    match t.wedged with
    | Some msg when is_write stmt -> Error msg
    | _ -> run_stmt t ~actor stmt

let query t ~actor sql =
  let* stmt = Parser.parse sql in
  run t ~actor stmt

(* ------------------------------------------------------------------ *)
(* Cluster health text                                                 *)

let report_text t =
  let rep = last_report t in
  let buf = Buffer.create 256 in
  Printf.bprintf buf
    "last scatter: targets=%d gathered=%d failed-over=%d fallback=%s\n"
    rep.targets rep.gathered rep.failed_over
    (match rep.fallback with Some r -> r | None -> "-");
  Array.iter
    (fun sh ->
      let lsns =
        String.concat ", "
          (List.map
             (fun (role, m) ->
               Printf.sprintf "%s lsn %d%s"
                 (match role with
                 | R_primary -> "primary"
                 | R_replica -> "replica")
                 m.m_applied
                 (if m.m_dead then " dead"
                  else if m.m_healthy then ""
                  else " down"))
             (members sh))
      in
      Printf.bprintf buf "shard %d: %s (epoch %d, %s)\n" sh.sid
        (shard_state_to_string (shard_state_of sh))
        sh.epoch lsns)
    t.shards;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Merged statistics                                                   *)

let max_merged_buckets = 32

let merge_histograms hs =
  let entries =
    List.concat_map
      (fun (h : Table.histogram) ->
        List.init (Array.length h.Table.bounds) (fun i ->
            (h.Table.bounds.(i), h.Table.counts.(i))))
      hs
  in
  match entries with
  | [] -> None
  | _ ->
      let sorted =
        List.sort (fun (a, _) (b, _) -> D.compare_value a b) entries
      in
      let len = List.length sorted in
      let per = max 1 ((len + max_merged_buckets - 1) / max_merged_buckets) in
      let rec chunk acc cur cnt i = function
        | [] ->
            let acc =
              match cur with
              | Some b -> (b, cnt) :: acc
              | None -> acc
            in
            List.rev acc
        | (b, c) :: rest ->
            if (i + 1) mod per = 0 then
              chunk ((b, cnt + c) :: acc) None 0 (i + 1) rest
            else chunk acc (Some b) (cnt + c) (i + 1) rest
      in
      let merged = chunk [] None 0 0 sorted in
      Some
        {
          Table.bounds = Array.of_list (List.map fst merged);
          counts = Array.of_list (List.map snd merged);
        }

let merged_stats_text t ~actor ~table =
  let snapshots =
    Array.to_list t.shards
    |> List.filter_map (fun sh -> endpoint_db sh.primary.m_ep)
    |> List.filter_map (fun db ->
           match Db.resolve db ~actor table with
           | Some (_, tbl) when Table.has_stats tbl ->
               Some (Table.stats_snapshot tbl)
           | _ -> None)
  in
  if snapshots = [] then
    Error
      (Printf.sprintf "no shard statistics for %s (run ANALYZE %s)" table
         table)
  else begin
    let columns =
      List.sort_uniq compare (List.concat_map (List.map fst) snapshots)
    in
    let buf = Buffer.create 256 in
    Printf.bprintf buf "merged statistics for %s across %d shard(s)\n" table
      (List.length snapshots);
    Printf.bprintf buf "%-16s %10s %10s %10s  %s\n" "column" "rows" "nulls"
      "buckets" "range";
    List.iter
      (fun col ->
        if col <> Scatter.grid_col then begin
          let stats =
            List.filter_map (fun snap -> List.assoc_opt col snap) snapshots
          in
          let rows =
            List.fold_left (fun a (s : Table.column_stats) -> a + s.rows) 0
              stats
          in
          let nulls =
            List.fold_left (fun a (s : Table.column_stats) -> a + s.nulls) 0
              stats
          in
          let mins = List.filter_map (fun s -> s.Table.min_value) stats in
          let maxs = List.filter_map (fun s -> s.Table.max_value) stats in
          let fold_best cmp = function
            | [] -> None
            | v :: rest ->
                Some
                  (List.fold_left
                     (fun m v -> if cmp (D.compare_value v m) then v else m)
                     v rest)
          in
          let mn = fold_best (fun c -> c < 0) mins in
          let mx = fold_best (fun c -> c > 0) maxs in
          let hist =
            merge_histograms
              (List.filter_map (fun s -> s.Table.histogram) stats)
          in
          let buckets =
            match hist with
            | Some h -> Array.length h.Table.bounds
            | None -> 0
          in
          let range =
            match mn, mx with
            | Some a, Some b ->
                Printf.sprintf "[%s .. %s]" (D.value_to_display a)
                  (D.value_to_display b)
            | _ -> "-"
          in
          Printf.bprintf buf "%-16s %10d %10d %10d  %s\n" col rows nulls
            buckets range
        end)
      columns;
    Ok (Buffer.contents buf)
  end
