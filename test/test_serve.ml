(* The serving layer: wire-protocol codec roundtrips, WAL append/flush/
   replay (including torn tails and injected crashes at the group-commit
   points), and end-to-end concurrent sessions against a live server —
   snapshot isolation, first-committer-wins conflicts, rollback,
   admission control and dirty-shutdown recovery. See docs/SERVING.md. *)

module Db = Genalg_storage.Database
module Dtype = Genalg_storage.Dtype
module Wal = Genalg_storage.Wal
module Exec = Genalg_sqlx.Exec
module Fault = Genalg_fault.Fault
module Obs = Genalg_obs.Obs
module Protocol = Genalg_serve.Protocol
module Server = Genalg_serve.Server
module Client = Genalg_serve.Client

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let ok = function Ok v -> v | Error m -> Alcotest.fail m

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(* ---- protocol codec ---------------------------------------------------- *)

let all_requests =
  Protocol.
    [
      Hello { actor = "biologist"; client_version = 1 };
      Hello { actor = "etl"; client_version = 2 };
      Query { sql = "SELECT * FROM sequences WHERE contains(seq, 'ACGT')" };
      Begin;
      Commit;
      Rollback;
      Stats;
      Ping;
      Goodbye;
      Shutdown { dirty = false };
      Shutdown { dirty = true };
    ]

let all_replies =
  Protocol.
    [
      Welcome { session = 7; server_version = 1; topology = "" };
      Welcome { session = 3; server_version = 2; topology = "standalone" };
      Welcome { session = 4; server_version = 2; topology = "shard 1/4" };
      Ok_reply { info = "txn started" };
      Rows
        {
          columns = [ "accession"; "length"; "score" ];
          rows =
            [
              [| Dtype.Str "AC0001"; Dtype.Int 512; Dtype.Float 0.75 |];
              [| Dtype.Str "AC0002"; Dtype.Null; Dtype.Bool true |];
            ];
        };
      Affected 42;
      Error_reply { code = PROTO; message = "bad tag" };
      Error_reply { code = ADMISSION; message = "server full" };
      Error_reply { code = QUERY; message = "no such table" };
      Error_reply { code = TXN_STATE; message = "no transaction" };
      Error_reply { code = CONFLICT; message = "first committer won" };
      Error_reply { code = LIMIT; message = "row cap" };
      Error_reply { code = SHUTDOWN; message = "draining" };
      Error_reply { code = VERSION; message = "unsupported protocol version 9" };
      Pong;
      Stats_text "serve.queries 12";
      Bye;
    ]

let test_request_roundtrip () =
  List.iter
    (fun r ->
      match Protocol.decode_request (Protocol.encode_request r) with
      | Ok r' -> checkb "request roundtrips" true (r = r')
      | Error m -> Alcotest.fail m)
    all_requests

let test_reply_roundtrip () =
  List.iter
    (fun r ->
      match Protocol.decode_reply (Protocol.encode_reply r) with
      | Ok r' -> checkb "reply roundtrips" true (r = r')
      | Error m -> Alcotest.fail m)
    all_replies

let test_decode_rejects_garbage () =
  checkb "empty request" true (Result.is_error (Protocol.decode_request ""));
  checkb "unknown request tag" true
    (Result.is_error (Protocol.decode_request "~"));
  checkb "truncated hello" true
    (Result.is_error (Protocol.decode_request "H\001\002"));
  checkb "trailing bytes" true
    (Result.is_error
       (Protocol.decode_request (Protocol.encode_request Protocol.Ping ^ "x")));
  checkb "empty reply" true (Result.is_error (Protocol.decode_reply ""));
  checkb "unknown error code" true
    (Result.is_error
       (Protocol.decode_reply
          "E\255\255\255\255\255\255\255\255\000\000\000\000\000\000\000\000"))

let test_framing_incremental () =
  let payloads = [ "alpha"; ""; String.make 1000 'x' ] in
  let stream =
    String.concat ""
      (List.map
         (fun p ->
           let n = String.length p in
           let hdr = Bytes.create 4 in
           Bytes.set_uint8 hdr 0 (n lsr 24 land 0xff);
           Bytes.set_uint8 hdr 1 (n lsr 16 land 0xff);
           Bytes.set_uint8 hdr 2 (n lsr 8 land 0xff);
           Bytes.set_uint8 hdr 3 (n land 0xff);
           Bytes.to_string hdr ^ p)
         payloads)
  in
  (* feed the whole stream one byte at a time; frames must pop out in
     order, exactly once each *)
  let f = Protocol.Framing.create () in
  let out = ref [] in
  String.iter
    (fun ch ->
      Protocol.Framing.feed f (Bytes.make 1 ch) 1;
      let rec drain () =
        match Protocol.Framing.next f with
        | Ok (Some frame) ->
            out := frame :: !out;
            drain ()
        | Ok None -> ()
        | Error m -> Alcotest.fail m
      in
      drain ())
    stream;
  checkb "frames in order" true (List.rev !out = payloads);
  checkb "no residual frame" true (Protocol.Framing.next f = Ok None)

(* ---- WAL --------------------------------------------------------------- *)

let with_wal f =
  let path = Filename.temp_file "genalg_wal" ".wal" in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_wal_roundtrip () =
  with_wal (fun path ->
      Sys.remove path;
      let w = ok (Wal.open_ path) in
      Wal.append_begin w ~txn:1;
      Wal.append_stmt w ~txn:1 ~actor:"a" ~sql:"INSERT INTO t VALUES (1)";
      Wal.append_stmt w ~txn:1 ~actor:"a" ~sql:"INSERT INTO t VALUES (2)";
      Wal.append_commit w ~txn:1;
      Wal.append_begin w ~txn:2;
      Wal.append_stmt w ~txn:2 ~actor:"b" ~sql:"DELETE FROM t WHERE k = 1";
      Wal.append_commit w ~txn:2;
      Wal.append_begin w ~txn:3;
      Wal.append_stmt w ~txn:3 ~actor:"c" ~sql:"INSERT INTO t VALUES (9)";
      (* txn 3 never commits *)
      ok (Wal.flush w);
      Wal.close w;
      let rp = ok (Wal.replay path) in
      checki "committed stmts" 3 (List.length rp.Wal.committed);
      checkb "not torn" false rp.Wal.torn;
      checkb "open txn discarded" true (rp.Wal.discarded > 0);
      let sqls = List.map (fun s -> s.Wal.rp_sql) rp.Wal.committed in
      checkb "commit order preserved" true
        (sqls
        = [
            "INSERT INTO t VALUES (1)";
            "INSERT INTO t VALUES (2)";
            "DELETE FROM t WHERE k = 1";
          ]);
      let actors = List.map (fun s -> s.Wal.rp_actor) rp.Wal.committed in
      checkb "actors preserved" true (actors = [ "a"; "a"; "b" ]))

let test_wal_torn_tail () =
  with_wal (fun path ->
      Sys.remove path;
      let w = ok (Wal.open_ path) in
      Wal.append_begin w ~txn:1;
      Wal.append_stmt w ~txn:1 ~actor:"a" ~sql:"INSERT INTO t VALUES (1)";
      Wal.append_commit w ~txn:1;
      ok (Wal.flush w);
      Wal.close w;
      (* simulate a torn append: garbage where the next record should be *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o600 path in
      output_string oc "\042\000\000\000\000\000\000\000partial";
      close_out oc;
      let rp = ok (Wal.replay path) in
      checkb "torn tail detected" true rp.Wal.torn;
      checki "prefix survives" 1 (List.length rp.Wal.committed))

let test_wal_truncate () =
  with_wal (fun path ->
      Sys.remove path;
      let w = ok (Wal.open_ path) in
      Wal.append_begin w ~txn:1;
      Wal.append_stmt w ~txn:1 ~actor:"a" ~sql:"INSERT INTO t VALUES (1)";
      Wal.append_commit w ~txn:1;
      ok (Wal.flush w);
      ok (Wal.truncate w);
      Wal.close w;
      let rp = ok (Wal.replay path) in
      checki "truncated wal is empty" 0 (List.length rp.Wal.committed);
      checkb "not torn" false rp.Wal.torn)

(* Crash at each registered WAL point while flushing a second
   transaction; the first (flushed and acknowledged) transaction must
   replay in full, always. *)
let test_wal_crash_matrix () =
  checkb "wal crash points registered" true (Wal.crash_points <> []);
  List.iter
    (fun site ->
      with_wal (fun path ->
          Sys.remove path;
          let w = ok (Wal.open_ path) in
          Wal.append_begin w ~txn:1;
          Wal.append_stmt w ~txn:1 ~actor:"a" ~sql:"INSERT INTO t VALUES (1)";
          Wal.append_commit w ~txn:1;
          ok (Wal.flush w);
          Wal.append_begin w ~txn:2;
          Wal.append_stmt w ~txn:2 ~actor:"a" ~sql:"INSERT INTO t VALUES (2)";
          Wal.append_commit w ~txn:2;
          (match Fault.configure (site ^ ":crash:times=1") with
          | Ok () -> ()
          | Error m -> Alcotest.fail m);
          (match Wal.flush w with
          | exception Fault.Crash_point s ->
              checks (site ^ " crashes at itself") site s
          | Ok () | Error _ -> Alcotest.fail (site ^ ": crash did not fire"));
          Fault.disable ();
          Wal.close w;
          let rp = ok (Wal.replay path) in
          let sqls = List.map (fun s -> s.Wal.rp_sql) rp.Wal.committed in
          checkb (site ^ ": acked txn survives") true
            (List.mem "INSERT INTO t VALUES (1)" sqls)))
    Wal.crash_points

(* ---- end-to-end sessions ----------------------------------------------- *)

let with_server ?(tweak = fun c -> c) f =
  let dir = Filename.temp_file "genalg_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let db_path = Filename.concat dir "s.db" in
  let socket = Filename.concat dir "s.sock" in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      Array.iter
        (fun file ->
          try Sys.remove (Filename.concat dir file) with Sys_error _ -> ())
        (Sys.readdir dir);
      (try Unix.rmdir dir with Unix.Unix_error _ -> ()))
    (fun () ->
      let db = Db.create () in
      ignore (ok (Exec.query db ~actor:"u" "CREATE TABLE t (k int)"));
      ignore (ok (Exec.query db ~actor:"u" "INSERT INTO t VALUES (1)"));
      ok (Db.save db db_path);
      let config =
        tweak
          {
            (Server.default_config ~socket_path:socket) with
            Server.metrics = false;
          }
      in
      let server = ok (Server.create config ~db_path) in
      let dom = Domain.spawn (fun () -> Server.serve server) in
      let rec wait_ready n =
        if n = 0 then Alcotest.fail "server did not come up"
        else
          match Client.connect ~actor:"probe" ~socket () with
          | Ok c -> Client.close c
          | Error _ ->
              Unix.sleepf 0.02;
              wait_ready (n - 1)
      in
      wait_ready 200;
      let r = f ~socket ~db_path ~server in
      Server.stop server;
      (match Domain.join dom with Ok () -> () | Error _ -> ());
      r)

let count c table =
  match Client.query c (Printf.sprintf "SELECT k FROM %s" table) with
  | Ok (Protocol.Rows { rows; _ }) -> List.length rows
  | Ok (Protocol.Error_reply { message; _ }) -> Alcotest.fail message
  | Ok _ -> Alcotest.fail "unexpected reply"
  | Error m -> Alcotest.fail m

let test_snapshot_isolation () =
  with_server (fun ~socket ~db_path:_ ~server:_ ->
      (* both clients share one actor so they see the same user space *)
      let c1 = ok (Client.connect ~actor:"u" ~socket ()) in
      let c2 = ok (Client.connect ~actor:"u" ~socket ()) in
      ok (Client.begin_ c1);
      checki "snapshot sees initial rows" 1 (count c1 "t");
      (match Client.query c2 "INSERT INTO t VALUES (2)" with
      | Ok (Protocol.Affected 1) -> ()
      | _ -> Alcotest.fail "autocommit insert failed");
      checki "live db moved on" 2 (count c2 "t");
      checki "snapshot still sees BEGIN state" 1 (count c1 "t");
      ok (Client.commit c1);
      checki "after read-only commit, reads follow live db" 2 (count c1 "t");
      Client.close c1;
      Client.close c2)

let test_txn_read_your_writes () =
  with_server (fun ~socket ~db_path:_ ~server:_ ->
      let c1 = ok (Client.connect ~actor:"u" ~socket ()) in
      let c2 = ok (Client.connect ~actor:"u" ~socket ()) in
      ok (Client.begin_ c1);
      (match Client.query c1 "INSERT INTO t VALUES (10)" with
      | Ok (Protocol.Affected 1) -> ()
      | _ -> Alcotest.fail "txn insert failed");
      checki "read-your-writes inside txn" 2 (count c1 "t");
      checki "uncommitted write invisible to others" 1 (count c2 "t");
      ok (Client.commit c1);
      checki "commit published the write" 2 (count c2 "t");
      Client.close c1;
      Client.close c2)

let test_write_write_conflict () =
  with_server (fun ~socket ~db_path:_ ~server:_ ->
      let c1 = ok (Client.connect ~actor:"u" ~socket ()) in
      let c2 = ok (Client.connect ~actor:"u" ~socket ()) in
      ok (Client.begin_ c1);
      ok (Client.begin_ c2);
      (match Client.query c1 "INSERT INTO t VALUES (100)" with
      | Ok (Protocol.Affected 1) -> ()
      | _ -> Alcotest.fail "c1 insert failed");
      (match Client.query c2 "INSERT INTO t VALUES (200)" with
      | Ok (Protocol.Affected 1) -> ()
      | _ -> Alcotest.fail "c2 insert failed");
      ok (Client.commit c1);
      (match Client.commit c2 with
      | Ok () -> Alcotest.fail "second committer must lose"
      | Error m ->
          checkb "refusal names the conflict" true
            (contains (String.uppercase_ascii m) "CONFLICT"));
      checki "only the winner's row landed" 2 (count c1 "t");
      Client.close c1;
      Client.close c2)

let test_rollback_discards () =
  with_server (fun ~socket ~db_path:_ ~server:_ ->
      let c = ok (Client.connect ~actor:"u" ~socket ()) in
      ok (Client.begin_ c);
      (match Client.query c "INSERT INTO t VALUES (7)" with
      | Ok (Protocol.Affected 1) -> ()
      | _ -> Alcotest.fail "insert failed");
      checki "write visible inside txn" 2 (count c "t");
      ok (Client.rollback c);
      checki "rollback discarded the write" 1 (count c "t");
      Client.close c)

let test_txn_state_errors () =
  with_server (fun ~socket ~db_path:_ ~server:_ ->
      let c = ok (Client.connect ~actor:"u" ~socket ()) in
      checkb "commit without begin refused" true
        (Result.is_error (Client.commit c));
      checkb "rollback without begin refused" true
        (Result.is_error (Client.rollback c));
      ok (Client.begin_ c);
      checkb "nested begin refused" true (Result.is_error (Client.begin_ c));
      ok (Client.rollback c);
      Client.close c)

let test_admission_and_limits () =
  with_server
    ~tweak:(fun c -> { c with Server.max_sessions = 1; Server.max_rows = 3 })
    (fun ~socket ~db_path:_ ~server:_ ->
      let c1 = ok (Client.connect ~actor:"u" ~socket ()) in
      (match Client.connect ~actor:"u" ~socket () with
      | Ok c2 ->
          Client.close c2;
          Alcotest.fail "second session must be refused"
      | Error _ -> ());
      for k = 2 to 6 do
        match
          Client.query c1 (Printf.sprintf "INSERT INTO t VALUES (%d)" k)
        with
        | Ok (Protocol.Affected 1) -> ()
        | _ -> Alcotest.fail "insert failed"
      done;
      (match Client.query c1 "SELECT k FROM t" with
      | Ok (Protocol.Error_reply { code = Protocol.LIMIT; _ }) -> ()
      | _ -> Alcotest.fail "over-limit result must be refused with LIMIT");
      (match Client.query c1 "SELECT k FROM t LIMIT 2" with
      | Ok (Protocol.Rows { rows; _ }) -> checki "under limit" 2 (List.length rows)
      | _ -> Alcotest.fail "bounded query must pass");
      Client.close c1)

let test_ping_and_stats () =
  with_server
    ~tweak:(fun c -> { c with Server.metrics = true })
    (fun ~socket ~db_path:_ ~server:_ ->
      Fun.protect
        ~finally:(fun () -> Obs.set_enabled false)
        (fun () ->
          let c = ok (Client.connect ~actor:"u" ~socket ()) in
          ok (Client.ping c);
          ignore (count c "t");
          let page = ok (Client.stats c) in
          List.iter
            (fun needle ->
              checkb (needle ^ " on stats page") true (contains page needle))
            [ "serve.sessions.opened"; "serve.queries"; "sessions" ];
          Client.close c))

let test_dirty_shutdown_wal_replay () =
  with_server (fun ~socket ~db_path ~server:_ ->
      let committed = ref 0 in
      let c = ok (Client.connect ~actor:"u" ~socket ()) in
      (* a committed multi-statement txn and an autocommit write, all
         acked before the "crash" *)
      ok (Client.begin_ c);
      (match Client.query c "INSERT INTO t VALUES (21)" with
      | Ok (Protocol.Affected 1) -> incr committed
      | _ -> Alcotest.fail "txn insert failed");
      (match Client.query c "INSERT INTO t VALUES (23)" with
      | Ok (Protocol.Affected 1) -> incr committed
      | _ -> Alcotest.fail "txn insert failed");
      ok (Client.commit c);
      (match Client.query c "INSERT INTO t VALUES (22)" with
      | Ok (Protocol.Affected 1) -> incr committed
      | _ -> Alcotest.fail "autocommit insert failed");
      (* and one rolled-back write that must NOT reappear *)
      ok (Client.begin_ c);
      ignore (Client.query c "INSERT INTO t VALUES (666)");
      ok (Client.rollback c);
      (* dirty = skip the checkpoint: the image on disk predates every
         commit above, so reopening must replay them from the WAL *)
      (match Client.shutdown c ~dirty:true with Ok () | Error _ -> ());
      Client.close c;
      checkb "wal survives dirty shutdown" true
        (Sys.file_exists (Wal.wal_path db_path));
      let config =
        {
          (Server.default_config ~socket_path:(socket ^ "2")) with
          Server.metrics = false;
        }
      in
      let s2 = ok (Server.create config ~db_path) in
      checkb "replayed something" true (Server.replayed s2 > 0);
      (match Exec.query (Server.db s2) ~actor:"u" "SELECT k FROM t" with
      | Ok (Exec.Rows rs) ->
          let keys =
            List.filter_map
              (fun row ->
                match row with [| Dtype.Int k |] -> Some k | _ -> None)
              rs.Exec.rows
          in
          checki "all acked rows recovered" (1 + !committed)
            (List.length keys);
          checkb "committed rows present" true
            (List.mem 21 keys && List.mem 23 keys && List.mem 22 keys);
          checkb "rolled-back row absent" true (not (List.mem 666 keys))
      | _ -> Alcotest.fail "recovered db unreadable");
      (* a clean stop checkpoints: image saved, WAL truncated *)
      Server.stop s2;
      let d = Domain.spawn (fun () -> Server.serve s2) in
      (match Domain.join d with Ok () -> () | Error _ -> ());
      checkb "clean stop checkpointed (wal empty)" true
        ((ok (Wal.replay (Wal.wal_path db_path))).Wal.committed = []))

let test_concurrent_clients_interleave () =
  with_server (fun ~socket ~db_path:_ ~server:_ ->
      (* two domains, each its own session + table, interleaving txns *)
      let worker i () =
        match Client.connect ~actor:(Printf.sprintf "w%d" i) ~socket () with
        | Error m -> Error m
        | Ok c ->
            let ( let* ) = Result.bind in
            let q sql =
              match Client.query c sql with
              | Ok (Protocol.Error_reply { message; _ }) -> Error message
              | Ok _ -> Ok ()
              | Error m -> Error m
            in
            let r =
              let* () = q "CREATE TABLE own (k int)" in
              let rec loop k =
                if k > 10 then Ok ()
                else
                  let* () = Client.begin_ c in
                  let* () =
                    q (Printf.sprintf "INSERT INTO own VALUES (%d)" k)
                  in
                  let* () = Client.commit c in
                  loop (k + 1)
              in
              let* () = loop 1 in
              match Client.query c "SELECT k FROM own" with
              | Ok (Protocol.Rows { rows; _ }) -> Ok (List.length rows)
              | Ok _ -> Error "unexpected reply"
              | Error m -> Error m
            in
            Client.close c;
            r
      in
      let doms = List.init 4 (fun i -> Domain.spawn (worker i)) in
      List.iter
        (fun d ->
          match Domain.join d with
          | Ok n -> checki "every txn committed" 10 n
          | Error m -> Alcotest.fail m)
        doms)

(* ---- snapshot-isolation model ------------------------------------------ *)

(* Two sessions run random interleavings of transaction control, writes
   (inside a transaction and autocommit) and aggregate reads on two
   tables. The reference is the committed state with a stamp per table
   (the commit clock of its last change), plus each open transaction's
   BEGIN clock and private view. It predicts every reply, including
   which COMMITs lose: a transaction conflicts when a table it wrote
   changed after its BEGIN (table-granular first-committer-wins). *)

type si_op =
  | Si_begin of int
  | Si_commit of int
  | Si_rollback of int
  | Si_insert of int * int * int (* session, table, k *)
  | Si_delete of int * int * int (* session, table, DELETE ... WHERE k = v *)
  | Si_read of int * int

type si_txn = {
  begin_clock : int;
  view : int list array;
  written : bool array; (* a successful write statement ran here *)
  changed : bool array; (* ... and it touched at least one row *)
}

let si_tables = [| "a"; "b" |]

let si_gen =
  QCheck2.Gen.(
    let s = int_bound 1 and tb = int_bound 1 and k = int_bound 4 in
    list_size (int_range 1 40)
      (frequency
         [
           (2, map (fun s -> Si_begin s) s);
           (2, map (fun s -> Si_commit s) s);
           (1, map (fun s -> Si_rollback s) s);
           (4, map3 (fun s t k -> Si_insert (s, t, k)) s tb k);
           (2, map3 (fun s t k -> Si_delete (s, t, k)) s tb k);
           (3, map2 (fun s t -> Si_read (s, t)) s tb);
         ]))

let si_print = function
  | Si_begin s -> Printf.sprintf "%d:BEGIN" s
  | Si_commit s -> Printf.sprintf "%d:COMMIT" s
  | Si_rollback s -> Printf.sprintf "%d:ROLLBACK" s
  | Si_insert (s, t, k) -> Printf.sprintf "%d:INSERT %s %d" s si_tables.(t) k
  | Si_delete (s, t, k) -> Printf.sprintf "%d:DELETE %s %d" s si_tables.(t) k
  | Si_read (s, t) -> Printf.sprintf "%d:READ %s" s si_tables.(t)

(* The reply each op must get, rendered as a short string. *)
let si_expected ops =
  let committed = [| []; [] |] and stamp = [| 0; 0 |] and clock = ref 0 in
  let txns = [| None; None |] in
  let change t rows =
    committed.(t) <- rows;
    incr clock;
    stamp.(t) <- !clock
  in
  let rows_of s t =
    match txns.(s) with Some x -> x.view.(t) | None -> committed.(t)
  in
  let write s t rows affected =
    (match txns.(s) with
    | Some x ->
        x.view.(t) <- rows;
        x.written.(t) <- true;
        if affected > 0 then x.changed.(t) <- true
    | None -> if affected > 0 then change t rows);
    Printf.sprintf "affected %d" affected
  in
  List.map
    (function
      | Si_begin s -> (
          match txns.(s) with
          | Some _ -> "TXN_STATE"
          | None ->
              txns.(s) <-
                Some
                  {
                    begin_clock = !clock;
                    view = Array.copy committed;
                    written = [| false; false |];
                    changed = [| false; false |];
                  };
              "ok")
      | Si_rollback s -> (
          match txns.(s) with
          | None -> "TXN_STATE"
          | Some _ ->
              txns.(s) <- None;
              "ok")
      | Si_commit s -> (
          match txns.(s) with
          | None -> "TXN_STATE"
          | Some x ->
              txns.(s) <- None;
              let conflict = ref false in
              Array.iteri
                (fun t w -> if w && stamp.(t) > x.begin_clock then conflict := true)
                x.written;
              if !conflict then "CONFLICT"
              else begin
                Array.iteri (fun t c -> if c then change t x.view.(t)) x.changed;
                "ok"
              end)
      | Si_insert (s, t, k) -> write s t (k :: rows_of s t) 1
      | Si_delete (s, t, k) ->
          let rows = rows_of s t in
          let kept = List.filter (fun r -> r <> k) rows in
          write s t kept (List.length rows - List.length kept)
      | Si_read (s, t) ->
          let rows = rows_of s t in
          Printf.sprintf "rows %d %s" (List.length rows)
            (if rows = [] then "NULL" else string_of_int (List.fold_left ( + ) 0 rows)))
    ops

let si_actual clients ops =
  let status = function
    | Ok () -> "ok"
    | Error m -> (
        match String.index_opt m ':' with Some i -> String.sub m 0 i | None -> m)
  in
  let query s sql =
    match Client.query clients.(s) sql with
    | Ok (Protocol.Affected n) -> Printf.sprintf "affected %d" n
    | Ok (Protocol.Rows { rows = [ [| Dtype.Int n; sum |] ]; _ }) ->
        Printf.sprintf "rows %d %s" n
          (match sum with
          | Dtype.Int v -> string_of_int v
          | Dtype.Null -> "NULL"
          | v -> Dtype.value_to_display v)
    | Ok (Protocol.Error_reply { message; _ }) -> "error " ^ message
    | Ok _ -> "unexpected reply"
    | Error m -> "transport " ^ m
  in
  List.map
    (function
      | Si_begin s -> status (Client.begin_ clients.(s))
      | Si_commit s -> status (Client.commit clients.(s))
      | Si_rollback s -> status (Client.rollback clients.(s))
      | Si_insert (s, t, k) ->
          query s (Printf.sprintf "INSERT INTO %s VALUES (%d)" si_tables.(t) k)
      | Si_delete (s, t, k) ->
          query s (Printf.sprintf "DELETE FROM %s WHERE k = %d" si_tables.(t) k)
      | Si_read (s, t) ->
          query s (Printf.sprintf "SELECT count(*), sum(k) FROM %s" si_tables.(t)))
    ops

let test_snapshot_isolation_model () =
  with_server (fun ~socket ~db_path:_ ~server:_ ->
      let clients =
        Array.init 2 (fun _ -> ok (Client.connect ~actor:"u" ~socket ()))
      in
      Array.iter
        (fun name ->
          match Client.query clients.(0) ("CREATE TABLE " ^ name ^ " (k int)") with
          | Ok (Protocol.Error_reply { message; _ }) | Error message ->
              Alcotest.fail message
          | Ok _ -> ())
        si_tables;
      let prop ops =
        (* every case starts with no open transaction and empty tables *)
        Array.iter (fun c -> ignore (Client.rollback c)) clients;
        Array.iter
          (fun name -> ignore (Client.query clients.(0) ("DELETE FROM " ^ name)))
          si_tables;
        let expected = si_expected ops and actual = si_actual clients ops in
        if expected = actual then true
        else
          QCheck2.Test.fail_reportf "expected [%s]@ got [%s]"
            (String.concat "; " expected) (String.concat "; " actual)
      in
      QCheck2.Test.check_exn
        ~rand:(Random.State.make [| 18 |])
        (QCheck2.Test.make ~count:150 ~name:"snapshot isolation model"
           ~print:(fun ops -> String.concat "; " (List.map si_print ops))
           si_gen prop);
      Array.iter Client.close clients)

let suites =
  [
    ( "serve protocol",
      [
        Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
        Alcotest.test_case "reply roundtrip" `Quick test_reply_roundtrip;
        Alcotest.test_case "decode rejects garbage" `Quick
          test_decode_rejects_garbage;
        Alcotest.test_case "incremental framing" `Quick test_framing_incremental;
      ] );
    ( "serve wal",
      [
        Alcotest.test_case "append/flush/replay roundtrip" `Quick
          test_wal_roundtrip;
        Alcotest.test_case "torn tail tolerated" `Quick test_wal_torn_tail;
        Alcotest.test_case "truncate" `Quick test_wal_truncate;
        Alcotest.test_case "crash matrix keeps acked txns" `Quick
          test_wal_crash_matrix;
      ] );
    ( "serve sessions",
      [
        Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
        Alcotest.test_case "read-your-writes and publish on commit" `Quick
          test_txn_read_your_writes;
        Alcotest.test_case "first committer wins" `Quick
          test_write_write_conflict;
        Alcotest.test_case "rollback discards" `Quick test_rollback_discards;
        Alcotest.test_case "txn state errors" `Quick test_txn_state_errors;
        Alcotest.test_case "admission and row limit" `Quick
          test_admission_and_limits;
        Alcotest.test_case "ping and stats over the wire" `Quick
          test_ping_and_stats;
        Alcotest.test_case "dirty shutdown recovers via WAL" `Quick
          test_dirty_shutdown_wal_replay;
        Alcotest.test_case "four clients interleave txns" `Quick
          test_concurrent_clients_interleave;
        Alcotest.test_case "snapshot isolation model" `Quick
          test_snapshot_isolation_model;
      ] );
  ]
