(* Cluster durability and self-healing: the coordinator manifest codec
   and its crash-safe save, the WAL applied-LSN cursor, shard resync /
   rejoin with epoch fencing, coordinator restart from a state
   directory (torn log tails included), serve-flag validation, and a
   two-server remote crash/recovery acceptance run. *)

module D = Genalg_storage.Dtype
module Db = Genalg_storage.Database
module Wal = Genalg_storage.Wal
module Exec = Genalg_sqlx.Exec
module Cluster = Genalg_shard.Cluster
module Manifest = Genalg_shard.Manifest
module Fault = Genalg_fault.Fault
module Obs = Genalg_obs.Obs
module Server = Genalg_serve.Server
module Client = Genalg_serve.Client
module Proto = Genalg_serve.Protocol

let check = Alcotest.(check string)
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let err = function
  | Error e -> e
  | Ok _ -> Alcotest.fail "expected an error"

let attach db = Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default

let str_contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub hay i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let actor = "etl"

let with_tmp_dir f =
  let dir = Filename.temp_file "genalg_cluster" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      rm dir)
    (fun () -> f dir)

(* ---- fixture (the 33-query corpus shared with test_shard) -------------- *)

let organisms = [| "human"; "mouse"; "yeast"; "ecoli" |]

let seed_sql =
  "CREATE TABLE seqs (organism string, accession string, len int, score float, seq string)"
  :: List.concat
       (List.init 32 (fun i ->
            let org = organisms.(i mod 4) in
            let len =
              if i mod 7 = 0 then "NULL" else string_of_int (40 + (i * 3 mod 60))
            in
            let score =
              if i mod 11 = 3 then "NULL" else Printf.sprintf "%d.5" (i mod 9)
            in
            [
              Printf.sprintf
                "INSERT INTO seqs VALUES ('%s', 'ACC%04d', %s, %s, '%s')" org i
                len score
                (String.init 24 (fun j -> "ACGT".[(i + j) mod 4]));
            ]))

let run_seed runner = List.iter (fun sql -> ignore (ok (runner sql))) seed_sql

let row_bytes rows =
  String.concat "|"
    (List.map (fun r -> Bytes.to_string (D.encode_row r)) rows)

let assert_same single cl sql =
  let a = Exec.query single ~actor sql in
  let b = Cluster.query cl ~actor sql in
  match a, b with
  | Ok (Exec.Rows ra), Ok (Exec.Rows rb) ->
      check (sql ^ " [columns]")
        (String.concat "," ra.Exec.columns)
        (String.concat "," rb.Exec.columns);
      check (sql ^ " [rows]") (row_bytes ra.Exec.rows) (row_bytes rb.Exec.rows)
  | Ok (Exec.Affected na), Ok (Exec.Affected nb) -> checki sql na nb
  | Ok Exec.Executed, Ok Exec.Executed -> ()
  | Error ea, Error eb -> check (sql ^ " [error]") ea eb
  | _ -> Alcotest.failf "%s: outcomes diverge" sql

let corpus =
  [
    "SELECT * FROM seqs";
    "SELECT accession, len FROM seqs";
    "SELECT accession, len FROM seqs WHERE organism = 'human'";
    "SELECT accession FROM seqs WHERE 'mouse' = organism";
    "SELECT accession, len FROM seqs WHERE len > 50";
    "SELECT accession FROM seqs WHERE len > 50 AND organism = 'yeast'";
    "SELECT accession, score FROM seqs WHERE score <= 4.5 AND len >= 40";
    "SELECT upper(organism), strlen(seq) FROM seqs WHERE len <> 46";
    "SELECT accession FROM seqs ORDER BY accession DESC";
    "SELECT accession, len FROM seqs ORDER BY len DESC, accession ASC";
    "SELECT accession, len FROM seqs ORDER BY len ASC LIMIT 5";
    "SELECT * FROM seqs LIMIT 7";
    "SELECT accession FROM seqs WHERE organism = 'nope'";
    "SELECT count(*) FROM seqs";
    "SELECT count(len) FROM seqs";
    "SELECT sum(len), min(len), max(len), avg(len) FROM seqs";
    "SELECT sum(score), avg(score) FROM seqs WHERE organism = 'human'";
    "SELECT count(*) FROM seqs WHERE organism = 'nope'";
    "SELECT sum(len) FROM seqs WHERE organism = 'nope'";
    "SELECT organism, count(*) FROM seqs GROUP BY organism";
    "SELECT organism, sum(len), avg(score) FROM seqs GROUP BY organism";
    "SELECT organism, count(*) FROM seqs GROUP BY organism HAVING count(*) > 7";
    "SELECT organism, min(accession) FROM seqs GROUP BY organism ORDER BY count(*) DESC, organism ASC";
    "SELECT organism, sum(len) + 1 FROM seqs GROUP BY organism ORDER BY organism";
    "SELECT upper(organism), count(*) FROM seqs GROUP BY upper(organism) ORDER BY upper(organism)";
    "SELECT organism FROM seqs WHERE len > 90 GROUP BY organism";
    "SELECT count(*) + 1 FROM seqs WHERE organism = 'nope'";
    "SELECT nosuch FROM seqs";
    "SELECT accession FROM nosuchtable";
    "SELECT sum(organism) FROM seqs";
    "SELECT organism FROM seqs GROUP BY organism HAVING sum(len)";
    "SELECT a.accession, b.accession FROM seqs a, seqs b WHERE a.len = b.len AND a.organism = 'yeast' ORDER BY a.accession, b.accession LIMIT 10";
  ]

let fresh_single () =
  let single = Db.create () in
  attach single;
  run_seed (Exec.query single ~actor);
  single

let all_serving cl =
  Array.for_all (fun s -> s = Cluster.Serving) (Cluster.shard_states cl)

(* drive read probes until every member rejoined (breaker half-open
   pacing means a few reads may pass before a probe is granted) *)
let heal cl =
  let rec go n =
    if n = 0 then Alcotest.fail "cluster did not heal"
    else begin
      ignore (Cluster.query cl ~actor "SELECT count(*) FROM seqs");
      if not (all_serving cl) then go (n - 1)
    end
  in
  if not (all_serving cl) then go 50

(* ---- manifest codec ---------------------------------------------------- *)

let mf_local =
  {
    Manifest.topology = Manifest.Local { shards = 3; replicas = true };
    pcols = [ ("genes", "organism"); ("seqs", "organism") ];
    next_seq = 42;
    log_base = 7;
    shards =
      [
        { Manifest.epoch = 2; primary_applied = 41; replica_applied = Some 40 };
        { Manifest.epoch = 0; primary_applied = 41; replica_applied = Some 41 };
        { Manifest.epoch = 1; primary_applied = 39; replica_applied = None };
      ];
  }

let mf_remote =
  {
    Manifest.topology =
      Manifest.Remote
        {
          actor = "etl";
          sockets = [ "/tmp/s0.sock"; "/tmp/s1.sock" ];
          replicas = [];
        };
    pcols = [];
    next_seq = 1;
    log_base = 0;
    shards =
      [
        { Manifest.epoch = 0; primary_applied = 0; replica_applied = None };
        { Manifest.epoch = 3; primary_applied = 17; replica_applied = None };
      ];
  }

let test_manifest_roundtrip () =
  List.iter
    (fun mf ->
      match Manifest.decode (Manifest.encode mf) with
      | Ok mf' -> checkb "decode(encode) = id" true (mf = mf')
      | Error e -> Alcotest.failf "roundtrip failed: %s" e)
    [ mf_local; mf_remote ]

let test_manifest_corruption () =
  let raw = Manifest.encode mf_local in
  (* bad magic *)
  let bad = Bytes.of_string raw in
  Bytes.set bad 0 'X';
  checkb "bad magic rejected" true
    (Result.is_error (Manifest.decode (Bytes.to_string bad)));
  (* flip one body byte: CRC must catch it *)
  let flipped = Bytes.of_string raw in
  let pos = String.length raw - 3 in
  Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 0xff));
  let e = err (Manifest.decode (Bytes.to_string flipped)) in
  checkb "checksum mismatch reported" true (str_contains e "checksum");
  (* truncated body *)
  checkb "truncation rejected" true
    (Result.is_error
       (Manifest.decode (String.sub raw 0 (String.length raw - 4))))

let test_manifest_save_load () =
  with_tmp_dir (fun dir ->
      check "fresh dir has no manifest" "none"
        (match ok (Manifest.load ~dir) with None -> "none" | Some _ -> "some");
      ok (Manifest.save mf_local ~dir);
      (match ok (Manifest.load ~dir) with
      | Some mf -> checkb "load = saved" true (mf = mf_local)
      | None -> Alcotest.fail "manifest missing after save");
      (* a newer save atomically replaces the old one *)
      ok (Manifest.save mf_remote ~dir);
      (match ok (Manifest.load ~dir) with
      | Some mf -> checkb "replaced" true (mf = mf_remote)
      | None -> Alcotest.fail "manifest missing after resave");
      (* a stray tmp from an interrupted save is swept *)
      let tmp = Manifest.path dir ^ ".tmp" in
      Out_channel.with_open_bin tmp (fun oc -> output_string oc "junk");
      (match ok (Manifest.load ~dir) with
      | Some mf -> checkb "tmp ignored" true (mf = mf_remote)
      | None -> Alcotest.fail "manifest missing");
      checkb "stray tmp removed" false (Sys.file_exists tmp))

(* ---- WAL applied-LSN cursor -------------------------------------------- *)

let test_wal_markers_and_cursor () =
  with_tmp_dir (fun dir ->
      let file = Filename.concat dir "cursor.wal" in
      let w = ok (Wal.open_ file) in
      let stmt txn sql =
        Wal.append_begin w ~txn;
        Wal.append_stmt w ~txn ~actor:"a" ~sql;
        Wal.append_marker w ~txn ~lsn:txn;
        Wal.append_commit w ~txn
      in
      stmt 1 "one";
      stmt 2 "two";
      stmt 3 "three";
      (* txn 4 never commits: its statement and marker must not count *)
      Wal.append_begin w ~txn:4;
      Wal.append_stmt w ~txn:4 ~actor:"a" ~sql:"four";
      Wal.append_marker w ~txn:4 ~lsn:4;
      ok (Wal.flush w);
      Wal.close w;
      let rp = ok (Wal.replay file) in
      checki "committed statements" 3 (List.length rp.Wal.committed);
      checki "uncommitted statements discarded" 1 rp.Wal.discarded;
      check "last_lsn is highest committed marker" "3"
        (match rp.Wal.last_lsn with Some l -> string_of_int l | None -> "-");
      let from1 = ok (Wal.replay_from file ~lsn:1) in
      check "cursor skips txns <= lsn" "two,three"
        (String.concat ","
           (List.map (fun s -> s.Wal.rp_sql) from1.Wal.committed));
      check "last_lsn still reflects the whole log" "3"
        (match from1.Wal.last_lsn with Some l -> string_of_int l | None -> "-");
      let from3 = ok (Wal.replay_from file ~lsn:3) in
      checki "empty delta" 0 (List.length from3.Wal.committed))

(* ---- serve flag validation --------------------------------------------- *)

let test_shard_topology_validation () =
  let okv id count =
    ok (Server.shard_topology ~shard_id:id ~shard_count:count)
  in
  let errv id count =
    err (Server.shard_topology ~shard_id:id ~shard_count:count)
  in
  check "standalone" "standalone" (okv None None);
  check "valid pair" "shard 2/4" (okv (Some 2) (Some 4));
  check "first of one" "shard 0/1" (okv (Some 0) (Some 1));
  checkb "id without count" true
    (str_contains (errv (Some 1) None) "--shard-count");
  checkb "count without id" true
    (str_contains (errv None (Some 3)) "--shard-id");
  checkb "count <= 0" true
    (str_contains (errv (Some 0) (Some 0)) "positive");
  checkb "negative count" true
    (str_contains (errv (Some 0) (Some (-2))) "positive");
  checkb "negative id" true
    (str_contains (errv (Some (-1)) (Some 2)) "non-negative");
  checkb "id >= count" true
    (str_contains (errv (Some 2) (Some 2)) "out of range")

(* ---- local resync / rejoin / fencing ----------------------------------- *)

let test_local_resync_rejoin () =
  Obs.set_enabled true;
  let single = fresh_single () in
  let cl = ok (Cluster.create_local ~attach ~shards:3 ()) in
  run_seed (Cluster.query cl ~actor);
  Fun.protect
    ~finally:(fun () -> Fault.disable ())
    (fun () ->
      let v name = Obs.value (Obs.counter name) in
      let bumps0 = v "shard.epoch.bumps" in
      let rejoin0 = v "shard.rejoin.count" in
      let replayed0 = v "shard.resync.replayed" in
      ok (Fault.configure "shard.0.primary:error");
      (* the first read marks the primary down and fences the pair *)
      assert_same single cl "SELECT accession FROM seqs ORDER BY accession";
      checkb "epoch bumped on primary loss" true
        (Cluster.epoch cl 0 > 0 && v "shard.epoch.bumps" > bumps0);
      checkb "shard degraded or resyncing" true (not (all_serving cl));
      (* writes while a member is down land everywhere else and are
         logged; the statement itself never fails *)
      let missed_statements = 5 in
      for i = 0 to missed_statements - 2 do
        ignore
          (ok
             (Cluster.query cl ~actor
                (Printf.sprintf
                   "INSERT INTO seqs VALUES ('human','NEW%02d',%d,1.5,'ACGT')"
                   i (100 + i))));
        ignore
          (ok
             (Exec.query single ~actor
                (Printf.sprintf
                   "INSERT INTO seqs VALUES ('human','NEW%02d',%d,1.5,'ACGT')"
                   i (100 + i))))
      done;
      ignore (ok (Cluster.query cl ~actor "DELETE FROM seqs WHERE len = 46"));
      ignore (ok (Exec.query single ~actor "DELETE FROM seqs WHERE len = 46"));
      (* fault clears; breaker probes drive resync until rejoin *)
      Fault.disable ();
      heal cl;
      checkb "member rejoined" true (v "shard.rejoin.count" > rejoin0);
      let replayed = v "shard.resync.replayed" - replayed0 in
      checkb "resync replayed something" true (replayed > 0);
      checkb "bounded: replayed <= statements missed" true
        (replayed <= missed_statements);
      (* the healed primary agrees with its replica byte-for-byte *)
      (match Cluster.primary_db cl 0, Cluster.replica_db cl 0 with
      | Some p, Some r ->
          let dump db =
            match ok (Exec.query db ~actor "SELECT * FROM seqs") with
            | Exec.Rows rs -> row_bytes rs.Exec.rows
            | _ -> ""
          in
          check "primary = replica after rejoin" (dump p) (dump r)
      | _ -> Alcotest.fail "local cluster must expose shard stores");
      List.iter (assert_same single cl) corpus)

(* ---- coordinator state directory: restart, torn tails, checkpoint ------ *)

let test_open_dir_restart () =
  with_tmp_dir (fun tmp ->
      let dir = Filename.concat tmp "coord" in
      let single = fresh_single () in
      let cl = ok (Cluster.create_local ~attach ~shards:3 ~dir ()) in
      run_seed (Cluster.query cl ~actor);
      ignore
        (ok
           (Cluster.query cl ~actor
              "INSERT INTO seqs VALUES ('mouse','RST01',88,4.5,'ACGT')"));
      ignore
        (ok
           (Exec.query single ~actor
              "INSERT INTO seqs VALUES ('mouse','RST01',88,4.5,'ACGT')"));
      Cluster.close cl;
      (* a second fresh-create on the same directory must refuse *)
      (match Cluster.create_local ~attach ~shards:3 ~dir () with
      | Ok _ -> Alcotest.fail "create_local reused a live state directory"
      | Error msg ->
          checkb "refusal names open_dir" true (str_contains msg "open_dir"));
      let cl2 = ok (Cluster.open_dir ~attach ~dir ()) in
      checkb "all shards serving after restart" true (all_serving cl2);
      List.iter (assert_same single cl2) corpus;
      (* writes keep working and LSNs stay monotone after recovery *)
      ignore
        (ok
           (Cluster.query cl2 ~actor
              "INSERT INTO seqs VALUES ('yeast','RST02',89,4.5,'ACGT')"));
      ignore
        (ok
           (Exec.query single ~actor
              "INSERT INTO seqs VALUES ('yeast','RST02',89,4.5,'ACGT')"));
      List.iter (assert_same single cl2)
        [ "SELECT count(*) FROM seqs"; "SELECT * FROM seqs" ];
      Cluster.close cl2)

let test_open_dir_torn_tail () =
  with_tmp_dir (fun tmp ->
      let dir = Filename.concat tmp "coord" in
      let single = fresh_single () in
      let cl = ok (Cluster.create_local ~attach ~shards:2 ~dir ()) in
      run_seed (Cluster.query cl ~actor);
      Cluster.close cl;
      (* tear the statement log's tail: garbage after the last record *)
      let log = Filename.concat dir "statements.log" in
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o644 log
      in
      output_string oc "\x7f\x00garbage-torn-tail\x01\x02";
      close_out oc;
      let cl2 = ok (Cluster.open_dir ~attach ~dir ()) in
      checkb "serving after torn-tail recovery" true (all_serving cl2);
      List.iter (assert_same single cl2) corpus;
      Cluster.close cl2;
      (* the rebuilt log must replay clean (no torn flag) *)
      let rp = ok (Wal.replay log) in
      checkb "log rebuilt without tear" false rp.Wal.torn;
      (* and a second recovery still agrees *)
      let cl3 = ok (Cluster.open_dir ~attach ~dir ()) in
      List.iter (assert_same single cl3)
        [ "SELECT * FROM seqs"; "SELECT count(*) FROM seqs" ];
      Cluster.close cl3)

let test_checkpoint () =
  with_tmp_dir (fun tmp ->
      let dir = Filename.concat tmp "coord" in
      let single = fresh_single () in
      let cl = ok (Cluster.create_local ~attach ~shards:2 ~dir ()) in
      run_seed (Cluster.query cl ~actor);
      Fun.protect
        ~finally:(fun () -> Fault.disable ())
        (fun () ->
          (* a down member blocks the checkpoint: truncating the log
             would strand its replay delta *)
          ok (Fault.configure "shard.1.primary:error");
          ignore (Cluster.query cl ~actor "SELECT count(*) FROM seqs");
          let e = err (Cluster.checkpoint cl) in
          checkb "checkpoint refused while degraded" true
            (str_contains e "not serving");
          Fault.disable ();
          heal cl;
          ok (Cluster.checkpoint cl);
          let rp = ok (Wal.replay (Filename.concat dir "statements.log")) in
          checki "log truncated at checkpoint" 0 (List.length rp.Wal.committed);
          Cluster.close cl;
          (* recovery now comes purely from the checkpoint images *)
          let cl2 = ok (Cluster.open_dir ~attach ~dir ()) in
          checkb "serving after image-only recovery" true (all_serving cl2);
          List.iter (assert_same single cl2) corpus;
          Cluster.close cl2))

(* A crash at any step of the staged checkpoint protocol (after the
   images are staged / after the manifest commit / after the promotion,
   before the log truncates) must recover byte-identical: the log's
   statements are replayed exactly once over whatever images survived.
   The promote cell is the classic double-apply window — fully
   checkpointed images plus an intact statement log. *)
let test_checkpoint_crash_atomic () =
  List.iter
    (fun cp ->
      with_tmp_dir (fun tmp ->
          let dir = Filename.concat tmp "coord" in
          let single = fresh_single () in
          let cl = ok (Cluster.create_local ~attach ~shards:2 ~dir ()) in
          run_seed (Cluster.query cl ~actor);
          ok (Fault.configure (cp ^ ":crash"));
          (match Cluster.checkpoint cl with
          | exception Fault.Crash_point site ->
              check "crashed at the configured step" cp site
          | Ok () -> Alcotest.fail "checkpoint survived its crash point"
          | Error e -> Alcotest.failf "checkpoint failed oddly: %s" e);
          Fault.disable ();
          (* the coordinator is dead; recovery must settle the
             interrupted checkpoint and replay each statement once *)
          let cl2 = ok (Cluster.open_dir ~attach ~dir ()) in
          checkb (cp ^ ": serving after recovery") true (all_serving cl2);
          List.iter (assert_same single cl2) corpus;
          (* no staged leftovers survive recovery *)
          Array.iter
            (fun name ->
              checkb (cp ^ ": staged file swept: " ^ name) false
                (str_contains name ".ckpt-"))
            (Sys.readdir dir);
          (* the next checkpoint completes and recovery still agrees *)
          ignore
            (ok
               (Cluster.query cl2 ~actor
                  "INSERT INTO seqs VALUES ('human','CKP01',77,3.5,'ACGT')"));
          ignore
            (ok
               (Exec.query single ~actor
                  "INSERT INTO seqs VALUES ('human','CKP01',77,3.5,'ACGT')"));
          ok (Cluster.checkpoint cl2);
          Cluster.close cl2;
          let cl3 = ok (Cluster.open_dir ~attach ~dir ()) in
          List.iter (assert_same single cl3) corpus;
          Cluster.close cl3))
    [
      "shard.checkpoint.stage";
      "shard.checkpoint.commit";
      "shard.checkpoint.promote";
    ]

(* A failed statement-log flush must fail the statement before any
   member applies it (an undurable LSN could be re-assigned after a
   restart) and wedge the coordinator against further writes until the
   state directory is reopened. *)
let test_log_flush_failure_wedges () =
  with_tmp_dir (fun tmp ->
      let dir = Filename.concat tmp "coord" in
      let single = fresh_single () in
      let cl = ok (Cluster.create_local ~attach ~shards:2 ~dir ()) in
      run_seed (Cluster.query cl ~actor);
      let shard_rows () =
        List.fold_left
          (fun acc i ->
            match Cluster.primary_db cl i with
            | Some db -> (
                match ok (Exec.query db ~actor "SELECT count(*) FROM seqs") with
                | Exec.Rows { Exec.rows = [ [| D.Int n |] ]; _ } -> acc + n
                | _ -> Alcotest.fail "count query")
            | None -> Alcotest.fail "local cluster must expose shard stores")
          0 [ 0; 1 ]
      in
      let before = shard_rows () in
      ok (Fault.configure "shard.log.flush:error");
      let e =
        err
          (Cluster.query cl ~actor
             "INSERT INTO seqs VALUES ('human','WDG01',50,1.5,'ACGT')")
      in
      checkb "flush failure fails the statement" true
        (str_contains e "statement log");
      Fault.disable ();
      checki "no member applied the undurable statement" before (shard_rows ());
      (* wedged: the log is healthy again but writes stay refused, and
         so does checkpoint (its images would launder the mirror's
         undurable extra statement into the checkpoint) *)
      let e2 =
        err
          (Cluster.query cl ~actor
             "INSERT INTO seqs VALUES ('human','WDG02',51,1.5,'ACGT')")
      in
      checkb "wedged against further writes" true
        (str_contains e2 "statement log");
      checkb "checkpoint refused while wedged" true
        (Result.is_error (Cluster.checkpoint cl));
      (match ok (Cluster.query cl ~actor "SELECT count(*) FROM seqs") with
      | Exec.Rows _ -> ()
      | _ -> Alcotest.fail "reads must keep serving while wedged");
      (* reopening re-derives state from the durable log: the failed
         statement is gone everywhere and writes work again *)
      let cl2 = ok (Cluster.open_dir ~attach ~dir ()) in
      List.iter (assert_same single cl2) corpus;
      ignore
        (ok
           (Cluster.query cl2 ~actor
              "INSERT INTO seqs VALUES ('human','WDG03',52,1.5,'ACGT')"));
      ignore
        (ok
           (Exec.query single ~actor
              "INSERT INTO seqs VALUES ('human','WDG03',52,1.5,'ACGT')"));
      List.iter (assert_same single cl2)
        [ "SELECT count(*) FROM seqs"; "SELECT * FROM seqs" ];
      Cluster.close cl2)

(* '@' prefixes the statement log's routing records; an actor that
   starts with one would make logged originals parse as routed records
   during recovery, so it is refused at the coordinator entry *)
let test_reserved_actor_refused () =
  let cl = ok (Cluster.create_local ~attach ~shards:2 ()) in
  run_seed (Cluster.query cl ~actor);
  let e = err (Cluster.query cl ~actor:"@0:etl" "SELECT * FROM seqs") in
  checkb "read under a reserved actor refused" true (str_contains e "reserved");
  let e2 =
    err
      (Cluster.query cl ~actor:"@etl"
         "INSERT INTO seqs VALUES ('human','RSV01',1,1.0,'A')")
  in
  checkb "write under a reserved actor refused" true
    (str_contains e2 "reserved")

(* A crash matrix: no fault or a crash-looping shard spec, crossed with
   four coordinator restarts (kept running, clean close, abandoned
   without close, abandoned with a torn statement-log tail). Each cell
   writes while members are down, runs five corpus queries under the
   active faults, restarts and heals. All 40 queries must be
   byte-identical to the single node, resync must replay at most the
   statements members missed, and epochs never go back. *)
let test_crash_matrix () =
  Obs.set_enabled true;
  with_tmp_dir (fun tmp ->
      let dir = Filename.concat tmp "coord" in
      let single = fresh_single () in
      let cl = ref (ok (Cluster.create_local ~attach ~shards:4 ~dir ())) in
      run_seed (Cluster.query !cl ~actor);
      let replayed0 = Obs.value (Obs.counter "shard.resync.replayed") in
      let specs =
        [ None; Some "seed=11;shard.1.primary:error:p=0.6;shard.2.primary:crash:p=0.35" ]
      in
      let restarts = [ `Keep; `Clean_close; `Abandon; `Abandon_torn ] in
      let queries = ref 0 and writes = ref 0 and missed = ref 0 in
      List.iter
        (fun spec ->
          List.iter
            (fun restart ->
              Option.iter (fun s -> ok (Fault.configure s)) spec;
              (* writes land while members are down; the statement log
                 holds their delta for resync *)
              for _ = 1 to 2 do
                let sql =
                  Printf.sprintf
                    "INSERT INTO seqs VALUES ('%s','MTX%02d',%d,2.5,'ACGT')"
                    organisms.(!writes mod 4) !writes (41 + !writes)
                in
                incr writes;
                ignore (ok (Cluster.query !cl ~actor sql));
                ignore (ok (Exec.query single ~actor sql));
                Array.iter
                  (fun st -> if st <> Cluster.Serving then incr missed)
                  (Cluster.shard_states !cl)
              done;
              for _ = 1 to 5 do
                assert_same single !cl
                  (List.nth corpus (!queries mod List.length corpus));
                incr queries
              done;
              Fault.disable ();
              let epochs = Array.init (Cluster.shard_count !cl) (Cluster.epoch !cl) in
              (match restart with
              | `Keep -> ()
              | `Clean_close ->
                  Cluster.close !cl;
                  cl := ok (Cluster.open_dir ~attach ~dir ())
              | (`Abandon | `Abandon_torn) as r ->
                  (* a coordinator crash: the handle is dropped; every
                     statement reached the log when it ran *)
                  if r = `Abandon_torn then
                    Out_channel.with_open_gen [ Open_append; Open_binary ] 0o600
                      (Filename.concat dir "statements.log")
                      (fun oc -> output_string oc "\x7f\x00torn-tail-garbage\x01\x02");
                  cl := ok (Cluster.open_dir ~attach ~dir ()));
              Array.iteri
                (fun i e0 -> checkb "epoch never goes back" true (Cluster.epoch !cl i >= e0))
                epochs;
              heal !cl)
            restarts)
        specs;
      checki "matrix queries identical to single node" 40 !queries;
      let replayed = Obs.value (Obs.counter "shard.resync.replayed") - replayed0 in
      checkb "resync replayed something" true (replayed > 0);
      checkb "bounded: replayed <= statements missed" true (replayed <= !missed);
      checkb "every shard back in serving" true (all_serving !cl);
      Cluster.close !cl)

(* ---- remote acceptance: crash a shard server AND the coordinator ------- *)

let topology2 i = Printf.sprintf "shard %d/2" i

let start_server dir i =
  let db_path = Filename.concat dir (Printf.sprintf "s%d.db" i) in
  let socket = Filename.concat dir (Printf.sprintf "s%d.sock" i) in
  if not (Sys.file_exists db_path) then begin
    let db = Db.create () in
    ok (Db.save db db_path)
  end;
  let config =
    {
      (Server.default_config ~socket_path:socket) with
      Server.metrics = false;
      attach;
      topology = topology2 i;
    }
  in
  let server = ok (Server.create config ~db_path) in
  let dom = Domain.spawn (fun () -> Server.serve server) in
  let rec wait_ready n =
    if n = 0 then Alcotest.fail "shard server did not come up"
    else
      match Client.connect ~actor:"probe" ~socket () with
      | Ok c -> Client.close c
      | Error _ ->
          Unix.sleepf 0.02;
          wait_ready (n - 1)
  in
  wait_ready 200;
  (socket, server, dom)

let stop_server (_, server, dom) =
  Server.stop server;
  match Domain.join dom with Ok () -> () | Error _ -> ()

let test_remote_crash_recovery () =
  Obs.set_enabled true;
  with_tmp_dir (fun dir ->
      let state = Filename.concat dir "coord" in
      let s0 = ref (start_server dir 0) in
      let s1 = start_server dir 1 in
      Fun.protect
        ~finally:(fun () ->
          stop_server !s0;
          stop_server s1)
        (fun () ->
          let sockets =
            [ (let s, _, _ = !s0 in s); (let s, _, _ = s1 in s) ]
          in
          let single = fresh_single () in
          let cl =
            ok (Cluster.create_remote ~attach ~actor ~dir:state ~sockets ())
          in
          run_seed (Cluster.query cl ~actor);
          List.iter (assert_same single cl) corpus;
          (* ---- kill shard 0's primary mid-workload ---- *)
          stop_server !s0;
          let statements_while_down = ref 0 in
          let both_on cl sql =
            incr statements_while_down;
            ignore (ok (Cluster.query cl ~actor sql));
            ignore (ok (Exec.query single ~actor sql))
          in
          let both = both_on cl in
          (* this read cannot reach shard 0: it falls back to the
             mirror, marks the member down and bumps the epoch *)
          assert_same single cl "SELECT accession FROM seqs ORDER BY accession";
          checkb "failover fenced the pair" true (Cluster.epoch cl 0 > 0);
          for i = 0 to 5 do
            both
              (Printf.sprintf
                 "INSERT INTO seqs VALUES ('ecoli','DWN%02d',%d,2.5,'ACGT')" i
                 (60 + i))
          done;
          both "DELETE FROM seqs WHERE len = 43";
          let epoch_after_failover = Cluster.epoch cl 0 in
          (* ---- now the coordinator dies too (no clean close) ---- *)
          let replayed0 = Obs.value (Obs.counter "shard.resync.replayed") in
          (* reopen while shard 0's server is still gone: recovery must
             not depend on the dead server — the coordinator comes back
             degraded, answers the corpus from the mirror and keeps
             taking writes for the detached shard to catch up on *)
          let cl2 = ok (Cluster.open_dir ~attach ~dir:state ()) in
          checkb "degraded open: shard 0 not serving" true
            ((Cluster.shard_states cl2).(0) <> Cluster.Serving);
          List.iter (assert_same single cl2) corpus;
          both_on cl2
            "INSERT INTO seqs VALUES ('ecoli','DEG01',70,2.0,'ACGTACGT')";
          (* the server returns: breaker probes re-dial the remembered
             socket and the shard rejoins with the full delta *)
          s0 := start_server dir 0;
          heal cl2;
          checkb "every shard back in serving" true (all_serving cl2);
          checkb "recovered coordinator kept the fencing epoch" true
            (Cluster.epoch cl2 0 >= epoch_after_failover);
          let replayed =
            Obs.value (Obs.counter "shard.resync.replayed") - replayed0
          in
          checkb "resync replayed something" true (replayed > 0);
          checkb "bounded: replayed <= statements issued while down" true
            (replayed <= !statements_while_down);
          (* the 33-query corpus is byte-identical after recovery *)
          List.iter (assert_same single cl2) corpus;
          (* ---- epoch fencing on the wire ---- *)
          let sock0 = let s, _, _ = !s0 in s in
          let c = ok (Client.connect ~actor ~socket:sock0 ()) in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              (* a writer still on the pre-failover epoch is refused *)
              (match
                 ok
                   (Client.fenced_query c ~epoch:0
                      "INSERT INTO seqs VALUES ('human','STALE',1,1.0,'A')")
               with
              | Proto.Error_reply { code = Proto.FENCED; _ } -> ()
              | _ -> Alcotest.fail "stale epoch write was not fenced");
              (* the current epoch is accepted *)
              (match
                 ok
                   (Client.fenced_query c ~epoch:(Cluster.epoch cl2 0)
                      "SELECT count(*) FROM seqs")
               with
              | Proto.Rows _ -> ()
              | _ -> Alcotest.fail "current epoch refused");
              (* the server reports its cluster state on the stats page *)
              checkb "stats page shows epoch and applied lsn" true
                (str_contains (ok (Client.stats c)) "cluster: epoch"));
          (* the cluster still takes writes after the double recovery *)
          both "INSERT INTO seqs VALUES ('human','POST1',90,3.5,'ACGT')";
          List.iter (assert_same single cl2)
            [ "SELECT count(*) FROM seqs"; "SELECT * FROM seqs" ];
          Cluster.close cl2))

let suites =
  [
    ( "cluster.manifest",
      [
        Alcotest.test_case "codec roundtrip" `Quick test_manifest_roundtrip;
        Alcotest.test_case "corruption rejected" `Quick
          test_manifest_corruption;
        Alcotest.test_case "save/load atomically" `Quick
          test_manifest_save_load;
      ] );
    ( "cluster.wal-cursor",
      [
        Alcotest.test_case "markers and replay_from" `Quick
          test_wal_markers_and_cursor;
      ] );
    ( "cluster.serve-flags",
      [
        Alcotest.test_case "shard id/count validation" `Quick
          test_shard_topology_validation;
      ] );
    ( "cluster.resync",
      [
        Alcotest.test_case "down member resyncs and rejoins" `Quick
          test_local_resync_rejoin;
      ] );
    ( "cluster.durability",
      [
        Alcotest.test_case "coordinator restart from state dir" `Quick
          test_open_dir_restart;
        Alcotest.test_case "torn statement-log tail" `Quick
          test_open_dir_torn_tail;
        Alcotest.test_case "checkpoint gates and truncates" `Quick
          test_checkpoint;
        Alcotest.test_case "checkpoint crash matrix replays exactly once"
          `Quick test_checkpoint_crash_atomic;
        Alcotest.test_case "statement-log flush failure wedges writes" `Quick
          test_log_flush_failure_wedges;
        Alcotest.test_case "reserved '@' actor names refused" `Quick
          test_reserved_actor_refused;
        Alcotest.test_case "crash matrix: faults x coordinator restarts" `Quick
          test_crash_matrix;
      ] );
    ( "cluster.remote-recovery",
      [
        Alcotest.test_case "shard + coordinator crash, resync, fencing"
          `Quick test_remote_crash_recovery;
      ] );
  ]
