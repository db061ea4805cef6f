(* Integration tests for the caching layers (lib/cache + the per-database
   sqlx result cache + mediator response cache): staleness safety after
   writes and ETL deltas, isolation between databases. *)

module D = Genalg_storage.Dtype
module Db = Genalg_storage.Database
module Table = Genalg_storage.Table
module Exec = Genalg_sqlx.Exec
module Source = Genalg_etl.Source
module Monitor = Genalg_etl.Monitor
module Pipeline = Genalg_etl.Pipeline
module Mediator = Genalg_mediator.Mediator
module Obs = Genalg_obs.Obs

let check = Alcotest.check
let tc = Alcotest.test_case

(* every test runs with a clean metrics registry and restores the
   disabled default on the way out; result caches belong to each test's
   own databases, so there is nothing else to reset *)
let isolated f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    f

let counter name = Obs.value (Obs.counter name)

let fixture_db () =
  let db = Db.create () in
  let run sql =
    match Exec.query db ~actor:"u" sql with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "fixture: %s: %s" sql msg
  in
  run "CREATE TABLE frag (id INT, organism STRING, len INT)";
  for i = 1 to 20 do
    run
      (Printf.sprintf "INSERT INTO frag VALUES (%d, '%s', %d)" i
         (if i mod 2 = 0 then "ecoli" else "yeast")
         (i * 50))
  done;
  db

let rows_of = function
  | Ok (Exec.Rows rs) -> rs.Exec.rows
  | Ok _ -> Alcotest.fail "expected rows"
  | Error msg -> Alcotest.fail msg

let count_of db sql =
  match rows_of (Exec.query db ~actor:"u" sql) with
  | [ [| D.Int n |] ] -> n
  | _ -> Alcotest.fail "expected a single count"

(* ---- sqlx: result cache ------------------------------------------------- *)

let test_result_cache_hit () =
  isolated @@ fun () ->
  let db = fixture_db () in
  Obs.reset ();
  let q = "SELECT count(*)   FROM frag" (* odd spacing: the key is the parsed AST *) in
  check Alcotest.int "cold count" 20 (count_of db q);
  check Alcotest.int "warm count identical" 20 (count_of db "SELECT count(*) FROM frag");
  check Alcotest.int "result cache hit" 1 (counter "cache.result.hits");
  check Alcotest.int "queries still counted on hits" 2 (counter "sqlx.queries")

let test_databases_isolated () =
  (* each database owns its result cache: the same SELECT over a
     same-named table in another database never sees this one's rows *)
  isolated @@ fun () ->
  let db_a = fixture_db () in
  let db_b = fixture_db () in
  (match Exec.query db_b ~actor:"u" "INSERT INTO frag VALUES (21, 'ecoli', 999)" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let q = "SELECT count(*) FROM frag" in
  check Alcotest.int "database A counts its own rows" 20 (count_of db_a q);
  check Alcotest.int "database B counts its own rows" 21 (count_of db_b q);
  check Alcotest.int "A again, warm" 20 (count_of db_a q);
  check Alcotest.int "B again, warm" 21 (count_of db_b q);
  check Alcotest.int "each warm read hit its own cache" 2
    (counter "cache.result.hits")

let test_clone_starts_cold () =
  isolated @@ fun () ->
  let db = fixture_db () in
  let q = "SELECT count(*) FROM frag" in
  ignore (count_of db q);
  ignore (count_of db q);
  let copy = Db.clone db in
  Obs.reset ();
  check Alcotest.int "clone sees the copied rows" 20 (count_of copy q);
  check Alcotest.int "clone's first SELECT misses" 1 (counter "cache.result.misses");
  check Alcotest.int "and does not hit" 0 (counter "cache.result.hits")

(* ---- sqlx: staleness safety --------------------------------------------- *)

let test_insert_invalidates_result_cache () =
  isolated @@ fun () ->
  let db = fixture_db () in
  Obs.reset ();
  let q = "SELECT count(*) FROM frag" in
  check Alcotest.int "cold" 20 (count_of db q);
  check Alcotest.int "warm" 20 (count_of db q);
  check Alcotest.int "one hit before the write" 1 (counter "cache.result.hits");
  (match Exec.query db ~actor:"u" "INSERT INTO frag VALUES (21, 'ecoli', 999)" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  check Alcotest.int "no stale count after INSERT" 21 (count_of db q);
  (* validation drops the stale entry at lookup, so the invalidation is
     counted by the re-read *)
  check Alcotest.bool "INSERT invalidated cached results" true
    (counter "cache.result.invalidations" >= 1);
  (match Exec.query db ~actor:"u" "DELETE FROM frag WHERE id = 21" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  check Alcotest.int "no stale count after DELETE" 20 (count_of db q);
  check Alcotest.int "hits did not grow from stale entries" 1
    (counter "cache.result.hits")

let test_miss_sweeps_stale_entries () =
  (* a write leaves the cached count stale; the next miss, on another
     statement, drops it before storing its own result, so dead entries
     never fill the cache *)
  isolated @@ fun () ->
  let db = fixture_db () in
  Obs.reset ();
  ignore (count_of db "SELECT count(*) FROM frag");
  (match Exec.query db ~actor:"u" "INSERT INTO frag VALUES (21, 'ecoli', 999)" with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  check Alcotest.int "no invalidation before a lookup" 0
    (counter "cache.result.invalidations");
  ignore (count_of db "SELECT count(*) FROM frag WHERE len > 300");
  check Alcotest.int "the miss swept the stale count" 1
    (counter "cache.result.invalidations")

let test_direct_table_write_validated () =
  (* a write that bypasses sqlx entirely (direct Table.update, the ETL
     loader's path) must still never yield a stale cached result: version
     validation catches it at lookup time *)
  isolated @@ fun () ->
  let db = fixture_db () in
  Obs.reset ();
  let q = "SELECT count(*) FROM frag WHERE len > 5000" in
  check Alcotest.int "cold: nothing matches" 0 (count_of db q);
  let _, table = Option.get (Db.resolve db ~actor:"u" "frag") in
  Table.insert_exn table [| D.Int 99; D.Str "ecoli"; D.Int 9000 |] |> ignore;
  check Alcotest.int "validated: the new row is visible" 1 (count_of db q);
  check Alcotest.bool "stale entry counted as invalidation" true
    (counter "cache.result.invalidations" >= 1)

let test_etl_refresh_invalidates () =
  isolated @@ fun () ->
  let r = Genalg_synth.Rng.make 91 in
  let entries = Genalg_synth.Recordgen.repository r ~size:10 ~prefix:"CCH" () in
  let src = Source.create ~name:"bank" Source.Logged Source.Flat_file entries in
  let pl = Result.get_ok (Pipeline.create ~sources:[ src ] ()) in
  (match Pipeline.bootstrap pl with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let db = Pipeline.database pl in
  Obs.reset ();
  let q = "SELECT count(*) FROM sequences" in
  let before = count_of db q in
  check Alcotest.int "warm hit before refresh" before (count_of db q);
  check Alcotest.int "one result hit" 1 (counter "cache.result.hits");
  (* a new record lands in the source; the delta-refresh loads it *)
  let extra = List.hd (Genalg_synth.Recordgen.repository r ~size:1 ~prefix:"NEW" ()) in
  Source.apply src [ Source.Insert extra ];
  (match Pipeline.refresh pl with
  | Ok (_, n) -> check Alcotest.bool "refresh saw the delta" true (n >= 1)
  | Error m -> Alcotest.fail m);
  check Alcotest.int "no stale warehouse count after delta-refresh" (before + 1)
    (count_of db q);
  check Alcotest.bool "refresh invalidated the cached result" true
    (counter "cache.result.invalidations" >= 1)

(* ---- mediator: TTL response cache --------------------------------------- *)

let mediator_fixture ?cache_ttl_s () =
  let r = Genalg_synth.Rng.make 92 in
  let entries = Genalg_synth.Recordgen.repository r ~size:12 ~prefix:"MED" () in
  let src = Source.create ~name:"remote" Source.Logged Source.Flat_file entries in
  (entries, src, Mediator.create ?cache_ttl_s ~latency_s:0.05 [ src ])

let test_mediator_cache_hit () =
  isolated @@ fun () ->
  let entries, _src, m = mediator_fixture ~cache_ttl_s:300. () in
  Fun.protect ~finally:(fun () -> Mediator.detach m) @@ fun () ->
  let res1, t1 = Mediator.run ~reconcile:false m Mediator.query_all in
  check Alcotest.int "cold run ships everything" (List.length entries)
    t1.Mediator.records_shipped;
  let res2, t2 = Mediator.run ~reconcile:false m Mediator.query_all in
  check Alcotest.int "warm run ships nothing" 0 t2.Mediator.records_shipped;
  check (Alcotest.float 1e-9) "warm run pays no simulated network" 0.
    t2.Mediator.simulated_network_s;
  check Alcotest.bool "warm run flagged from_cache" true
    (List.for_all (fun s -> s.Mediator.from_cache) t2.Mediator.per_source);
  check Alcotest.int "same results either way" (List.length res1) (List.length res2);
  check Alcotest.int "hit counted" 1 (counter "cache.mediator.hits")

let test_mediator_ttl_expiry () =
  isolated @@ fun () ->
  let _entries, _src, m = mediator_fixture ~cache_ttl_s:0. () in
  Fun.protect ~finally:(fun () -> Mediator.detach m) @@ fun () ->
  ignore (Mediator.run ~reconcile:false m Mediator.query_all);
  let _, t2 = Mediator.run ~reconcile:false m Mediator.query_all in
  check Alcotest.bool "expired entry does not serve" true
    (t2.Mediator.records_shipped > 0);
  check Alcotest.bool "expiry counted as invalidation" true
    (counter "cache.mediator.invalidations" >= 1)

let test_mediator_delta_invalidation () =
  isolated @@ fun () ->
  let entries, src, m = mediator_fixture ~cache_ttl_s:300. () in
  Fun.protect ~finally:(fun () -> Mediator.detach m) @@ fun () ->
  let mon = Result.get_ok (Monitor.create src) in
  ignore (Monitor.poll mon);
  (* warm the cache *)
  let res1, _ = Mediator.run ~reconcile:false m Mediator.query_all in
  check Alcotest.int "baseline" (List.length entries) (List.length res1);
  (* the source changes; the monitor's poll publishes the deltas, which
     must kill the cached response *)
  let r = Genalg_synth.Rng.make 93 in
  let extra = List.hd (Genalg_synth.Recordgen.repository r ~size:1 ~prefix:"HOT" ()) in
  Source.apply src [ Source.Insert extra ];
  let deltas = Monitor.poll mon in
  check Alcotest.int "delta detected" 1 (List.length deltas);
  check Alcotest.bool "notification invalidated the response cache" true
    (counter "cache.mediator.invalidations" >= 1);
  let res2, t2 = Mediator.run ~reconcile:false m Mediator.query_all in
  check Alcotest.int "no stale response after the delta" (List.length entries + 1)
    (List.length res2);
  check Alcotest.bool "the fresh run re-contacted the source" true
    (t2.Mediator.records_shipped > 0)

let test_uncached_mediator_unchanged () =
  isolated @@ fun () ->
  let entries, _src, m = mediator_fixture () in
  let _, t1 = Mediator.run ~reconcile:false m Mediator.query_all in
  let _, t2 = Mediator.run ~reconcile:false m Mediator.query_all in
  check Alcotest.int "default mediator ships every time (Figure 1 baseline)"
    (List.length entries) t1.Mediator.records_shipped;
  check Alcotest.int "and again" (List.length entries) t2.Mediator.records_shipped;
  check Alcotest.int "no cache instruments touched" 0 (counter "cache.mediator.hits")

let suites =
  [
    ( "cache",
      [
        tc "result cache hit" `Quick test_result_cache_hit;
        tc "databases do not share results" `Quick test_databases_isolated;
        tc "clone starts with a cold cache" `Quick test_clone_starts_cold;
        tc "INSERT/DELETE invalidate results" `Quick test_insert_invalidates_result_cache;
        tc "a miss sweeps stale entries" `Quick test_miss_sweeps_stale_entries;
        tc "direct table write never stale" `Quick test_direct_table_write_validated;
        tc "ETL delta-refresh invalidates" `Quick test_etl_refresh_invalidates;
        tc "mediator cache hit" `Quick test_mediator_cache_hit;
        tc "mediator TTL expiry" `Quick test_mediator_ttl_expiry;
        tc "mediator delta invalidation" `Quick test_mediator_delta_invalidation;
        tc "uncached mediator baseline unchanged" `Quick test_uncached_mediator_unchanged;
      ] );
  ]
