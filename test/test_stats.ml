(* Tests for ANALYZE statistics and stats-driven predicate ordering
   (section 6.5: "information about the selectivity of genomic
   predicates ... and cost estimation of access plans"). *)

module D = Genalg_storage.Dtype
module Db = Genalg_storage.Database
module Table = Genalg_storage.Table
module Plan = Genalg_sqlx.Plan
module Exec = Genalg_sqlx.Exec
module Ast = Genalg_sqlx.Ast

let check = Alcotest.check
let tc = Alcotest.test_case

let fixture () =
  let db = Db.create () in
  Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default;
  let run sql =
    match Exec.query db ~actor:Db.loader_actor sql with
    | Ok o -> o
    | Error m -> Alcotest.failf "fixture %s: %s" sql m
  in
  ignore (run "CREATE TABLE t (grp string, uniq int, maybe string)");
  for i = 1 to 100 do
    ignore
      (run
         (Printf.sprintf "INSERT INTO t VALUES ('g%d', %d, %s)" (i mod 4) i
            (if i mod 10 = 0 then "NULL" else "'x'")))
  done;
  (db, run)

let test_table_analyze () =
  let db, _ = fixture () in
  let t = Option.get (Db.find_table db ~space:Db.Public "t") in
  check Alcotest.bool "no stats before analyze" true
    (Table.column_stats t ~column:"grp" = None);
  Table.analyze t;
  (match Table.column_stats t ~column:"grp" with
  | Some { Table.rows; distinct; nulls; _ } ->
      check Alcotest.int "rows" 100 rows;
      check Alcotest.int "4 groups" 4 distinct;
      check Alcotest.int "no nulls" 0 nulls
  | None -> Alcotest.fail "grp stats missing");
  (match Table.column_stats t ~column:"uniq" with
  | Some { Table.distinct; _ } -> check Alcotest.int "100 distinct" 100 distinct
  | None -> Alcotest.fail "uniq stats missing");
  match Table.column_stats t ~column:"maybe" with
  | Some { Table.distinct; nulls; _ } ->
      check Alcotest.int "one non-null value" 1 distinct;
      check Alcotest.int "10 nulls" 10 nulls
  | None -> Alcotest.fail "maybe stats missing"

let test_analyze_statement () =
  let db, run = fixture () in
  (match Genalg_sqlx.Parser.parse "ANALYZE t" with
  | Ok (Ast.Analyze "t") -> ()
  | _ -> Alcotest.fail "parse ANALYZE");
  (match run "ANALYZE t" with
  | Exec.Executed -> ()
  | _ -> Alcotest.fail "ANALYZE should execute");
  let t = Option.get (Db.find_table db ~space:Db.Public "t") in
  check Alcotest.bool "stats collected" true (Table.column_stats t ~column:"grp" <> None);
  check Alcotest.bool "unknown table errors" true
    (Result.is_error (Exec.query db ~actor:"u" "ANALYZE nope"))

let catalog_of db =
  let resolve table f d =
    match Db.resolve db ~actor:"u" table with Some (_, t) -> f t | None -> d
  in
  {
    Plan.has_index = (fun ~table:_ ~column:_ -> false);
    has_genomic_index = (fun ~table:_ ~column:_ -> false);
    column_exists =
      (fun ~table ~column ->
        resolve table
          (fun t -> Genalg_storage.Schema.column_index (Table.schema t) column <> None)
          false);
    column_dtype = (fun ~table:_ ~column:_ -> None);
    analyzed = (fun ~table -> resolve table Table.has_stats false);
    row_count = (fun ~table -> resolve table Table.row_count 0);
    stats_of = (fun ~table ~column -> resolve table (Table.column_stats ~column) None);
    genomic_k_of = (fun ~table:_ ~column:_ -> None);
    genomic_mean_len_of = (fun ~table:_ ~column:_ -> None);
  }

let test_stats_driven_ordering () =
  let db, run = fixture () in
  let select =
    match Genalg_sqlx.Parser.parse "SELECT * FROM t WHERE grp = 'g1' AND uniq = 42" with
    | Ok (Ast.Select s) -> s
    | _ -> Alcotest.fail "parse"
  in
  let first_filter () =
    match (List.hd (Plan.make (catalog_of db) select).Plan.tables).Plan.filters with
    | [ first; _ ] -> Ast.expr_to_string first
    | _ -> Alcotest.fail "expected two residual filters"
  in
  (* without stats both equalities use the static default: the tie keeps
     source order *)
  check Alcotest.string "no stats: source order" "(grp = 'g1')" (first_filter ());
  ignore (run "ANALYZE t");
  (* with stats: uniq (1/100) is far more selective than grp (1/4) *)
  check Alcotest.string "uniq predicate evaluated first" "(uniq = 42)"
    (first_filter ())

let test_stats_do_not_change_results () =
  let db, run = fixture () in
  let q = "SELECT count(*) FROM t WHERE grp = 'g1' AND uniq < 50" in
  let before = Exec.query db ~actor:"u" q in
  ignore (run "ANALYZE t");
  let after = Exec.query db ~actor:"u" q in
  check Alcotest.bool "same answer" true (before = after)

let suites =
  [
    ( "stats",
      [
        tc "table analyze" `Quick test_table_analyze;
        tc "ANALYZE statement" `Quick test_analyze_statement;
        tc "stats-driven ordering" `Quick test_stats_driven_ordering;
        tc "results unchanged" `Quick test_stats_do_not_change_results;
      ] );
  ]
