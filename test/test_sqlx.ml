(* Unit tests for the extended query language (lib/sqlx). *)

module D = Genalg_storage.Dtype
module Db = Genalg_storage.Database
module Schema = Genalg_storage.Schema
module Ast = Genalg_sqlx.Ast
module Parser = Genalg_sqlx.Parser
module Eval = Genalg_sqlx.Eval
module Plan = Genalg_sqlx.Plan
module Exec = Genalg_sqlx.Exec

let check = Alcotest.check
let tc = Alcotest.test_case

(* ---- lexer/parser ------------------------------------------------------ *)

let test_parse_roundtrip () =
  (* parse |> print |> parse must be stable *)
  let stable input =
    match Parser.parse input with
    | Error msg -> Alcotest.failf "parse %s failed: %s" input msg
    | Ok stmt -> (
        let printed = Ast.stmt_to_string stmt in
        match Parser.parse printed with
        | Error msg -> Alcotest.failf "reparse %s failed: %s" printed msg
        | Ok stmt2 ->
            check Alcotest.string ("stable " ^ input) printed (Ast.stmt_to_string stmt2))
  in
  List.iter stable
    [
      "SELECT * FROM t";
      "SELECT a, b AS bee FROM t WHERE a = 1 AND b <> 'x'";
      "SELECT count(*) FROM t GROUP BY a HAVING count(*) > 2";
      "SELECT a FROM t ORDER BY a DESC, b ASC LIMIT 5";
      "SELECT t1.a, t2.b FROM t1, t2 x WHERE t1.a = x.b";
      "SELECT gc_content(seq) FROM sequences WHERE contains(seq, 'ATG')";
      "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')";
      "CREATE TABLE t (a int NOT NULL, b string, s dna)";
      "CREATE INDEX ON t (a)";
      "CREATE GENOMIC INDEX ON t (s)";
      "ANALYZE t";
      "DROP TABLE t";
      "DELETE FROM t WHERE a < 3";
      "SELECT a + b * 2 - -c FROM t WHERE NOT (a LIKE 'x%')";
    ]

let test_parse_errors () =
  List.iter
    (fun input ->
      check Alcotest.bool ("rejects " ^ input) true (Result.is_error (Parser.parse input)))
    [
      ""; "SELECT"; "SELECT FROM t"; "SELECT * FROM"; "SELECT * FROM t WHERE";
      "FROB x"; "SELECT * FROM t LIMIT 'x'"; "SELECT a FROM t GROUP";
      "INSERT INTO t VALUES"; "SELECT * FROM t extra garbage here (";
    ]

let test_string_escapes () =
  match Parser.parse "SELECT * FROM t WHERE a = 'it''s'" with
  | Ok (Ast.Select { where = Some (Ast.Binop (Ast.Eq, _, Ast.Lit (D.Str s))); _ }) ->
      check Alcotest.string "unescaped quote" "it's" s
  | _ -> Alcotest.fail "quoted string with escape failed"

(* ---- expression evaluation --------------------------------------------- *)

let eval_const input =
  match Parser.parse_expr input with
  | Error msg -> Alcotest.failf "parse_expr %s: %s" input msg
  | Ok e -> Eval.eval Eval.empty_env e

let test_eval_arithmetic () =
  check Alcotest.bool "1+2*3" true (eval_const "1 + 2 * 3" = Ok (D.Int 7));
  check Alcotest.bool "mixed float" true (eval_const "1 + 0.5" = Ok (D.Float 1.5));
  check Alcotest.bool "division by zero" true (Result.is_error (eval_const "1 / 0"));
  check Alcotest.bool "unary minus" true (eval_const "-(2 + 3)" = Ok (D.Int (-5)))

let test_eval_comparisons () =
  check Alcotest.bool "lt" true (eval_const "1 < 2" = Ok (D.Bool true));
  check Alcotest.bool "string eq" true (eval_const "'a' = 'a'" = Ok (D.Bool true));
  check Alcotest.bool "int/float compare" true (eval_const "2 = 2.0" = Ok (D.Bool true));
  check Alcotest.bool "null propagates" true (eval_const "NULL = 1" = Ok D.Null)

let test_eval_logic () =
  check Alcotest.bool "and" true (eval_const "TRUE AND FALSE" = Ok (D.Bool false));
  check Alcotest.bool "or short-circuit with null" true
    (eval_const "TRUE OR NULL" = Ok (D.Bool true));
  check Alcotest.bool "and with null" true (eval_const "TRUE AND NULL" = Ok D.Null);
  check Alcotest.bool "false and null = false" true
    (eval_const "FALSE AND NULL" = Ok (D.Bool false));
  check Alcotest.bool "not" true (eval_const "NOT FALSE" = Ok (D.Bool true))

let test_eval_like () =
  check Alcotest.bool "percent" true (eval_const "'hello' LIKE 'he%'" = Ok (D.Bool true));
  check Alcotest.bool "underscore" true (eval_const "'cat' LIKE 'c_t'" = Ok (D.Bool true));
  check Alcotest.bool "middle" true (eval_const "'abcdef' LIKE '%cd%'" = Ok (D.Bool true));
  check Alcotest.bool "no match" true (eval_const "'abc' LIKE 'x%'" = Ok (D.Bool false));
  check Alcotest.bool "exact" true (eval_const "'abc' LIKE 'abc'" = Ok (D.Bool true));
  check Alcotest.bool "empty pattern" true (eval_const "'a' LIKE ''" = Ok (D.Bool false))

let test_eval_builtins () =
  check Alcotest.bool "upper" true (eval_const "upper('abc')" = Ok (D.Str "ABC"));
  check Alcotest.bool "strlen" true (eval_const "strlen('abcd')" = Ok (D.Int 4));
  check Alcotest.bool "coalesce" true (eval_const "coalesce(NULL, 5)" = Ok (D.Int 5));
  check Alcotest.bool "substr" true (eval_const "substr('hello', 1, 3)" = Ok (D.Str "ell"));
  check Alcotest.bool "unknown fn" true (Result.is_error (eval_const "nope(1)"))

(* ---- planner -------------------------------------------------------------- *)

(* unanalyzed 1000-row tables: the cost model plans on default
   selectivities *)
let catalog ~indexed () =
  {
    Plan.has_index = (fun ~table:_ ~column -> List.mem column indexed);
    has_genomic_index = (fun ~table:_ ~column:_ -> false);
    column_exists = (fun ~table:_ ~column:_ -> true);
    column_dtype = (fun ~table:_ ~column:_ -> None);
    analyzed = (fun ~table:_ -> false);
    row_count = (fun ~table:_ -> 1000);
    stats_of = (fun ~table:_ ~column:_ -> None);
    genomic_k_of = (fun ~table:_ ~column:_ -> None);
    genomic_mean_len_of = (fun ~table:_ ~column:_ -> None);
  }

let select_of input =
  match Parser.parse input with
  | Ok (Ast.Select s) -> s
  | _ -> Alcotest.fail ("not a select: " ^ input)

let test_plan_pushdown () =
  let s = select_of "SELECT * FROM a, b WHERE a.x = 1 AND b.y = 2 AND a.x = b.y" in
  let p = Plan.make (catalog ~indexed:[] ()) s in
  check Alcotest.int "two tables" 2 (List.length p.Plan.tables);
  check Alcotest.int "one join filter" 1 (List.length p.Plan.join_filters);
  List.iter
    (fun (tp : Plan.table_plan) ->
      check Alcotest.int ("one local filter on " ^ tp.Plan.table) 1
        (List.length tp.Plan.filters))
    p.Plan.tables

let test_plan_index_selection () =
  let s = select_of "SELECT * FROM t WHERE id = 42 AND name = 'x'" in
  let p = Plan.make (catalog ~indexed:[ "id" ] ()) s in
  match p.Plan.tables with
  | [ tp ] -> (
      (match tp.Plan.access with
      | Plan.Index_eq { column; key } ->
          check Alcotest.string "indexed column" "id" column;
          check Alcotest.bool "key" true (D.equal_value key (D.Int 42))
      | _ -> Alcotest.fail "expected an index access");
      check Alcotest.int "residual filter" 1 (List.length tp.Plan.filters))
  | _ -> Alcotest.fail "one table expected"

let test_plan_range_index () =
  let s = select_of "SELECT * FROM t WHERE id >= 10" in
  let p = Plan.make (catalog ~indexed:[ "id" ] ()) s in
  match (List.hd p.Plan.tables).Plan.access with
  | Plan.Index_range { lo = Some lo; hi = None; lo_inclusive = true; _ } ->
      check Alcotest.bool "lo bound" true (D.equal_value lo (D.Int 10))
  | _ -> Alcotest.fail "expected range access"

let test_plan_predicate_ordering () =
  (* the expensive resembles() must be ordered after the cheap equality *)
  let s =
    select_of
      "SELECT * FROM t WHERE resembles(seq, dna('ACGTACGT')) >= 0.8 AND organism = 'x'"
  in
  let p = Plan.make (catalog ~indexed:[] ()) s in
  (match (List.hd p.Plan.tables).Plan.filters with
  | [ first; second ] ->
      check Alcotest.bool "cheap predicate first" true
        (Plan.predicate_cost first < Plan.predicate_cost second)
  | _ -> Alcotest.fail "two filters expected");
  (* naive mode preserves source order *)
  let naive = Plan.make ~optimize:false (catalog ~indexed:[] ()) s in
  match (List.hd naive.Plan.tables).Plan.filters with
  | first :: _ ->
      check Alcotest.bool "naive keeps source order" true
        (Plan.predicate_cost first > 1000.)
  | _ -> Alcotest.fail "naive filters missing"

let test_selectivity_model () =
  let sel input =
    match Parser.parse_expr input with
    | Ok e -> Plan.predicate_selectivity e
    | Error msg -> Alcotest.fail msg
  in
  check Alcotest.bool "long motif is selective" true
    (sel "contains(seq, 'ATTGCCATA')" < 0.01);
  check Alcotest.bool "short motif is not" true (sel "contains(seq, 'AT')" > 0.5);
  check Alcotest.bool "equality default" true (sel "a = 1" = 0.05);
  check Alcotest.bool "conjunction multiplies" true (sel "a = 1 AND b = 2" < 0.01)

(* ---- executor ---------------------------------------------------------------- *)

let fixture_db () =
  let db = Db.create () in
  Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default;
  let run sql =
    match Exec.query db ~actor:Db.loader_actor sql with
    | Ok o -> o
    | Error msg -> Alcotest.failf "fixture: %s (%s)" msg sql
  in
  ignore (run "CREATE TABLE frag (id int NOT NULL, organism string, seq dna, len int)");
  let insert id organism seq =
    ignore
      (run
         (Printf.sprintf "INSERT INTO frag VALUES (%d, '%s', dna('%s'), %d)" id organism
            seq (String.length seq)))
  in
  insert 1 "ecoli" "ATTGCCATAGGCC";
  insert 2 "ecoli" "ACGTACGTACGT";
  insert 3 "yeast" "GGGGCCCCATTGCCATA";
  insert 4 "yeast" "TTTTTTTT";
  insert 5 "human" "ATGAAATAGATTGCCATA";
  (db, run)

let rows_of = function
  | Exec.Rows rs -> rs
  | _ -> Alcotest.fail "expected rows"

let test_exec_select_where () =
  let db, _ = fixture_db () in
  let rs =
    rows_of
      (Result.get_ok
         (Exec.query db ~actor:"u" "SELECT id FROM frag WHERE organism = 'ecoli' ORDER BY id"))
  in
  check Alcotest.int "two rows" 2 (List.length rs.Exec.rows);
  check (Alcotest.list Alcotest.string) "columns" [ "id" ] rs.Exec.columns

let test_exec_udf_in_where () =
  (* the paper's flagship example: contains() inside WHERE *)
  let db, _ = fixture_db () in
  let rs =
    rows_of
      (Result.get_ok
         (Exec.query db ~actor:"u"
            "SELECT id FROM frag WHERE contains(seq, 'ATTGCCATA') ORDER BY id"))
  in
  let ids = List.map (fun r -> r.(0)) rs.Exec.rows in
  check Alcotest.bool "ids 1,3,5" true
    (List.map (function D.Int i -> i | _ -> -1) ids = [ 1; 3; 5 ])

let test_exec_udf_in_projection () =
  let db, _ = fixture_db () in
  let rs =
    rows_of
      (Result.get_ok
         (Exec.query db ~actor:"u"
            "SELECT id, gc_content(seq) AS gc FROM frag WHERE id = 4"))
  in
  match rs.Exec.rows with
  | [ [| _; D.Float gc |] ] -> check (Alcotest.float 1e-9) "gc of T8" 0. gc
  | _ -> Alcotest.fail "unexpected shape"

let test_exec_order_and_limit () =
  let db, _ = fixture_db () in
  let rs =
    rows_of
      (Result.get_ok
         (Exec.query db ~actor:"u" "SELECT id FROM frag ORDER BY len DESC LIMIT 2"))
  in
  check Alcotest.int "limit" 2 (List.length rs.Exec.rows);
  match rs.Exec.rows with
  | [ [| D.Int first |]; [| D.Int second |] ] ->
      check Alcotest.int "longest first" 5 first;
      check Alcotest.int "second longest" 3 second
  | _ -> Alcotest.fail "unexpected shape"

let test_exec_aggregates () =
  let db, _ = fixture_db () in
  let rs =
    rows_of
      (Result.get_ok
         (Exec.query db ~actor:"u"
            "SELECT organism, count(*) AS n, avg(len) AS mean FROM frag GROUP BY organism ORDER BY organism"))
  in
  check Alcotest.int "three groups" 3 (List.length rs.Exec.rows);
  (match rs.Exec.rows with
  | [| D.Str "ecoli"; D.Int 2; D.Float mean |] :: _ ->
      check (Alcotest.float 0.01) "ecoli mean" 12.5 mean
  | _ -> Alcotest.fail "ecoli group wrong");
  let total =
    rows_of (Result.get_ok (Exec.query db ~actor:"u" "SELECT count(*) FROM frag"))
  in
  check Alcotest.bool "count(*) = 5" true
    (match total.Exec.rows with [ [| D.Int 5 |] ] -> true | _ -> false)

let test_exec_having () =
  let db, _ = fixture_db () in
  let rs =
    rows_of
      (Result.get_ok
         (Exec.query db ~actor:"u"
            "SELECT organism FROM frag GROUP BY organism HAVING count(*) > 1 ORDER BY organism"))
  in
  check Alcotest.int "two multi-row organisms" 2 (List.length rs.Exec.rows)

let test_exec_join () =
  let db, run = fixture_db () in
  ignore (run "CREATE TABLE tax (organism string, kingdom string)");
  ignore
    (run
       "INSERT INTO tax VALUES ('ecoli', 'bacteria'), ('yeast', 'fungi'), ('human', 'animalia')");
  let rs =
    rows_of
      (Result.get_ok
         (Exec.query db ~actor:"u"
            "SELECT f.id, t.kingdom FROM frag f, tax t WHERE f.organism = t.organism AND t.kingdom = 'fungi' ORDER BY f.id"))
  in
  check Alcotest.int "yeast rows" 2 (List.length rs.Exec.rows)

let test_exec_index_equivalence () =
  let db, run = fixture_db () in
  let q = "SELECT id FROM frag WHERE organism = 'yeast' ORDER BY id" in
  let before = rows_of (Result.get_ok (Exec.query db ~actor:"u" q)) in
  ignore (run "CREATE INDEX ON frag (organism)");
  let after = rows_of (Result.get_ok (Exec.query db ~actor:"u" q)) in
  check Alcotest.bool "index does not change results" true
    (before.Exec.rows = after.Exec.rows);
  let naive = rows_of (Result.get_ok (Exec.query ~optimize:false db ~actor:"u" q)) in
  check Alcotest.bool "naive plan agrees" true (before.Exec.rows = naive.Exec.rows)

let test_exec_insert_delete () =
  let db = Db.create () in
  Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default;
  let run sql = Exec.query db ~actor:"alice" sql in
  ignore (run "CREATE TABLE notes (id int, body string)");
  (match run "INSERT INTO notes VALUES (1, 'a'), (2, 'b'), (3, 'c')" with
  | Ok (Exec.Affected 3) -> ()
  | _ -> Alcotest.fail "insert count");
  (match run "DELETE FROM notes WHERE id < 3" with
  | Ok (Exec.Affected 2) -> ()
  | _ -> Alcotest.fail "delete count");
  let rs = rows_of (Result.get_ok (run "SELECT count(*) FROM notes")) in
  check Alcotest.bool "one left" true
    (match rs.Exec.rows with [ [| D.Int 1 |] ] -> true | _ -> false)

let test_exec_drop_table () =
  let db = Db.create () in
  Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default;
  ignore (Exec.query db ~actor:"alice" "CREATE TABLE scratch (id int)");
  check Alcotest.bool "exists" true (Result.is_ok (Exec.query db ~actor:"alice" "SELECT * FROM scratch"));
  (match Exec.query db ~actor:"alice" "DROP TABLE scratch" with
  | Ok Exec.Executed -> ()
  | _ -> Alcotest.fail "drop failed");
  check Alcotest.bool "gone" true
    (Result.is_error (Exec.query db ~actor:"alice" "SELECT * FROM scratch"));
  (* users cannot drop public tables *)
  ignore (Exec.query db ~actor:Db.loader_actor "CREATE TABLE pub (id int)");
  check Alcotest.bool "public drop blocked for users" true
    (Result.is_error (Exec.query db ~actor:"alice" "DROP TABLE pub"))

let test_exec_permissions () =
  let db, _ = fixture_db () in
  (* alice cannot insert into the loader's public table *)
  check Alcotest.bool "insert blocked" true
    (Result.is_error (Exec.query db ~actor:"alice" "INSERT INTO frag VALUES (9, 'x', dna('A'), 1)"));
  (* but she can read it *)
  check Alcotest.bool "read allowed" true
    (Result.is_ok (Exec.query db ~actor:"alice" "SELECT * FROM frag"))

let test_exec_errors () =
  let db, _ = fixture_db () in
  let err sql = Result.is_error (Exec.query db ~actor:"u" sql) in
  check Alcotest.bool "unknown table" true (err "SELECT * FROM nope");
  check Alcotest.bool "unknown column" true (err "SELECT wat FROM frag");
  check Alcotest.bool "unknown function" true (err "SELECT nope(id) FROM frag");
  check Alcotest.bool "type error in UDF" true
    (err "SELECT gc_content(organism) FROM frag")

let test_exec_group_by_udf () =
  (* GROUP BY over a computed genomic key: rows bucketed by rounded GC *)
  let db, _ = fixture_db () in
  let rs =
    rows_of
      (Result.get_ok
         (Exec.query db ~actor:"u"
            "SELECT round(gc_content(seq) * 10), count(*) FROM frag GROUP BY round(gc_content(seq) * 10) ORDER BY count(*) DESC"))
  in
  let total =
    List.fold_left
      (fun acc r -> match r.(1) with D.Int n -> acc + n | _ -> acc)
      0 rs.Exec.rows
  in
  check Alcotest.int "groups cover all rows" 5 total

let test_exec_order_by_udf () =
  let db, _ = fixture_db () in
  let rs =
    rows_of
      (Result.get_ok
         (Exec.query db ~actor:"u"
            "SELECT id FROM frag ORDER BY gc_content(seq) DESC LIMIT 1"))
  in
  (* row 3 (GGGGCCCC...) has the highest GC among the fixtures *)
  match rs.Exec.rows with
  | [ [| D.Int id |] ] -> check Alcotest.int "highest GC row" 3 id
  | _ -> Alcotest.fail "order by UDF failed"

let test_exec_three_way_join () =
  let db, run = fixture_db () in
  ignore (run "CREATE TABLE tax (organism string, kingdom string)");
  ignore (run "INSERT INTO tax VALUES ('ecoli', 'bacteria'), ('yeast', 'fungi')");
  ignore (run "CREATE TABLE ranks (kingdom string, rank int)");
  ignore (run "INSERT INTO ranks VALUES ('bacteria', 1), ('fungi', 2)");
  let rs =
    rows_of
      (Result.get_ok
         (Exec.query db ~actor:"u"
            "SELECT f.id, r.rank FROM frag f, tax t, ranks r WHERE f.organism = t.organism AND t.kingdom = r.kingdom ORDER BY f.id"))
  in
  check Alcotest.int "4 joined rows" 4 (List.length rs.Exec.rows)

let test_exec_aggregate_empty () =
  let db, run = fixture_db () in
  ignore (run "CREATE TABLE void (x int)");
  (match Exec.query db ~actor:"u" "SELECT count(*) FROM void" with
  | Ok (Exec.Rows { rows = [ [| D.Int 0 |] ]; _ }) -> ()
  | _ -> Alcotest.fail "count over empty table");
  (match Exec.query db ~actor:"u" "SELECT sum(x) FROM void" with
  | Ok (Exec.Rows { rows = [ [| D.Null |] ]; _ }) -> ()
  | _ -> Alcotest.fail "sum over empty table should be NULL");
  (* empty input is a group that saw no rows: its aggregates finish,
     expressions over them evaluate and HAVING applies; a column read
     outside every aggregate has no row to read and drops the row *)
  List.iter
    (fun (sql, expected) ->
      match Exec.query db ~actor:"u" sql with
      | Ok (Exec.Rows rs) ->
          check Alcotest.bool sql true (rs.Exec.rows = expected)
      | _ -> Alcotest.failf "%s failed" sql)
    [
      ("SELECT count(*) + 1 FROM void", [ [| D.Int 1 |] ]);
      ("SELECT sum(len) + 1 FROM frag WHERE len > 100", [ [| D.Null |] ]);
      ("SELECT count(*) FROM void HAVING count(*) > 0", []);
      ("SELECT x, count(*) FROM void", []);
    ]

(* SUM over integers is exact integer addition, and a sum outside the
   int range is an error; AVG divides the exact sum once. Summing in
   floats loses integers above 2^53 and wraps max_int. *)
let test_exec_integer_sum () =
  let db, run = fixture_db () in
  ignore (run "CREATE TABLE big (g int, v int)");
  ignore
    (run
       "INSERT INTO big VALUES (1, 9007199254740993), (1, 0), (2, 4611686018427387903), \
        (3, 4611686018427387903), (3, 1), (3, -2), (4, 9007199254740993), (4, 1)");
  let value sql =
    match Exec.query db ~actor:"u" sql with
    | Ok (Exec.Rows { rows = [ [| v |] ]; _ }) -> Ok v
    | Ok _ -> Alcotest.failf "%s: expected one value" sql
    | Error msg -> Error msg
  in
  let expect sql expected =
    check Alcotest.bool sql true (value sql = expected)
  in
  expect "SELECT sum(v) FROM big WHERE g = 1" (Ok (D.Int 9007199254740993));
  expect "SELECT sum(v) FROM big WHERE g = 2" (Ok (D.Int max_int));
  expect "SELECT sum(v) FROM big WHERE g = 3" (Ok (D.Int (max_int - 1)));
  expect "SELECT avg(v) FROM big WHERE g = 4"
    (Ok (D.Float (float_of_int 9007199254740994 /. 2.)));
  expect "SELECT sum(v) FROM big WHERE g > 1" (Error "integer overflow in SUM");
  expect "SELECT avg(v) FROM big WHERE g > 1" (Error "integer overflow in AVG")

(* Each distinct aggregate call is accumulated once per group, so
   repeating sum(v) in HAVING, ORDER BY and two more items reads no group
   again: 20 000 rows in 10 000 groups allocate under twice the plain
   GROUP BY (2.43x when every occurrence re-read its group, 1.47x now). *)
let test_exec_repeated_aggregate () =
  let db = Db.create () in
  ignore (Result.get_ok (Exec.query db ~actor:"u" "CREATE TABLE g (k int, v int)"));
  let t = Option.get (Db.find_table db ~space:(Db.User "u") "g") in
  for i = 0 to 19_999 do
    ignore (Genalg_storage.Table.insert_exn t [| D.Int (i mod 10_000); D.Int i |])
  done;
  let minor_words sql =
    let select = select_of sql in
    Gc.minor ();
    let before = Gc.minor_words () in
    let rs = Result.get_ok (Exec.run_select db ~actor:"u" select) in
    (Gc.minor_words () -. before, rs.Exec.rows)
  in
  let plain, _ = minor_words "SELECT k, sum(v) FROM g GROUP BY k" in
  let repeated, rows =
    minor_words
      "SELECT k, sum(v), sum(v) + 1, sum(v) * 2 FROM g GROUP BY k HAVING sum(v) >= 0 \
       ORDER BY sum(v)"
  in
  check Alcotest.bool "every group, by its sum" true
    (rows
    = List.init 10_000 (fun k ->
          let s = (2 * k) + 10_000 in
          [| D.Int k; D.Int s; D.Int (s + 1); D.Int (2 * s) |]));
  check Alcotest.bool
    (Printf.sprintf "repeated aggregate: %.0f minor words against %.0f" repeated plain)
    true
    (repeated < 2. *. plain)

let test_exec_limit_zero () =
  let db, _ = fixture_db () in
  let rs = rows_of (Result.get_ok (Exec.query db ~actor:"u" "SELECT id FROM frag LIMIT 0")) in
  check Alcotest.int "limit 0" 0 (List.length rs.Exec.rows)

let test_render () =
  let db, _ = fixture_db () in
  let rs =
    rows_of (Result.get_ok (Exec.query db ~actor:"u" "SELECT id, seq FROM frag WHERE id = 2"))
  in
  let text = Exec.render db rs in
  check Alcotest.bool "shows decoded sequence" true
    (let contains hay needle =
       let n = String.length hay and m = String.length needle in
       let rec at i = i + m <= n && (String.sub hay i m = needle || at (i + 1)) in
       at 0
     in
     contains text "ACGTACGTACGT")

(* An aggregate without GROUP BY is one pass over its input: counting
   4 000 rows may not cost an order of magnitude more than returning
   them. *)
let test_exec_count_allocation () =
  let db = Db.create () in
  ignore (Result.get_ok (Exec.query db ~actor:"u" "CREATE TABLE frag (id int)"));
  let t = Option.get (Db.find_table db ~space:(Db.User "u") "frag") in
  for i = 1 to 4000 do
    ignore (Genalg_storage.Table.insert_exn t [| D.Int i |])
  done;
  let allocated sql =
    let select = select_of sql in
    let before = Gc.allocated_bytes () in
    let rs = Result.get_ok (Exec.run_select db ~actor:"u" select) in
    (Gc.allocated_bytes () -. before, rs.Exec.rows)
  in
  let scan, rows = allocated "SELECT id FROM frag" in
  let count, counted = allocated "SELECT count(*) FROM frag" in
  check Alcotest.int "all rows returned" 4000 (List.length rows);
  check Alcotest.bool "count is right" true (counted = [ [| D.Int 4000 |] ]);
  check Alcotest.bool
    (Printf.sprintf "count(*) allocates %.0f B against %.0f B for the scan" count scan)
    true
    (count < 10. *. scan)

(* 20 000 rows in up to 5 000 two-column groups come out in
   first-appearance order, with their counts, and the grouping allocates
   within a constant factor of the plain scan: a search of the group list
   per row would allocate O(rows x groups). *)
let test_exec_group_by_many_groups () =
  let db = Db.create () in
  ignore (Result.get_ok (Exec.query db ~actor:"u" "CREATE TABLE g (k int, p int)"));
  let t = Option.get (Db.find_table db ~space:(Db.User "u") "g") in
  let rng = Genalg_synth.Rng.make 1803 in
  let perm = Array.init 5000 Fun.id in
  Genalg_synth.Rng.shuffle rng perm;
  let keys = Array.init 20_000 (fun _ -> perm.(Genalg_synth.Rng.int rng 5000)) in
  Array.iter (fun k -> ignore (Genalg_storage.Table.insert_exn t [| D.Int k; D.Int (k mod 3) |])) keys;
  (* the reference: keys in first-appearance order, with their counts *)
  let counts = Hashtbl.create 5000 and order = ref [] in
  Array.iter
    (fun k ->
      match Hashtbl.find_opt counts k with
      | Some n -> Hashtbl.replace counts k (n + 1)
      | None ->
          Hashtbl.add counts k 1;
          order := k :: !order)
    keys;
  let expected =
    List.rev_map (fun k -> [| D.Int k; D.Int (k mod 3); D.Int (Hashtbl.find counts k) |]) !order
  in
  let allocated sql =
    let select = select_of sql in
    let before = Gc.allocated_bytes () in
    let rs = Result.get_ok (Exec.run_select db ~actor:"u" select) in
    (Gc.allocated_bytes () -. before, rs.Exec.rows)
  in
  let scan, _ = allocated "SELECT k, p FROM g" in
  let grouped, rows = allocated "SELECT k, p, count(*) FROM g GROUP BY k, p" in
  check Alcotest.int "one row per key" (Hashtbl.length counts) (List.length rows);
  check Alcotest.bool "groups in first-appearance order, with their counts" true
    (rows = expected);
  check Alcotest.bool
    (Printf.sprintf "GROUP BY allocates %.0f B against %.0f B for the scan" grouped scan)
    true
    (grouped < 3. *. scan)

(* ---- join strategies --------------------------------------------------- *)

let join_fixture () =
  let db = Db.create () in
  let run sql =
    match Exec.query db ~actor:Db.loader_actor sql with
    | Ok o -> o
    | Error msg -> Alcotest.failf "join fixture: %s (%s)" msg sql
  in
  (* duplicates on both sides, NULL keys on both sides, and a float-keyed
     probe side so Int/Float key equality (1 = 1.0) is exercised *)
  ignore (run "CREATE TABLE l (k int, v int)");
  ignore (run "CREATE TABLE r (k float, w int)");
  ignore
    (run
       "INSERT INTO l VALUES (1, 10), (2, 20), (2, 21), (NULL, 30), (3, 40), (7, 50)");
  ignore
    (run
       "INSERT INTO r VALUES (2.0, 100), (1.0, 200), (2.0, 300), (NULL, 400), (9.0, 500)");
  (db, run)

(* [~optimize:false] is the nested-loop reference: full scans, filters
   in source order, a nested loop at every join step *)
let join_rows ?optimize db sql =
  match Exec.run_select ?optimize db ~actor:"u" (select_of sql) with
  | Ok rs -> rs.Exec.rows
  | Error msg -> Alcotest.failf "%s (%s)" msg sql

let test_join_hash_equals_nested () =
  let db, _ = join_fixture () in
  List.iter
    (fun sql ->
      let nested = join_rows ~optimize:false db sql in
      let hashed = join_rows db sql in
      check Alcotest.bool ("same rows, same order: " ^ sql) true (nested = hashed))
    [
      "SELECT l.v, r.w FROM l, r WHERE l.k = r.k";
      "SELECT l.v, r.w FROM l, r WHERE l.k = r.k ORDER BY l.v DESC, r.w";
      "SELECT l.v, r.w FROM l, r WHERE l.k = r.k AND r.w > 150";
      "SELECT count(*) FROM l, r WHERE l.k = r.k";
    ]

let test_join_semantics () =
  let db, _ = join_fixture () in
  (* spot-check the actual contents: NULL keys never match (either side),
     duplicates multiply (2 l-rows x 2 r-rows for k=2), 1 = 1.0 matches *)
  let rows =
    join_rows db "SELECT l.v, r.w FROM l, r WHERE l.k = r.k ORDER BY l.v, r.w"
  in
  let as_pairs =
    List.map
      (function [| D.Int v; D.Int w |] -> (v, w) | _ -> Alcotest.fail "shape")
      rows
  in
  check Alcotest.bool "expected join contents" true
    (as_pairs
    = [ (10, 200); (20, 100); (20, 300); (21, 100); (21, 300) ])

let test_join_filter_spans_tables_1_and_3 () =
  (* regression: a join filter over tables 1 and 3 must not be applied
     until table 3 is bound, and must not be dropped. The second query
     references table 3's column without qualification. *)
  let db = Db.create () in
  let run sql =
    match Exec.query db ~actor:Db.loader_actor sql with
    | Ok o -> o
    | Error msg -> Alcotest.failf "%s (%s)" msg sql
  in
  ignore (run "CREATE TABLE a (x int)");
  ignore (run "CREATE TABLE b (y int)");
  ignore (run "CREATE TABLE c (z int, tag string)");
  ignore (run "INSERT INTO a VALUES (1), (2), (3)");
  ignore (run "INSERT INTO b VALUES (1), (2)");
  ignore (run "INSERT INTO c VALUES (2, 'two'), (3, 'three'), (5, 'five')");
  List.iter
    (fun sql ->
      let nested = join_rows ~optimize:false db sql in
      let hashed = join_rows db sql in
      check Alcotest.bool ("strategies agree: " ^ sql) true (nested = hashed);
      let got =
        List.map (function [| D.Int x |] -> x | _ -> Alcotest.fail "shape") hashed
      in
      (* a.x must equal both b.y and c.z: only x = 2 survives *)
      check Alcotest.(list int) ("rows: " ^ sql) [ 2 ] got)
    [
      "SELECT a.x FROM a, b, c WHERE a.x = b.y AND a.x = c.z";
      (* unqualified z only resolves once table 3 is in scope *)
      "SELECT a.x FROM a, b, c WHERE a.x = b.y AND a.x = z";
    ]

let test_explain_join_strategy () =
  let db, _ = join_fixture () in
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec at i = i + m <= n && (String.sub hay i m = needle || at (i + 1)) in
    at 0
  in
  let explain_text ?optimize sql =
    match Exec.query ?optimize db ~actor:"u" ("EXPLAIN " ^ sql) with
    | Ok (Exec.Rows rs) ->
        String.concat "\n"
          (List.filter_map
             (function [| D.Str l |] -> Some l | _ -> None)
             rs.Exec.rows)
    | _ -> Alcotest.fail "EXPLAIN failed"
  in
  let sql = "SELECT l.v, r.w FROM l, r WHERE l.k = r.k" in
  let hash_plan = explain_text sql in
  check Alcotest.bool "hash strategy shown" true
    (contains hash_plan "hash join on l.k = r.k");
  let nested_plan = explain_text ~optimize:false sql in
  check Alcotest.bool "nested strategy shown" true
    (contains nested_plan "nested-loop join");
  (* non-equi predicates can never use the hash path *)
  let range_plan = explain_text "SELECT l.v FROM l, r WHERE l.k < r.k" in
  check Alcotest.bool "range join stays nested" true
    (contains range_plan "nested-loop join");
  (* planned scan partitions appear once jobs > 1 *)
  let module Par = Genalg_par.Par in
  let prev = Par.jobs () in
  Par.set_jobs 4;
  Fun.protect
    ~finally:(fun () -> Par.set_jobs prev)
    (fun () ->
      let plan = explain_text sql in
      check Alcotest.bool "partitions shown at jobs=4" true
        (contains plan "[partitions=4]"))

let join_property =
  let module Q = QCheck2 in
  let key_list = Q.Gen.(list_size (int_bound 20) (option (int_bound 4))) in
  let prop (ls, rs) =
    let db = Db.create () in
    let run sql =
      match Exec.query db ~actor:Db.loader_actor sql with
      | Ok o -> o
      | Error msg -> failwith (msg ^ " (" ^ sql ^ ")")
    in
    ignore (run "CREATE TABLE l (k int, v int)");
    ignore (run "CREATE TABLE r (k int, w int)");
    let insert table i = function
      | Some k -> ignore (run (Printf.sprintf "INSERT INTO %s VALUES (%d, %d)" table k i))
      | None -> ignore (run (Printf.sprintf "INSERT INTO %s VALUES (NULL, %d)" table i))
    in
    List.iteri (insert "l") ls;
    List.iteri (insert "r") rs;
    List.for_all
      (fun sql ->
        let nested = join_rows ~optimize:false db sql in
        let hashed = join_rows db sql in
        nested = hashed)
      [
        "SELECT l.v, r.w FROM l, r WHERE l.k = r.k";
        "SELECT l.v, r.w FROM l, r WHERE l.k = r.k ORDER BY l.v DESC, r.w";
      ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"hash join = nested loop (random tables)"
       QCheck2.Gen.(pair key_list key_list)
       prop)

let suites =
  [
    ( "sqlx.parser",
      [
        tc "roundtrip" `Quick test_parse_roundtrip;
        tc "errors" `Quick test_parse_errors;
        tc "string escapes" `Quick test_string_escapes;
      ] );
    ( "sqlx.eval",
      [
        tc "arithmetic" `Quick test_eval_arithmetic;
        tc "comparisons" `Quick test_eval_comparisons;
        tc "logic" `Quick test_eval_logic;
        tc "like" `Quick test_eval_like;
        tc "builtins" `Quick test_eval_builtins;
      ] );
    ( "sqlx.plan",
      [
        tc "pushdown" `Quick test_plan_pushdown;
        tc "index selection" `Quick test_plan_index_selection;
        tc "range index" `Quick test_plan_range_index;
        tc "predicate ordering" `Quick test_plan_predicate_ordering;
        tc "selectivity model" `Quick test_selectivity_model;
      ] );
    ( "sqlx.exec",
      [
        tc "select/where" `Quick test_exec_select_where;
        tc "udf in where" `Quick test_exec_udf_in_where;
        tc "udf in projection" `Quick test_exec_udf_in_projection;
        tc "order/limit" `Quick test_exec_order_and_limit;
        tc "aggregates" `Quick test_exec_aggregates;
        tc "having" `Quick test_exec_having;
        tc "join" `Quick test_exec_join;
        tc "index equivalence" `Quick test_exec_index_equivalence;
        tc "insert/delete" `Quick test_exec_insert_delete;
        tc "drop table" `Quick test_exec_drop_table;
        tc "permissions" `Quick test_exec_permissions;
        tc "errors" `Quick test_exec_errors;
        tc "group by UDF" `Quick test_exec_group_by_udf;
        tc "order by UDF" `Quick test_exec_order_by_udf;
        tc "three-way join" `Quick test_exec_three_way_join;
        tc "aggregate over empty" `Quick test_exec_aggregate_empty;
        tc "integer SUM and AVG are exact" `Quick test_exec_integer_sum;
        tc "repeated aggregate reads its group once" `Quick
          test_exec_repeated_aggregate;
        tc "count(*) allocation linear" `Quick test_exec_count_allocation;
        tc "GROUP BY with many groups" `Quick test_exec_group_by_many_groups;
        tc "limit zero" `Quick test_exec_limit_zero;
        tc "render" `Quick test_render;
      ] );
    ( "sqlx.join",
      [
        tc "hash = nested (fixture)" `Quick test_join_hash_equals_nested;
        tc "NULLs, duplicates, int=float" `Quick test_join_semantics;
        tc "filter spanning tables 1 and 3" `Quick
          test_join_filter_spans_tables_1_and_3;
        tc "EXPLAIN shows strategy" `Quick test_explain_join_strategy;
        join_property;
      ] );
  ]
