(* Tests for the genomic (substring) index integration — the section 6.5
   "user-defined index structures" mechanism: Text_index postings,
   Table-level maintenance, planner access selection, and SQL execution
   equivalence. *)

open Genalg_gdt
module D = Genalg_storage.Dtype
module Db = Genalg_storage.Database
module Table = Genalg_storage.Table
module Schema = Genalg_storage.Schema
module Udt = Genalg_storage.Udt
module Text_index = Genalg_storage.Text_index
module Exec = Genalg_sqlx.Exec
module Plan = Genalg_sqlx.Plan

let check = Alcotest.check
let tc = Alcotest.test_case

let dna_payload s = Sequence.to_bytes (Sequence.dna s)

let dna_support () =
  let registry = Udt.create () in
  let db = Db.create () in
  Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default;
  ignore registry;
  (Option.get (Udt.find_type (Db.udts db) "dna")).Udt.search |> Option.get

(* ---- Text_index directly -------------------------------------------- *)

let test_text_index_basics () =
  let idx = Text_index.create ~k:4 (dna_support ()) in
  Text_index.add idx 1 (dna_payload "AAACGTACGTAAA");
  Text_index.add idx 2 (dna_payload "GGGGGGGGGGGG");
  Text_index.add idx 3 (dna_payload "TTACGTTT");
  let payloads =
    [ (1, dna_payload "AAACGTACGTAAA"); (2, dna_payload "GGGGGGGGGGGG");
      (3, dna_payload "TTACGTTT") ]
  in
  let payload_of r = List.assoc_opt r payloads in
  (match Text_index.search idx ~pattern:"ACGT" ~payload_of with
  | Some hits ->
      check (Alcotest.list Alcotest.int) "rows 1 and 3"
        [ 1; 3 ]
        (List.sort Int.compare hits)
  | None -> Alcotest.fail "index should serve a 4-letter pattern");
  (match Text_index.search idx ~pattern:"GGGG" ~payload_of with
  | Some [ r ] -> check Alcotest.int "row 2" 2 r
  | _ -> Alcotest.fail "GGGG should hit row 2");
  (* shorter than k: cannot serve *)
  check Alcotest.bool "short pattern unsupported" true
    (Text_index.search idx ~pattern:"AC" ~payload_of = None)

let test_text_index_remove () =
  let idx = Text_index.create ~k:4 (dna_support ()) in
  let p = dna_payload "ACGTACGT" in
  Text_index.add idx 1 p;
  Text_index.remove idx 1 p;
  match Text_index.search idx ~pattern:"ACGT" ~payload_of:(fun _ -> Some p) with
  | Some [] -> ()
  | _ -> Alcotest.fail "removed record still matches"

let test_text_index_ambiguous_rows () =
  (* a row with an N is an always-candidate: IUPAC matching stays exact *)
  let idx = Text_index.create ~k:4 (dna_support ()) in
  let amb = dna_payload "NNNNNNNN" in
  Text_index.add idx 9 amb;
  let payload_of r = if r = 9 then Some amb else None in
  match Text_index.search idx ~pattern:"ACGT" ~payload_of with
  | Some [ r ] ->
      (* N matches any base, so the all-N row genuinely contains ACGT *)
      check Alcotest.int "ambiguous row matched" 9 r
  | other ->
      Alcotest.failf "expected the ambiguous row to match, got %s"
        (match other with None -> "None" | Some l -> string_of_int (List.length l))

(* ---- Table-level ------------------------------------------------------- *)

let table_fixture () =
  let db = Db.create () in
  Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default;
  let schema =
    Schema.make_exn
      [
        { Schema.name = "id"; dtype = D.TInt; nullable = false };
        { Schema.name = "seq"; dtype = D.TOpaque "dna"; nullable = false };
      ]
  in
  let table =
    Result.get_ok
      (Db.create_table db ~actor:Db.loader_actor ~space:Db.Public ~name:"t" schema)
  in
  (db, table)

let test_table_genomic_index () =
  let db, table = table_fixture () in
  let insert i s =
    Table.insert_exn table [| D.Int i; D.Opaque ("dna", dna_payload s) |]
  in
  ignore (insert 1 "AAAACGTACGTAAAA");
  ignore (insert 2 "GGGGGGGGGGGG");
  let r3 = insert 3 "CCATTGCCATACC" in
  check Alcotest.bool "create" true
    (Result.is_ok (Table.create_genomic_index table ~column:"seq" ~registry:(Db.udts db)));
  check Alcotest.bool "duplicate rejected" true
    (Result.is_error (Table.create_genomic_index table ~column:"seq" ~registry:(Db.udts db)));
  check Alcotest.bool "non-opaque rejected" true
    (Result.is_error (Table.create_genomic_index table ~column:"id" ~registry:(Db.udts db)));
  (match Table.genomic_search table ~column:"seq" ~pattern:"ATTGCCATA" with
  | `Hits [ r ] -> check Alcotest.bool "row 3" true (r = r3)
  | _ -> Alcotest.fail "backfilled search failed");
  (* maintenance: inserted rows become searchable, deleted rows vanish *)
  let r4 = insert 4 "TTATTGCCATATT" in
  (match Table.genomic_search table ~column:"seq" ~pattern:"ATTGCCATA" with
  | `Hits hits -> check Alcotest.int "two rows after insert" 2 (List.length hits)
  | _ -> Alcotest.fail "post-insert search failed");
  ignore (Table.delete table r4);
  ignore (Table.delete table r3);
  (match Table.genomic_search table ~column:"seq" ~pattern:"ATTGCCATA" with
  | `Hits [] -> ()
  | _ -> Alcotest.fail "deleted rows still matching");
  (* unsupported pattern: shorter than k *)
  match Table.genomic_search table ~column:"seq" ~pattern:"ACGT" with
  | `Unsupported_pattern -> ()
  | _ -> Alcotest.fail "short pattern should be unsupported"

(* ---- SQL level ----------------------------------------------------------- *)

let sql_fixture () =
  let rng = Genalg_synth.Rng.make 4242 in
  let db = Db.create () in
  Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default;
  let run sql =
    match Exec.query db ~actor:Db.loader_actor sql with
    | Ok o -> o
    | Error m -> Alcotest.failf "fixture %s: %s" sql m
  in
  ignore (run "CREATE TABLE frags (id int, seq dna)");
  for i = 1 to 300 do
    let s = Genalg_synth.Seqgen.dna_string rng 200 in
    let s = if i mod 10 = 0 then "ATTGCCATAGG" ^ s else s in
    ignore (run (Printf.sprintf "INSERT INTO frags VALUES (%d, dna('%s'))" i s))
  done;
  (db, run)

let sorted_ids rs =
  List.filter_map
    (fun r -> match r.(0) with D.Int i -> Some i | _ -> None)
    rs.Exec.rows
  |> List.sort Int.compare

let test_sql_genomic_index_equivalence () =
  let db, run = sql_fixture () in
  let q = "SELECT id FROM frags WHERE contains(seq, 'ATTGCCATAGG')" in
  let before =
    match Exec.query db ~actor:"u" q with
    | Ok (Exec.Rows rs) -> sorted_ids rs
    | _ -> Alcotest.fail "scan query failed"
  in
  check Alcotest.int "30 planted rows" 30 (List.length before);
  ignore (run "CREATE GENOMIC INDEX ON frags (seq)");
  let after =
    match Exec.query db ~actor:"u" q with
    | Ok (Exec.Rows rs) -> sorted_ids rs
    | _ -> Alcotest.fail "indexed query failed"
  in
  check (Alcotest.list Alcotest.int) "identical results" before after;
  (* short pattern falls back to scanning, still correct *)
  let short = "SELECT count(*) FROM frags WHERE contains(seq, 'ACG')" in
  match Exec.query db ~actor:"u" short with
  | Ok (Exec.Rows { rows = [ [| D.Int n |] ]; _ }) ->
      check Alcotest.bool "fallback counts most rows" true (n > 250)
  | _ -> Alcotest.fail "fallback query failed"

let test_sql_planner_picks_genomic_access () =
  let db, run = sql_fixture () in
  ignore (run "CREATE GENOMIC INDEX ON frags (seq)");
  let resolve table f d =
    match Db.resolve db ~actor:"u" table with Some (_, t) -> f t | None -> d
  in
  let catalog =
    {
      Plan.has_index = (fun ~table:_ ~column:_ -> false);
      has_genomic_index =
        (fun ~table ~column -> resolve table (Table.has_genomic_index ~column) false);
      column_exists = (fun ~table:_ ~column:_ -> true);
      column_dtype = (fun ~table:_ ~column:_ -> None);
      analyzed = (fun ~table:_ -> false);
      row_count = (fun ~table -> resolve table Table.row_count 0);
      stats_of = (fun ~table:_ ~column:_ -> None);
      genomic_k_of = (fun ~table ~column -> resolve table (Table.genomic_k ~column) None);
      genomic_mean_len_of =
        (fun ~table ~column -> resolve table (Table.genomic_mean_len ~column) None);
    }
  in
  let select =
    match Genalg_sqlx.Parser.parse "SELECT id FROM frags WHERE contains(seq, 'ATTGCCATAGG')" with
    | Ok (Genalg_sqlx.Ast.Select s) -> s
    | _ -> Alcotest.fail "parse"
  in
  let plan = Plan.make catalog select in
  match (List.hd plan.Plan.tables).Plan.access with
  | Plan.Genomic_contains { column; pattern } ->
      check Alcotest.string "column" "seq" column;
      check Alcotest.string "pattern" "ATTGCCATAGG" pattern;
      check Alcotest.int "conjunct consumed" 0
        (List.length (List.hd plan.Plan.tables).Plan.filters)
  | _ -> Alcotest.fail "expected genomic access path"

let test_sql_genomic_index_statement_roundtrip () =
  match Genalg_sqlx.Parser.parse "CREATE GENOMIC INDEX ON t (seq)" with
  | Ok stmt ->
      check Alcotest.string "printer" "CREATE GENOMIC INDEX ON t (seq)"
        (Genalg_sqlx.Ast.stmt_to_string stmt)
  | Error m -> Alcotest.fail m

let test_sql_genomic_index_maintenance () =
  let db, run = sql_fixture () in
  ignore (run "CREATE GENOMIC INDEX ON frags (seq)");
  ignore (run "INSERT INTO frags VALUES (9999, dna('TTTTATTGCCATAGGTTTT'))");
  (match Exec.query db ~actor:"u"
           "SELECT count(*) FROM frags WHERE contains(seq, 'ATTGCCATAGG')" with
  | Ok (Exec.Rows { rows = [ [| D.Int n |] ]; _ }) ->
      check Alcotest.int "31 after insert" 31 n
  | _ -> Alcotest.fail "count failed");
  ignore (run "DELETE FROM frags WHERE id = 9999");
  match Exec.query db ~actor:"u"
          "SELECT count(*) FROM frags WHERE contains(seq, 'ATTGCCATAGG')" with
  | Ok (Exec.Rows { rows = [ [| D.Int n |] ]; _ }) ->
      check Alcotest.int "30 after delete" 30 n
  | _ -> Alcotest.fail "count failed"

let suites =
  [
    ( "genomic_index.text_index",
      [
        tc "basics" `Quick test_text_index_basics;
        tc "remove" `Quick test_text_index_remove;
        tc "ambiguous rows" `Quick test_text_index_ambiguous_rows;
      ] );
    ( "genomic_index.table",
      [ tc "create/search/maintain" `Quick test_table_genomic_index ] );
    ( "genomic_index.sql",
      [
        tc "scan/index equivalence" `Quick test_sql_genomic_index_equivalence;
        tc "planner access" `Quick test_sql_planner_picks_genomic_access;
        tc "statement roundtrip" `Quick test_sql_genomic_index_statement_roundtrip;
        tc "maintenance" `Quick test_sql_genomic_index_maintenance;
      ] );
  ]
