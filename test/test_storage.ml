(* Unit tests for the storage engine (lib/storage). *)

module D = Genalg_storage.Dtype
module Heap = Genalg_storage.Heap
module Schema = Genalg_storage.Schema
module Table = Genalg_storage.Table
module Db = Genalg_storage.Database
module Udt = Genalg_storage.Udt

let check = Alcotest.check
let tc = Alcotest.test_case

(* ---- dtype ----------------------------------------------------------- *)

let all_values =
  [
    D.Null; D.Bool true; D.Bool false; D.Int 0; D.Int (-42); D.Int max_int;
    D.Float 3.25; D.Float (-0.); D.Str ""; D.Str "hello\tworld";
    D.Opaque ("dna", Bytes.of_string "\x00\x01\x02");
  ]

let test_value_roundtrip () =
  List.iter
    (fun v ->
      let buf = Buffer.create 16 in
      D.encode_value buf v;
      let decoded, off = D.decode_value (Buffer.to_bytes buf) 0 in
      check Alcotest.bool ("round trip " ^ D.value_to_display v) true
        (D.equal_value v decoded);
      check Alcotest.int "consumed all" (Buffer.length buf) off)
    all_values

let test_row_roundtrip () =
  let row = Array.of_list all_values in
  let decoded = Result.get_ok (D.decode_row (D.encode_row row)) in
  check Alcotest.int "arity" (Array.length row) (Array.length decoded);
  Array.iteri
    (fun i v -> check Alcotest.bool "cell" true (D.equal_value v decoded.(i)))
    row

let test_value_compare () =
  check Alcotest.bool "int/float numeric" true (D.compare_value (D.Int 2) (D.Float 2.5) < 0);
  check Alcotest.bool "int = float" true (D.equal_value (D.Int 2) (D.Float 2.));
  check Alcotest.bool "null first" true (D.compare_value D.Null (D.Int 0) < 0);
  check Alcotest.bool "strings" true (D.compare_value (D.Str "a") (D.Str "b") < 0)

let test_conforms () =
  check Alcotest.bool "int to float column" true (D.conforms D.TFloat (D.Int 3));
  check Alcotest.bool "null anywhere" true (D.conforms D.TInt D.Null);
  check Alcotest.bool "opaque name must match" false
    (D.conforms (D.TOpaque "dna") (D.Opaque ("rna", Bytes.empty)));
  check Alcotest.bool "str not int" false (D.conforms D.TInt (D.Str "3"))

let test_corrupt_decode () =
  check Alcotest.bool "truncated rejected" true
    (match D.decode_value (Bytes.of_string "\x02\x01") 0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- heap ----------------------------------------------------------------- *)

let row i = [| D.Int i; D.Str (string_of_int i) |]
let row_t = Alcotest.(option (array (testable D.pp_value D.equal_value)))

let test_heap_many_records () =
  let h = Heap.create () in
  let rids = List.init 5000 (fun i -> (i, Heap.insert h (row i))) in
  check Alcotest.int "count" 5000 (Heap.record_count h);
  List.iter (fun (i, rid) -> check row_t "get" (Some (row i)) (Heap.get h rid)) rids

let test_heap_delete_update () =
  let h = Heap.create () in
  let r1 = Heap.insert h (row 1) in
  let r2 = Heap.insert h (row 2) in
  check Alcotest.bool "delete" true (Heap.delete h r1);
  check Alcotest.bool "double delete" false (Heap.delete h r1);
  check Alcotest.int "count after delete" 1 (Heap.record_count h);
  check Alcotest.bool "update in place" true (Heap.update h r2 (row 22));
  check row_t "updated" (Some (row 22)) (Heap.get h r2);
  check Alcotest.bool "update of a deleted rid refused" false (Heap.update h r1 (row 3));
  check row_t "deleted stays deleted" None (Heap.get h r1);
  (* a zero-arity row is a live row, not a tombstone *)
  let r3 = Heap.insert h [||] in
  check row_t "empty row is live" (Some [||]) (Heap.get h r3);
  check Alcotest.int "scan skips the tombstone" 2
    (Heap.fold (fun _ _ n -> n + 1) h 0)

(* ---- column indexes --------------------------------------------------------- *)

let simple_schema () =
  Schema.make_exn
    [
      { Schema.name = "id"; dtype = D.TInt; nullable = false };
      { Schema.name = "name"; dtype = D.TString; nullable = true };
    ]

(* a table indexed on [id] with one row per key of [keys]: the i-th
   key's row has rid i *)
let indexed_table keys =
  let t = Table.create ~name:"keys" (simple_schema ()) in
  check Alcotest.bool "create index" true (Result.is_ok (Table.create_index t ~column:"id"));
  List.iter (fun k -> ignore (Table.insert_exn t [| D.Int k; D.Null |])) keys;
  t

let rids_t = Alcotest.(list int)
let lookup t k = Option.get (Table.index_lookup t ~column:"id" (D.Int k))

let range ?lo ?hi ?lo_inclusive ?hi_inclusive t =
  let int = Option.map (fun k -> D.Int k) in
  Option.get
    (Table.index_range t ~column:"id" ?lo:(int lo) ?hi:(int hi) ?lo_inclusive
       ?hi_inclusive ())

let key_of t rid =
  match Table.get t rid with Some [| D.Int k; _ |] -> k | _ -> Alcotest.fail "no row"

let test_btree_insert_find () =
  let t = indexed_table (List.init 1000 (fun i -> i * 37 mod 1000)) in
  check Alcotest.int "all keys present" 1000
    (List.length (List.sort_uniq Int.compare (List.map (key_of t) (range t))));
  check rids_t "find key 0" [ 0 ] (lookup t 0);
  check rids_t "find key 37" [ 1 ] (lookup t 37);
  check rids_t "absent" [] (lookup t 5000)

let test_btree_duplicates () =
  let t = Table.create ~name:"names" (simple_schema ()) in
  ignore (Table.create_index t ~column:"name");
  let r1 = Table.insert_exn t [| D.Int 1; D.Str "k" |] in
  let r2 = Table.insert_exn t [| D.Int 2; D.Str "k" |] in
  let find () = Option.get (Table.index_lookup t ~column:"name" (D.Str "k")) in
  check rids_t "two postings, insertion order" [ r1; r2 ] (find ());
  check Alcotest.bool "remove one" true (Table.delete t r1);
  check rids_t "one left" [ r2 ] (find ());
  check Alcotest.bool "remove absent" false (Table.delete t r1);
  check rids_t "still one left" [ r2 ] (find ());
  check Alcotest.bool "remove the other" true (Table.delete t r2);
  check rids_t "key gone" [] (find ());
  check rids_t "range skips the emptied key" []
    (Option.get (Table.index_range t ~column:"name" ()))

let test_btree_order () =
  let t = indexed_table [ 5; 3; 9; 1; 7; 2; 8; 4; 6; 0 ] in
  check rids_t "in key order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.map (key_of t) (range t))

let test_btree_range () =
  let t = indexed_table (List.init 100 Fun.id) in
  check rids_t "inclusive range" (List.init 11 (fun i -> 10 + i)) (range ~lo:10 ~hi:20 t);
  check rids_t "exclusive range" (List.init 9 (fun i -> 11 + i))
    (range ~lo:10 ~hi:20 ~lo_inclusive:false ~hi_inclusive:false t);
  check rids_t "open-ended" [ 95; 96; 97; 98; 99 ] (range ~lo:95 t);
  check rids_t "open below" [ 0; 1; 2 ] (range ~hi:3 ~hi_inclusive:false t);
  check rids_t "empty" [] (range ~lo:20 ~hi:10 t);
  check rids_t "bounds between keys" [ 10 ] (range ~lo:9 ~hi:11 ~lo_inclusive:false ~hi_inclusive:false t)

let test_btree_random_vs_model () =
  let rng = Genalg_synth.Rng.make 23 in
  let keys = List.init 3000 (fun _ -> Genalg_synth.Rng.int rng 500) in
  let t = indexed_table keys in
  let model = Hashtbl.create 64 in
  List.iteri
    (fun i k -> Hashtbl.replace model k (i :: Option.value (Hashtbl.find_opt model k) ~default:[]))
    keys;
  Hashtbl.iter
    (fun k expected ->
      check rids_t (Printf.sprintf "postings for %d" k) (List.rev expected) (lookup t k))
    model

(* Words allocated by [f ()], on the minor and the major heap alike; the
   minor collections bring the runtime's counters up to date. *)
let allocated_words f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let result = f () in
  Gc.minor ();
  (result, (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8))

(* A range visits only the keys it returns: 10 keys cost the same
   allocation in a 1 000-row index as in a 100 000-row one, up to the
   few hundred words by which cutting the deeper index costs more. *)
let test_index_range_allocation () =
  let range_words n =
    let t = indexed_table (List.init n Fun.id) in
    let rids, words = allocated_words (fun () -> range ~lo:500 ~hi:509 t) in
    check rids_t "ten keys" (List.init 10 (fun i -> 500 + i)) rids;
    words
  in
  let small = range_words 1_000 and large = range_words 100_000 in
  check Alcotest.bool
    (Printf.sprintf "same allocation (%.0f vs %.0f words)" small large)
    true
    (Float.abs (large -. small) <= 1024.)

(* ---- schema / table ------------------------------------------------------------ *)

let test_schema_validation () =
  check Alcotest.bool "duplicate names rejected" true
    (Result.is_error
       (Schema.make
          [
            { Schema.name = "x"; dtype = D.TInt; nullable = false };
            { Schema.name = "X"; dtype = D.TInt; nullable = false };
          ]));
  let s = simple_schema () in
  check (Alcotest.option Alcotest.int) "lookup" (Some 1) (Schema.column_index s "NAME");
  check Alcotest.bool "arity mismatch" true
    (Result.is_error (Schema.validate_row s [| D.Int 1 |]));
  check Alcotest.bool "null in non-nullable" true
    (Result.is_error (Schema.validate_row s [| D.Null; D.Str "x" |]));
  check Alcotest.bool "type mismatch" true
    (Result.is_error (Schema.validate_row s [| D.Str "1"; D.Null |]));
  check Alcotest.bool "valid row" true
    (Result.is_ok (Schema.validate_row s [| D.Int 1; D.Null |]))

let test_table_crud () =
  let t = Table.create ~name:"people" (simple_schema ()) in
  let r1 = Table.insert_exn t [| D.Int 1; D.Str "ada" |] in
  let _r2 = Table.insert_exn t [| D.Int 2; D.Str "grace" |] in
  check Alcotest.int "rows" 2 (Table.row_count t);
  check Alcotest.bool "bad row rejected" true
    (Result.is_error (Table.insert t [| D.Str "x"; D.Null |]));
  (match Table.get t r1 with
  | Some row -> check Alcotest.bool "get" true (D.equal_value row.(1) (D.Str "ada"))
  | None -> Alcotest.fail "get failed");
  (match Table.update t r1 [| D.Int 1; D.Str "ADA" |] with
  | Ok r1' ->
      check Alcotest.bool "updated" true
        (D.equal_value (Option.get (Table.get t r1')).(1) (D.Str "ADA"))
  | Error msg -> Alcotest.fail msg);
  check Alcotest.bool "delete" true (Table.delete t r1);
  check Alcotest.int "rows after delete" 1 (Table.row_count t)

let test_table_index () =
  let t = Table.create ~name:"data" (simple_schema ()) in
  for i = 1 to 200 do
    ignore (Table.insert_exn t [| D.Int (i mod 10); D.Str (string_of_int i) |])
  done;
  check Alcotest.bool "create index" true (Result.is_ok (Table.create_index t ~column:"id"));
  check Alcotest.bool "duplicate index rejected" true
    (Result.is_error (Table.create_index t ~column:"id"));
  (match Table.index_lookup t ~column:"id" (D.Int 3) with
  | Some rids -> check Alcotest.int "20 rows with id=3" 20 (List.length rids)
  | None -> Alcotest.fail "index missing");
  (* index maintained on insert and delete *)
  let r = Table.insert_exn t [| D.Int 3; D.Str "extra" |] in
  check Alcotest.int "after insert" 21
    (List.length (Option.get (Table.index_lookup t ~column:"id" (D.Int 3))));
  ignore (Table.delete t r);
  check Alcotest.int "after delete" 20
    (List.length (Option.get (Table.index_lookup t ~column:"id" (D.Int 3))));
  check Alcotest.bool "no index on name" true
    (Table.index_lookup t ~column:"name" (D.Str "5") = None)

let test_table_stores_a_copy () =
  let t = Table.create ~name:"people" (simple_schema ()) in
  let row = [| D.Int 1; D.Str "ada" |] in
  let rid = Table.insert_exn t row in
  row.(1) <- D.Str "mutated";
  check row_t "insert kept its own copy" (Some [| D.Int 1; D.Str "ada" |])
    (Table.get t rid);
  let row = [| D.Int 1; D.Str "grace" |] in
  ignore (Result.get_ok (Table.update t rid row));
  row.(1) <- D.Str "mutated";
  check row_t "update kept its own copy" (Some [| D.Int 1; D.Str "grace" |])
    (Table.get t rid)

(* The first write through a shared handle copies the heap spine and
   nothing else that grows with the table: the column indexes and the
   genomic index are persistent values the write replaces. *)
let test_first_write_after_share () =
  let first_write_words n =
    let db = Db.create () in
    Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default;
    let schema =
      Schema.make_exn
        [
          { Schema.name = "id"; dtype = D.TInt; nullable = false };
          { Schema.name = "name"; dtype = D.TString; nullable = false };
          { Schema.name = "seq"; dtype = D.TOpaque "dna"; nullable = false };
        ]
    in
    let t =
      Result.get_ok
        (Db.create_table db ~actor:Db.loader_actor ~space:Db.Public ~name:"t" schema)
    in
    let rng = Genalg_synth.Rng.make 5 in
    let row i =
      let seq = Genalg_synth.Seqgen.dna rng 200 in
      [| D.Int i; D.Str (Printf.sprintf "name%06d" i);
         D.Opaque ("dna", Genalg_gdt.Sequence.to_bytes seq) |]
    in
    for i = 0 to n - 1 do
      ignore (Table.insert_exn t (row i))
    done;
    ignore (Table.create_index t ~column:"id");
    ignore (Table.create_index t ~column:"name");
    ignore (Table.create_genomic_index t ~column:"seq" ~registry:(Db.udts db));
    let fresh = row n in
    let handle = Table.share t in
    let _, words = allocated_words (fun () -> Table.insert_exn handle fresh) in
    check Alcotest.int "the original does not see the write" n (Table.row_count t);
    check Alcotest.int "the handle does" (n + 1) (Table.row_count handle);
    words
  in
  let small = first_write_words 1_000 and large = first_write_words 20_000 in
  (* one spine word per row; the spine grows by doubling, so its spare
     capacity may double that (20 000 rows sit in 32 768 slots) *)
  let bound = (2. *. float_of_int (20_000 - 1_000)) +. 2048. in
  check Alcotest.bool
    (Printf.sprintf "growth %.0f words (%.0f -> %.0f) within %.0f" (large -. small) small
       large bound)
    true
    (large -. small <= bound)

(* ---- database ------------------------------------------------------------------- *)

let test_database_spaces () =
  let db = Db.create () in
  check Alcotest.bool "user cannot create public" true
    (Result.is_error
       (Db.create_table db ~actor:"alice" ~space:Db.Public ~name:"t" (simple_schema ())));
  check Alcotest.bool "loader creates public" true
    (Result.is_ok
       (Db.create_table db ~actor:Db.loader_actor ~space:Db.Public ~name:"t"
          (simple_schema ())));
  check Alcotest.bool "alice creates own" true
    (Result.is_ok
       (Db.create_table db ~actor:"alice" ~space:(Db.User "alice") ~name:"mine"
          (simple_schema ())));
  check Alcotest.bool "alice cannot create for bob" true
    (Result.is_error
       (Db.create_table db ~actor:"alice" ~space:(Db.User "bob") ~name:"x"
          (simple_schema ())));
  (* resolution: own space shadows public *)
  ignore
    (Db.create_table db ~actor:"alice" ~space:(Db.User "alice") ~name:"t" (simple_schema ()));
  (match Db.resolve db ~actor:"alice" "t" with
  | Some (Db.User "alice", _) -> ()
  | _ -> Alcotest.fail "own table should shadow public");
  match Db.resolve db ~actor:"bob" "t" with
  | Some (Db.Public, _) -> ()
  | _ -> Alcotest.fail "bob should see the public table"

let test_database_write_control () =
  let db = Db.create () in
  ignore
    (Db.create_table db ~actor:Db.loader_actor ~space:Db.Public ~name:"pub"
       (simple_schema ()));
  check Alcotest.bool "user cannot write public" true
    (Result.is_error
       (Db.insert db ~actor:"alice" ~space:Db.Public ~table:"pub" [| D.Int 1; D.Null |]));
  check Alcotest.bool "loader writes public" true
    (Result.is_ok
       (Db.insert db ~actor:Db.loader_actor ~space:Db.Public ~table:"pub"
          [| D.Int 1; D.Null |]))

let test_database_grants () =
  let db = Db.create () in
  ignore
    (Db.create_table db ~actor:"alice" ~space:(Db.User "alice") ~name:"private"
       (simple_schema ()));
  check Alcotest.bool "bob cannot see" true (Db.resolve db ~actor:"bob" "private" = None);
  check Alcotest.bool "grant" true
    (Result.is_ok (Db.grant_read db ~owner:"alice" ~grantee:"bob" ~table:"private"));
  check Alcotest.bool "bob sees after grant" true
    (Db.resolve db ~actor:"bob" "private" <> None);
  check Alcotest.bool "only owner grants" true
    (Result.is_error (Db.grant_read db ~owner:"bob" ~grantee:"carol" ~table:"private"))

let test_database_udt_validation () =
  let db = Db.create () in
  let registry = Db.udts db in
  ignore
    (Udt.register_type registry
       {
         Udt.type_name = "blob4";
         validate = (fun b -> Bytes.length b = 4);
         display = (fun _ -> "<blob4>");
         search = None;
       });
  let schema =
    Schema.make_exn [ { Schema.name = "b"; dtype = D.TOpaque "blob4"; nullable = false } ]
  in
  ignore (Db.create_table db ~actor:Db.loader_actor ~space:Db.Public ~name:"blobs" schema);
  check Alcotest.bool "valid payload" true
    (Result.is_ok
       (Db.insert db ~actor:Db.loader_actor ~space:Db.Public ~table:"blobs"
          [| D.Opaque ("blob4", Bytes.make 4 'x') |]));
  check Alcotest.bool "malformed payload rejected" true
    (Result.is_error
       (Db.insert db ~actor:Db.loader_actor ~space:Db.Public ~table:"blobs"
          [| D.Opaque ("blob4", Bytes.make 3 'x') |]));
  check Alcotest.bool "unregistered UDT rejected" true
    (Result.is_error
       (Db.insert db ~actor:Db.loader_actor ~space:Db.Public ~table:"blobs"
          [| D.Opaque ("mystery", Bytes.make 4 'x') |]))

let test_database_persistence () =
  let db = Db.create () in
  ignore
    (Db.create_table db ~actor:Db.loader_actor ~space:Db.Public ~name:"t" (simple_schema ()));
  ignore
    (Db.create_table db ~actor:"alice" ~space:(Db.User "alice") ~name:"mine"
       (simple_schema ()));
  (match Db.find_table db ~space:Db.Public "t" with
  | Some t ->
      for i = 1 to 50 do
        ignore (Table.insert_exn t [| D.Int i; D.Str (string_of_int i) |])
      done;
      ignore (Table.create_index t ~column:"id")
  | None -> Alcotest.fail "setup");
  let path = Filename.temp_file "genalg" ".db" in
  (match Db.save db path with Ok () -> () | Error m -> Alcotest.fail m);
  (match Db.load path with
  | Ok db2 -> (
      check Alcotest.int "tables restored" 2 (Db.table_count db2);
      match Db.find_table db2 ~space:Db.Public "t" with
      | Some t2 ->
          check Alcotest.int "rows restored" 50 (Table.row_count t2);
          check Alcotest.bool "index rebuilt" true (Table.has_index t2 ~column:"id");
          check Alcotest.int "index works" 1
            (List.length (Option.get (Table.index_lookup t2 ~column:"id" (D.Int 7))))
      | None -> Alcotest.fail "public table missing after load")
  | Error m -> Alcotest.fail m);
  Sys.remove path

(* Cloning shares tables, so its allocation must not grow with the rows
   they hold. *)
let test_database_clone_is_row_independent () =
  let clone_words n =
    let db = Db.create () in
    let t =
      Result.get_ok
        (Db.create_table db ~actor:Db.loader_actor ~space:Db.Public ~name:"t"
           (simple_schema ()))
    in
    for i = 1 to n do
      ignore (Table.insert_exn t [| D.Int i; D.Str "x" |])
    done;
    ignore (Table.create_index t ~column:"id");
    let before = Gc.minor_words () in
    let copy = Db.clone db in
    let words = Gc.minor_words () -. before in
    check Alcotest.int "clone sees every row" n
      (Table.row_count (Option.get (Db.find_table copy ~space:Db.Public "t")));
    words
  in
  let small = clone_words 1_000 and large = clone_words 100_000 in
  check Alcotest.bool
    (Printf.sprintf "same allocation (%.0f vs %.0f words)" small large)
    true
    (Float.abs (large -. small) <= 16.)

(* ---- udt registry ------------------------------------------------------------------ *)

let test_udf_overloading () =
  let r = Udt.create () in
  let f args ret =
    { Udt.fn_name = "f"; arg_types = args; return_type = ret; code = (fun _ -> Ok D.Null) }
  in
  check Alcotest.bool "register" true (Result.is_ok (Udt.register_function r (f [ D.TInt ] D.TInt)));
  check Alcotest.bool "overload" true
    (Result.is_ok (Udt.register_function r (f [ D.TString ] D.TInt)));
  check Alcotest.bool "duplicate rank rejected" true
    (Result.is_error (Udt.register_function r (f [ D.TInt ] D.TFloat)));
  check Alcotest.bool "resolve exact" true (Udt.resolve_function r "f" [ D.TString ] <> None);
  check Alcotest.bool "resolve widened" true
    (Udt.resolve_function r "g" [ D.TInt ] = None)

let suites =
  [
    ( "storage.dtype",
      [
        tc "value roundtrip" `Quick test_value_roundtrip;
        tc "row roundtrip" `Quick test_row_roundtrip;
        tc "compare" `Quick test_value_compare;
        tc "conforms" `Quick test_conforms;
        tc "corrupt decode" `Quick test_corrupt_decode;
      ] );
    ( "storage.heap",
      [
        tc "many records" `Quick test_heap_many_records;
        tc "delete/update" `Quick test_heap_delete_update;
      ] );
    ( "storage.btree",
      [
        tc "insert/find" `Quick test_btree_insert_find;
        tc "duplicates" `Quick test_btree_duplicates;
        tc "order" `Quick test_btree_order;
        tc "range" `Quick test_btree_range;
        tc "random vs model" `Quick test_btree_random_vs_model;
        tc "range allocation independent of rows" `Quick test_index_range_allocation;
      ] );
    ( "storage.table",
      [
        tc "schema validation" `Quick test_schema_validation;
        tc "crud" `Quick test_table_crud;
        tc "index" `Quick test_table_index;
        tc "stores a copy of the row" `Quick test_table_stores_a_copy;
        tc "first write after share copies only the heap spine" `Quick
          test_first_write_after_share;
      ] );
    ( "storage.database",
      [
        tc "spaces" `Quick test_database_spaces;
        tc "write control" `Quick test_database_write_control;
        tc "grants" `Quick test_database_grants;
        tc "udt validation" `Quick test_database_udt_validation;
        tc "persistence" `Quick test_database_persistence;
        tc "clone allocation independent of rows" `Quick
          test_database_clone_is_row_independent;
      ] );
    ("storage.udt", [ tc "overloading" `Quick test_udf_overloading ]);
  ]
