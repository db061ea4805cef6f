(* Failure-injection and fuzz-robustness tests: every parser and decoder
   must return [Error] (or a clean result) on corrupted input — never
   raise. Corruption is deterministic (seeded mutations of valid data),
   so failures are reproducible. *)

open Genalg_gdt
module Rng = Genalg_synth.Rng

let check = Alcotest.check
let tc = Alcotest.test_case

(* mutate a string: substitutions, deletions, insertions, truncations *)
let mutate_text rng text =
  let n = String.length text in
  if n = 0 then text
  else
    match Rng.int rng 4 with
    | 0 ->
        (* substitute a random byte *)
        let b = Bytes.of_string text in
        Bytes.set b (Rng.int rng n) (Char.chr (Rng.int rng 256));
        Bytes.to_string b
    | 1 ->
        (* delete a slice *)
        let start = Rng.int rng n in
        let len = min (n - start) (1 + Rng.int rng 20) in
        String.sub text 0 start ^ String.sub text (start + len) (n - start - len)
    | 2 ->
        (* insert junk *)
        let pos = Rng.int rng n in
        let junk = String.init (1 + Rng.int rng 10) (fun _ -> Char.chr (32 + Rng.int rng 90)) in
        String.sub text 0 pos ^ junk ^ String.sub text pos (n - pos)
    | _ ->
        (* truncate *)
        String.sub text 0 (Rng.int rng n)

let no_crash name f inputs =
  List.iteri
    (fun i input ->
      match f input with
      | _ -> ()
      | exception exn ->
          Alcotest.failf "%s crashed on fuzz case %d: %s" name i
            (Printexc.to_string exn))
    inputs;
  check Alcotest.bool (name ^ " survived") true true

let fuzz_corpus rng base n = List.init n (fun _ -> mutate_text rng base)

let test_genbank_fuzz () =
  let rng = Rng.make 9001 in
  let entries = Genalg_synth.Recordgen.repository rng ~size:3 () in
  let base = Genalg_formats.Genbank.print entries in
  no_crash "Genbank.parse" Genalg_formats.Genbank.parse (fuzz_corpus rng base 150)

let test_embl_fuzz () =
  let rng = Rng.make 9002 in
  let entries = Genalg_synth.Recordgen.repository rng ~size:3 () in
  let base = Genalg_formats.Embl.print entries in
  no_crash "Embl.parse" Genalg_formats.Embl.parse (fuzz_corpus rng base 150)

let test_fasta_fuzz () =
  let rng = Rng.make 9003 in
  let base = ">a desc\nACGTACGT\n>b\nGGCCGGCC\n" in
  no_crash "Fasta.parse" Genalg_formats.Fasta.parse (fuzz_corpus rng base 150)

let test_acedb_fuzz () =
  let rng = Rng.make 9004 in
  let entries = Genalg_synth.Recordgen.repository rng ~size:2 () in
  let base =
    String.concat ""
      (List.map (fun e -> Genalg_formats.Acedb.print (Genalg_formats.Acedb.of_entry e)) entries)
  in
  no_crash "Acedb.parse" Genalg_formats.Acedb.parse (fuzz_corpus rng base 150)

let test_sql_fuzz () =
  let rng = Rng.make 9005 in
  let bases =
    [
      "SELECT a, count(*) FROM t, u x WHERE a = 1 AND contains(seq, 'ACGT') GROUP BY a HAVING count(*) > 2 ORDER BY a DESC LIMIT 5";
      "INSERT INTO t (a, b) VALUES (1, 'x''y'), (2.5, NULL)";
      "CREATE TABLE t (a int NOT NULL, s dna)";
      "CREATE GENOMIC INDEX ON t (s)";
    ]
  in
  let corpus = List.concat_map (fun b -> fuzz_corpus rng b 80) bases in
  no_crash "Parser.parse" Genalg_sqlx.Parser.parse corpus

let test_biolang_fuzz () =
  let rng = Rng.make 9006 in
  let base = "find sequences where organism is 'x' and gc content above 0.5 limit 3" in
  no_crash "Biolang.compile" Genalg_biolang.Biolang.compile (fuzz_corpus rng base 200)

let test_location_fuzz () =
  let rng = Rng.make 9007 in
  let base = "join(1..10,complement(20..30),order(40..50))" in
  no_crash "Location.of_string" Location.of_string (fuzz_corpus rng base 200)

let test_xml_fuzz () =
  let rng = Rng.make 9008 in
  let gene = Genalg_synth.Genegen.gene rng ~id:"fz" () in
  let base = Genalg_xml.Genalgxml.to_string (Genalg_core.Value.VGene gene) in
  no_crash "Genalgxml.of_string" Genalg_xml.Genalgxml.of_string (fuzz_corpus rng base 150)

let test_sequence_bytes_fuzz () =
  let rng = Rng.make 9009 in
  let base = Bytes.to_string (Sequence.to_bytes (Sequence.dna "ACGTACGTACGTN")) in
  no_crash "Sequence.of_bytes"
    (fun s -> Sequence.of_bytes (Bytes.of_string s))
    (fuzz_corpus rng base 200)

let test_codec_fuzz () =
  let rng = Rng.make 9010 in
  let gene = Genalg_synth.Genegen.gene rng ~id:"cz" () in
  let base = Bytes.to_string (Genalg_adapter.Codec.encode_gene gene) in
  no_crash "Codec.decode_gene"
    (fun s -> Genalg_adapter.Codec.decode_gene (Bytes.of_string s))
    (fuzz_corpus rng base 200)

let test_row_decode_fuzz () =
  let rng = Rng.make 9011 in
  let module D = Genalg_storage.Dtype in
  let base =
    Bytes.to_string
      (D.encode_row [| D.Int 5; D.Str "hello"; D.Opaque ("dna", Bytes.make 4 'x'); D.Null |])
  in
  no_crash "Dtype.decode_row" (fun s -> D.decode_row (Bytes.of_string s))
    (fuzz_corpus rng base 200)

(* A length field of [max_int] wraps [pos + n] negative: a bounds check
   written that way passes, and the read that follows raises. Each
   decoder must report the record as truncated instead. *)
let int64_le i =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int i);
  Bytes.to_string b

let test_wal_huge_length () =
  let module Wal = Genalg_storage.Wal in
  (* magic, record length, CRC, one payload byte: 26 bytes *)
  let raw = "GENALGWL1" ^ int64_le max_int ^ int64_le 0 ^ "B" in
  check Alcotest.int "file size" 26 (String.length raw);
  let path = Filename.temp_file "huge" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc raw);
      match Wal.replay path with
      | Ok rp ->
          check Alcotest.bool "torn tail" true rp.Wal.torn;
          check Alcotest.int "nothing committed" 0 (List.length rp.Wal.committed)
      | Error msg -> Alcotest.failf "replay: %s" msg
      | exception exn -> Alcotest.failf "replay raised %s" (Printexc.to_string exn))

let test_manifest_huge_length () =
  let module Manifest = Genalg_shard.Manifest in
  (* body: version 1, remote topology, actor name of length max_int *)
  let body = int64_le 1 ^ "R" ^ int64_le max_int in
  let crc = Int64.of_int32 (Genalg_storage.Checksum.string body) in
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 crc;
  let raw = "GENALGMF1" ^ Bytes.to_string b ^ body in
  match Manifest.decode raw with
  | Error msg -> check Alcotest.string "error" "corrupt manifest: truncated" msg
  | Ok _ -> Alcotest.fail "decoded a truncated manifest"
  | exception exn -> Alcotest.failf "decode raised %s" (Printexc.to_string exn)

let test_codec_huge_length () =
  (* a gene whose first sized field claims max_int bytes *)
  match Genalg_adapter.Codec.decode_gene (Bytes.of_string (int64_le max_int ^ "x")) with
  | Error msg -> check Alcotest.string "error" "truncated" msg
  | Ok _ -> Alcotest.fail "decoded a truncated gene"

let test_database_load_corruption () =
  (* a valid snapshot, then byte-level corruption: load must error, not
     crash or loop *)
  let rng = Rng.make 9012 in
  let db = Genalg_storage.Database.create () in
  ignore (Genalg_etl.Loader.init db Genalg_core.Builtin.default);
  let entries = Genalg_synth.Recordgen.repository rng ~size:5 () in
  ignore
    (Genalg_etl.Loader.load_merged db
       (Genalg_etl.Integrator.reconcile (List.map (fun e -> ("s", e)) entries)));
  let path = Filename.temp_file "fuzz" ".db" in
  (match Genalg_storage.Database.save db path with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let original =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  for i = 0 to 49 do
    let corrupted = mutate_text rng original in
    let out = open_out_bin path in
    output_string out corrupted;
    close_out out;
    match Genalg_storage.Database.load path with
    | Ok _ | Error _ -> ()
    | exception exn ->
        Alcotest.failf "Database.load crashed on corruption %d: %s" i
          (Printexc.to_string exn)
  done;
  Sys.remove path;
  check Alcotest.bool "load survived corruption" true true

let test_monitor_on_corrupt_dump () =
  (* a source whose dump is corrupted between polls must not crash the
     monitor *)
  let rng = Rng.make 9014 in
  let entries = Genalg_synth.Recordgen.repository rng ~size:5 () in
  let src =
    Genalg_etl.Source.create ~name:"s" Genalg_etl.Source.Non_queryable
      Genalg_etl.Source.Flat_file entries
  in
  let m = Result.get_ok (Genalg_etl.Monitor.create src) in
  ignore (Genalg_etl.Monitor.poll m);
  (* mutate the source's entries so the next dump differs wildly *)
  Genalg_etl.Source.apply src
    [ Genalg_etl.Source.Delete (List.hd entries).Genalg_formats.Entry.accession ];
  match Genalg_etl.Monitor.poll m with
  | _ -> check Alcotest.bool "monitor survived" true true
  | exception exn -> Alcotest.failf "monitor crashed: %s" (Printexc.to_string exn)

let suites =
  [
    ( "robustness.parsers",
      [
        tc "genbank fuzz" `Quick test_genbank_fuzz;
        tc "embl fuzz" `Quick test_embl_fuzz;
        tc "fasta fuzz" `Quick test_fasta_fuzz;
        tc "acedb fuzz" `Quick test_acedb_fuzz;
        tc "sql fuzz" `Quick test_sql_fuzz;
        tc "biolang fuzz" `Quick test_biolang_fuzz;
        tc "location fuzz" `Quick test_location_fuzz;
        tc "xml fuzz" `Quick test_xml_fuzz;
      ] );
    ( "robustness.binary",
      [
        tc "sequence bytes fuzz" `Quick test_sequence_bytes_fuzz;
        tc "gene codec fuzz" `Quick test_codec_fuzz;
        tc "row decode fuzz" `Quick test_row_decode_fuzz;
        tc "database load corruption" `Quick test_database_load_corruption;
        tc "wal length near max_int" `Quick test_wal_huge_length;
        tc "manifest length near max_int" `Quick test_manifest_huge_length;
        tc "gene codec length near max_int" `Quick test_codec_huge_length;
      ] );
    ("robustness.etl", [ tc "monitor corrupt dump" `Quick test_monitor_on_corrupt_dump ]);
  ]
