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

(* ---- one reader behind every binary decoder ---- *)

module D = Genalg_storage.Dtype
module Db = Genalg_storage.Database
module Wal = Genalg_storage.Wal
module Protocol = Genalg_serve.Protocol
module Manifest = Genalg_shard.Manifest
module Codec = Genalg_adapter.Codec

let with_file f =
  let path = Filename.temp_file "decode" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* a legacy bare v1 body: one public table (id int, name string), id
   indexed; each of [rows] is one length-prefixed row record *)
let v1_body rows =
  let b = Buffer.create 128 in
  let str s =
    Buffer.add_string b (int64_le (String.length s));
    Buffer.add_string b s
  in
  Buffer.add_string b "GENALGDB1";
  Buffer.add_string b (int64_le 1);
  str "!public";
  str "t";
  Buffer.add_string b (int64_le 2);
  List.iter
    (fun (name, ty, nullable) ->
      str name;
      str ty;
      Buffer.add_char b nullable)
    [ ("id", "int", '\000'); ("name", "string", '\001') ];
  Buffer.add_string b (int64_le 1);
  str "id";
  Buffer.add_string b (int64_le 0);
  Buffer.add_string b (int64_le (List.length rows));
  List.iter (Buffer.add_string b) rows;
  Buffer.contents b

let row_record row =
  let enc = Bytes.to_string (D.encode_row row) in
  int64_le (String.length enc) ^ enc

let load_image raw =
  with_file (fun path ->
      write_file path raw;
      Db.load path)

let local_manifest =
  {
    Manifest.topology = Manifest.Local { shards = 3; replicas = true };
    pcols = [ ("genes", "organism") ];
    next_seq = 42;
    log_base = 7;
    shards =
      [
        { Manifest.epoch = 2; primary_applied = 41; replica_applied = Some 40 };
        { Manifest.epoch = 1; primary_applied = 39; replica_applied = None };
      ];
  }

let golden_hex_request =
  String.concat ""
    [
      "4603000000000000002a00000000000000140000000000000053454c45435420";
      "69642046524f4d2067656e6573";
    ]

let golden_hex_reply =
  String.concat ""
    [
      "5404000000000000000200000000000000696404000000000000006e616d6505";
      "0000000000000073636f7265030000000000000073657102000000000000003f";
      "0000000000000004000000000000000201000000000000000405000000000000";
      "00616c706861030000000000000440050300000000000000646e610300000000";
      "0000000001021d00000000000000040000000000000002f9ffffffffffffff00";
      "0101040000000000000000";
    ]

let golden_hex_wal =
  String.concat ""
    [
      "47454e414c47574c3109000000000000005120a0690000000001000000000000";
      "00422c00000000000000ce594baaffffffff0100000000000000530300000000";
      "00000065746c494e5345525420494e544f20742056414c554553202831291100";
      "000000000000cad074290000000001000000000000004d050000000000000009";
      "00000000000000c710a71e00000000010000000000000043";
    ]

let golden_hex_manifest =
  String.concat ""
    [
      "47454e414c474d4631d850bc7c00000000010000000000000052030000000000";
      "000065746c0200000000000000070000000000000073302e736f636b07000000";
      "0000000073312e736f636b0200000000000000070000000000000072302e736f";
      "636b070000000000000072312e736f636b010000000000000005000000000000";
      "0067656e657308000000000000006f7267616e69736d2a000000000000000700";
      "0000000000000200000000000000020000000000000029000000000000002900";
      "000000000000000000000000000029000000000000000000000000000000";
    ]

let golden_hex_gene =
  String.concat ""
    [
      "020000000000000047310400000000000000616263310d00000000000000000f";
      "000000000000002c50a903020000000000000000000000000000000600000000";
      "000000090000000000000006000000000000000200000000000000";
    ]

let golden_hex_image =
  String.concat ""
    [
      "47454e414c474442320100000000000000e002000000000000e0020000000000";
      "00eaad85f4ffffffff47454e414c474442330100000000000000080000000000";
      "0000757365723a616e6e050000000000000067656e6573040000000000000002";
      "0000000000000069640300000000000000696e740004000000000000006e616d";
      "650600000000000000737472696e6701050000000000000073636f7265050000";
      "0000000000666c6f6174010400000000000000626c6f62040000000000000062";
      "6c6f620101000000000000000200000000000000696401000000000000000300";
      "000000000000626f6203000000000000003b0000000000000004000000000000";
      "000201000000000000000401000000000000006103000000000000e03f050400";
      "000000000000626c6f62020000000000000078791c0000000000000004000000";
      "0000000002020000000000000000020300000000000000001d00000000000000";
      "0400000000000000020300000000000000040100000000000000630000040000";
      "00000000000400000000000000626c6f62030000000000000001000000000000";
      "0002000000000000000000000000000000000002000000000000006964030000";
      "0000000000030000000000000000000000000000000102010000000000000001";
      "0203000000000000000300000000000000020100000000000000010000000000";
      "0000020200000000000000010000000000000002030000000000000001000000";
      "0000000004000000000000006e616d6503000000000000000200000000000000";
      "0100000000000000010401000000000000006101040100000000000000630200";
      "0000000000000401000000000000006101000000000000000401000000000000";
      "00630100000000000000050000000000000073636f7265030000000000000002";
      "0000000000000001000000000000000103000000000000e03f01020300000000";
      "000000020000000000000003000000000000e03f010000000000000002030000";
      "0000000000010000000000000001000000000000000400000000000000626c6f";
      "620800000000000000";
    ]


let of_hex h = String.init (String.length h / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))
let golden_request = of_hex golden_hex_request
let golden_reply = of_hex golden_hex_reply
let golden_wal = of_hex golden_hex_wal
let golden_manifest = of_hex golden_hex_manifest
let golden_gene = of_hex golden_hex_gene
let golden_image = of_hex golden_hex_image

let golden_gene_value () =
  Result.get_ok
    (Gene.make ~name:"abc1" ~exons:[ (0, 6); (9, 6) ]
       ~code:(Option.get (Genetic_code.by_id 2)) ~id:"G1"
       (Sequence.dna "ATGAAACCCGGGTAA"))

(* Seeded mutations of a valid encoding for every binary format: each
   decoder returns [Ok] or [Error] and never raises. The unmutated input
   must decode, and some mutations must be rejected. *)
let test_decoder_mutations () =
  let rng = Rng.make 9015 in
  let unit_of r = Result.map ignore r in
  let from_file decode raw =
    with_file (fun path ->
        write_file path raw;
        decode path)
  in
  let rna = Sequence.rna "AUGGCCAUUGUAAUGGGCCGCUGA" in
  let code = Genetic_code.standard in
  let cases =
    [
      ("Protocol.decode_request", golden_request, fun s -> unit_of (Protocol.decode_request s));
      ("Protocol.decode_reply", golden_reply, fun s -> unit_of (Protocol.decode_reply s));
      ("Wal.replay", golden_wal, fun s -> unit_of (from_file Wal.replay s));
      ( "Manifest.decode local",
        Manifest.encode local_manifest,
        fun s -> unit_of (Manifest.decode s) );
      ("Manifest.decode remote", golden_manifest, fun s -> unit_of (Manifest.decode s));
      ( "Database.load v1 body",
        v1_body [ row_record [| D.Int 1; D.Str "a" |]; row_record [| D.Int 2; D.Null |] ],
        fun s -> unit_of (load_image s) );
      ("Database.load v2 image", golden_image, fun s -> unit_of (load_image s));
      ( "Codec.decode_gene",
        Bytes.to_string (Codec.encode_gene (golden_gene_value ())),
        fun s -> unit_of (Codec.decode_gene (Bytes.of_string s)) );
      ( "Codec.decode_protein",
        Bytes.to_string
          (Codec.encode_protein
             (Protein.make_exn ~name:"p" ~id:"P1" (Sequence.protein "MAIVMGR"))),
        fun s -> unit_of (Codec.decode_protein (Bytes.of_string s)) );
      ( "Codec.decode_primary",
        Bytes.to_string
          (Codec.encode_primary
             (Transcript.primary ~gene_id:"G1" ~exons:[ (0, 6); (12, 6) ] ~code rna)),
        fun s -> unit_of (Codec.decode_primary (Bytes.of_string s)) );
      ( "Codec.decode_mrna",
        Bytes.to_string (Codec.encode_mrna (Transcript.mrna ~gene_id:"G1" ~code rna)),
        fun s -> unit_of (Codec.decode_mrna (Bytes.of_string s)) );
      ( "Dtype.decode_row",
        Bytes.to_string
          (D.encode_row
             [| D.Int 5; D.Str "hello"; D.Opaque ("dna", Bytes.make 4 'x'); D.Null;
                D.Bool true; D.Float 1.5 |]),
        fun s -> unit_of (D.decode_row (Bytes.of_string s)) );
    ]
  in
  List.iter
    (fun (name, base, decode) ->
      (match decode base with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: the unmutated input fails: %s" name msg);
      let rejected = ref 0 in
      List.iteri
        (fun i input ->
          match decode input with
          | Ok () -> ()
          | Error _ -> incr rejected
          | exception exn ->
              Alcotest.failf "%s raised on mutation %d: %s" name i (Printexc.to_string exn))
        (fuzz_corpus rng base 200);
      check Alcotest.bool (name ^ " rejects some mutations") true (!rejected > 0))
    cases

(* Lengths of [max_int] in a legacy image body and in a row's [Str] and
   [Opaque] values: the reader's [truncated], not whichever [Bytes.sub]
   the overflowed length reached. *)
let test_huge_lengths () =
  check
    Alcotest.(result reject string)
    "v1 body row length" (Error "Database.load: truncated")
    (load_image (v1_body [ int64_le max_int ]));
  let row_error raw =
    match D.decode_row (Bytes.of_string raw) with
    | Ok _ -> "decoded"
    | Error msg -> msg
  in
  check Alcotest.string "Str length" "truncated"
    (row_error (int64_le 1 ^ "\004" ^ int64_le max_int));
  check Alcotest.string "Opaque payload length" "truncated"
    (row_error (int64_le 1 ^ "\005" ^ int64_le 3 ^ "dna" ^ int64_le max_int));
  check Alcotest.string "arity beyond the bytes left" "implausible count"
    (row_error (int64_le max_int ^ "\000"))

let test_checksum_bounds () =
  let b = Bytes.of_string "abcdef" in
  check Alcotest.int32 "whole slice" (Genalg_storage.Checksum.string "cde")
    (Genalg_storage.Checksum.sub b ~pos:2 ~len:3);
  List.iter
    (fun (pos, len) ->
      match Genalg_storage.Checksum.sub b ~pos ~len with
      | _ -> Alcotest.failf "slice pos %d len %d accepted" pos len
      | exception Invalid_argument _ -> ())
    [ (4, 3); (-1, 2); (0, -1); (1, max_int); (7, 0) ]

(* Encodings written before every decoder moved to one reader, kept as
   bytes: each still decodes to the values it was made from, and today's
   encoders write the same bytes. *)
let test_golden_bytes () =
  let request = Protocol.Fenced_query { epoch = 3; lsn = Some 41; sql = "SELECT id FROM genes" } in
  check Alcotest.bool "request decodes" true (Protocol.decode_request golden_request = Ok request);
  check Alcotest.string "request encodes" golden_request (Protocol.encode_request request);
  let reply =
    Protocol.Rows
      {
        columns = [ "id"; "name"; "score"; "seq" ];
        rows =
          [
            [| D.Int 1; D.Str "alpha"; D.Float 2.5; D.Opaque ("dna", Bytes.of_string "\x00\x01\x02") |];
            [| D.Int (-7); D.Null; D.Bool true; D.Str "" |];
          ];
      }
  in
  check Alcotest.bool "reply decodes" true (Protocol.decode_reply golden_reply = Ok reply);
  check Alcotest.string "reply encodes" golden_reply (Protocol.encode_reply reply);
  with_file (fun path ->
      write_file path golden_wal;
      match Wal.replay path with
      | Ok rp ->
          check Alcotest.bool "wal statements" true
            (rp.Wal.committed
            = [ { Wal.rp_txn = 1; rp_actor = "etl"; rp_sql = "INSERT INTO t VALUES (1)" } ]);
          check Alcotest.(option int) "wal marker" (Some 5) rp.Wal.last_lsn;
          check Alcotest.bool "wal not torn" false rp.Wal.torn
      | Error msg -> Alcotest.fail msg);
  with_file (fun path ->
      Sys.remove path;
      let w = Result.get_ok (Wal.open_ path) in
      Wal.append_begin w ~txn:1;
      Wal.append_stmt w ~txn:1 ~actor:"etl" ~sql:"INSERT INTO t VALUES (1)";
      Wal.append_marker w ~txn:1 ~lsn:5;
      Wal.append_commit w ~txn:1;
      ignore (Result.get_ok (Wal.flush w));
      Wal.close w;
      check Alcotest.string "wal encodes" golden_wal (read_file path));
  let manifest =
    {
      Manifest.topology =
        Manifest.Remote
          { actor = "etl"; sockets = [ "s0.sock"; "s1.sock" ]; replicas = [ "r0.sock"; "r1.sock" ] };
      pcols = [ ("genes", "organism") ];
      next_seq = 42;
      log_base = 7;
      shards =
        [
          { Manifest.epoch = 2; primary_applied = 41; replica_applied = Some 40 };
          { Manifest.epoch = 0; primary_applied = 41; replica_applied = None };
        ];
    }
  in
  check Alcotest.bool "manifest decodes" true (Manifest.decode golden_manifest = Ok manifest);
  check Alcotest.string "manifest encodes" golden_manifest (Manifest.encode manifest);
  let gene = golden_gene_value () in
  (match Codec.decode_gene (Bytes.of_string golden_gene) with
  | Ok g -> check Alcotest.bool "gene decodes" true (Gene.equal g gene)
  | Error msg -> Alcotest.fail msg);
  check Alcotest.string "gene encodes" golden_gene (Bytes.to_string (Codec.encode_gene gene));
  let db = Result.get_ok (load_image golden_image) in
  let table =
    match Db.resolve db ~actor:"bob" "genes" with
    | Some (Db.User "ann", t) -> t
    | _ -> Alcotest.fail "table genes in ann's space, granted to bob"
  in
  let rows = List.rev (Genalg_storage.Table.fold table ~init:[] ~f:(fun acc _ r -> r :: acc)) in
  check Alcotest.bool "image rows" true
    (rows
    = [
        [| D.Int 1; D.Str "a"; D.Float 0.5; D.Opaque ("blob", Bytes.of_string "xy") |];
        [| D.Int 2; D.Null; D.Int 3; D.Null |];
        [| D.Int 3; D.Str "c"; D.Null; D.Null |];
      ]);
  check Alcotest.(list string) "image index" [ "id" ]
    (Genalg_storage.Table.indexed_columns table);
  check Alcotest.(list (pair string int)) "image genomic specs" [ ("blob", 8) ]
    (Genalg_storage.Table.genomic_specs table);
  check Alcotest.(list string) "image statistics" [ "blob"; "id"; "name"; "score" ]
    (List.sort compare (List.map fst (Genalg_storage.Table.stats_snapshot table)));
  with_file (fun path ->
      ignore (Result.get_ok (Db.save db path));
      check Alcotest.string "image encodes" golden_image (read_file path))

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
        tc "decoder mutations" `Quick test_decoder_mutations;
        tc "image and row lengths near max_int" `Quick test_huge_lengths;
        tc "checksum slice bounds" `Quick test_checksum_bounds;
        tc "golden bytes" `Quick test_golden_bytes;
      ] );
    ("robustness.etl", [ tc "monitor corrupt dump" `Quick test_monitor_on_corrupt_dump ]);
  ]
