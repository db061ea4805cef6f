(* Property-based tests (QCheck) on core data structures and invariants. *)

open Genalg_gdt
module Q = QCheck2

let dna_letters = "ACGT"
let iupac_letters = "ACGTRYSWKMBDHVN"
let protein_letters = "ACDEFGHIKLMNPQRSTVWY"

let string_over letters =
  Q.Gen.(
    let letter = map (fun i -> letters.[i]) (int_bound (String.length letters - 1)) in
    map
      (fun cs -> String.init (List.length cs) (List.nth cs))
      (list_size (int_bound 200) letter))

let dna_gen = string_over dna_letters
let iupac_gen = string_over iupac_letters
let protein_gen = string_over protein_letters

let qtest name gen prop =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count:200 ~name gen prop)

(* ---- sequence invariants ------------------------------------------------ *)

let seq_props =
  [
    qtest "to_string (of_string s) = s" iupac_gen (fun s ->
        Sequence.to_string (Sequence.dna s) = s);
    qtest "revcomp is an involution" iupac_gen (fun s ->
        let seq = Sequence.dna s in
        Sequence.equal (Sequence.reverse_complement (Sequence.reverse_complement seq)) seq);
    qtest "complement preserves length" iupac_gen (fun s ->
        let seq = Sequence.dna s in
        Sequence.length (Sequence.complement seq) = Sequence.length seq);
    qtest "binary serialization round-trips (DNA)" iupac_gen (fun s ->
        let seq = Sequence.dna s in
        match Sequence.of_bytes (Sequence.to_bytes seq) with
        | Ok seq2 -> Sequence.equal seq seq2
        | Error _ -> false);
    qtest "binary serialization round-trips (protein)" protein_gen (fun s ->
        let seq = Sequence.protein s in
        match Sequence.of_bytes (Sequence.to_bytes seq) with
        | Ok seq2 -> Sequence.equal seq seq2
        | Error _ -> false);
    qtest "dna->rna->dna is the identity" dna_gen (fun s ->
        let seq = Sequence.dna s in
        Sequence.equal (Sequence.to_dna (Sequence.to_rna seq)) seq);
    qtest "sub covers concat" Q.Gen.(pair dna_gen dna_gen) (fun (a, b) ->
        let sa = Sequence.dna a and sb = Sequence.dna b in
        let joined = Sequence.append sa sb in
        Sequence.equal (Sequence.sub joined ~pos:0 ~len:(Sequence.length sa)) sa
        && Sequence.equal
             (Sequence.sub joined ~pos:(Sequence.length sa) ~len:(Sequence.length sb))
             sb);
    qtest "find agrees with a naive scan" Q.Gen.(pair dna_gen dna_gen) (fun (text, pat) ->
        let pat = if String.length pat > 5 then String.sub pat 0 5 else pat in
        Q.assume (String.length pat > 0);
        let seq = Sequence.dna text in
        Sequence.find_all ~pattern:pat seq
        = Genalg_seqindex.Search.naive_find_all ~pattern:pat text);
    qtest "gc_count <= length" iupac_gen (fun s ->
        let seq = Sequence.dna s in
        Sequence.gc_count seq <= Sequence.length seq);
  ]

(* ---- central dogma laws --------------------------------------------------- *)

let gene_gen =
  Q.Gen.(
    map
      (fun (seed, exons) ->
        let rng = Genalg_synth.Rng.make seed in
        Genalg_synth.Genegen.gene rng ~exon_count:(1 + exons) ~id:"prop" ())
      (pair (int_bound 10000) (int_bound 4)))

let dogma_props =
  [
    qtest "transcribe preserves length" gene_gen (fun g ->
        Genalg_gdt.Transcript.primary_length (Genalg_core.Ops.transcribe g) = Gene.length g);
    qtest "splice yields the exonic length" gene_gen (fun g ->
        let m = Genalg_core.Ops.splice (Genalg_core.Ops.transcribe g) in
        Genalg_gdt.Transcript.mrna_length m = Gene.exonic_length g);
    qtest "decode succeeds on generated genes and starts with Met" gene_gen (fun g ->
        match Genalg_core.Ops.decode g with
        | Ok p -> Protein.length p > 0 && Sequence.get p.Protein.residues 0 = 'M'
        | Error _ -> false);
    qtest "reverse_transcribe inverts sequence-level transcription" dna_gen (fun s ->
        let seq = Sequence.dna s in
        Sequence.equal (Genalg_core.Ops.reverse_transcribe (Sequence.to_rna seq)) seq);
    qtest "all 64 codons translate in every registered code" Q.Gen.(int_bound 63)
      (fun i ->
        let codon =
          let bases = "TCAG" in
          String.init 3 (fun k ->
              bases.[match k with 0 -> i / 16 | 1 -> i / 4 mod 4 | _ -> i mod 4])
        in
        List.for_all
          (fun code ->
            match Genetic_code.translate_codon code codon with _ -> true)
          (Genetic_code.all ()));
  ]

(* ---- alignment & diff ------------------------------------------------------- *)

let align_props =
  [
    qtest "self-alignment score equals self-score" dna_gen (fun s ->
        Q.assume (String.length s > 0);
        let matrix = Genalg_align.Scoring.dna ~match_:1 ~mismatch:(-1) in
        let score =
          Genalg_align.Pairwise.score_only ~mode:Genalg_align.Pairwise.Global ~matrix
            ~gap:(Genalg_align.Scoring.linear_gap 1) ~query:s ~subject:s ()
        in
        score = String.length s);
    qtest "alignment score is symmetric (global, symmetric matrix)"
      Q.Gen.(pair dna_gen dna_gen)
      (fun (a, b) ->
        let matrix = Genalg_align.Scoring.dna ~match_:1 ~mismatch:(-1) in
        let gap = Genalg_align.Scoring.linear_gap 1 in
        let s1 =
          Genalg_align.Pairwise.score_only ~mode:Genalg_align.Pairwise.Global ~matrix ~gap
            ~query:a ~subject:b ()
        in
        let s2 =
          Genalg_align.Pairwise.score_only ~mode:Genalg_align.Pairwise.Global ~matrix ~gap
            ~query:b ~subject:a ()
        in
        s1 = s2);
    qtest "local score >= 0 and >= any exact shared substring" Q.Gen.(pair dna_gen dna_gen)
      (fun (a, b) ->
        let matrix = Genalg_align.Scoring.dna ~match_:1 ~mismatch:(-1) in
        let s =
          Genalg_align.Pairwise.score_only ~mode:Genalg_align.Pairwise.Local ~matrix
            ~gap:(Genalg_align.Scoring.linear_gap 1) ~query:a ~subject:b ()
        in
        s >= 0);
    qtest "diff applies to produce the target" Q.Gen.(pair dna_gen dna_gen) (fun (a, b) ->
        let arr s = Array.init (String.length s) (String.get s) in
        let script = Genalg_align.Lcs.diff ~equal:Char.equal (arr a) (arr b) in
        match Genalg_align.Lcs.apply script (arr a) with
        | Some out -> String.init (Array.length out) (Array.get out) = b
        | None -> false);
    qtest "LCS length = kept elements of the diff" Q.Gen.(pair dna_gen dna_gen)
      (fun (a, b) ->
        let arr s = Array.init (String.length s) (String.get s) in
        let script = Genalg_align.Lcs.diff ~equal:Char.equal (arr a) (arr b) in
        let keeps =
          List.length
            (List.filter (function Genalg_align.Lcs.Keep _ -> true | _ -> false) script)
        in
        keeps = Genalg_align.Lcs.length ~equal:Char.equal (arr a) (arr b));
    qtest "levenshtein triangle inequality" Q.Gen.(triple dna_gen dna_gen dna_gen)
      (fun (a, b, c) ->
        let d = Genalg_align.Distance.levenshtein in
        d a c <= d a b + d b c);
  ]

(* ---- index structures --------------------------------------------------------- *)

let index_props =
  [
    qtest "suffix array finds what the scan finds" Q.Gen.(pair dna_gen (int_bound 1000))
      (fun (text, seed) ->
        Q.assume (String.length text >= 4);
        let rng = Genalg_synth.Rng.make seed in
        let plen = 1 + Genalg_synth.Rng.int rng (min 6 (String.length text)) in
        let off = Genalg_synth.Rng.int rng (String.length text - plen + 1) in
        let pattern = String.sub text off plen in
        Genalg_seqindex.Suffix_array.find_all (Genalg_seqindex.Suffix_array.build text) pattern
        = Genalg_seqindex.Search.naive_find_all ~pattern text);
    qtest "kmer index finds what the scan finds" Q.Gen.(pair dna_gen (int_bound 1000))
      (fun (text, seed) ->
        Q.assume (String.length text >= 8);
        let rng = Genalg_synth.Rng.make seed in
        let plen = 4 + Genalg_synth.Rng.int rng (min 8 (String.length text - 3)) in
        Q.assume (plen <= String.length text);
        let off = Genalg_synth.Rng.int rng (String.length text - plen + 1) in
        let pattern = String.sub text off plen in
        Genalg_seqindex.Kmer_index.find_all
          (Genalg_seqindex.Kmer_index.build ~k:4 text)
          pattern
        = Genalg_seqindex.Search.naive_find_all ~pattern text);
  ]

(* ---- storage ---------------------------------------------------------------------- *)

type heap_op = H_ins of int | H_del of int | H_upd of int * int

let heap_ops_gen =
  Q.Gen.(
    list_size (int_bound 200)
      (frequency
         [ (5, map (fun n -> H_ins n) (int_bound 1000));
           (2, map (fun i -> H_del i) nat);
           (3, map2 (fun i n -> H_upd (i, n)) nat (int_bound 1000)) ]))

let heap_model_agrees ops =
  let module Heap = Genalg_storage.Heap in
  let module D = Genalg_storage.Dtype in
  let h = Heap.create () in
  let model = ref [] (* live (rid, row) *) and dead = ref [] in
  (* rows of varying arity, the empty one included *)
  let row n = Array.init (n mod 4) (fun j -> if j = 0 then D.Int n else D.Str (string_of_int j)) in
  let ok = ref true in
  let nth i = List.nth !model (i mod List.length !model) in
  List.iter
    (fun op ->
      match op with
      | H_ins n ->
          let r = row n in
          model := (Heap.insert h r, r) :: !model
      | H_del _ | H_upd _ when !model = [] -> ()
      | H_del i ->
          let rid, _ = nth i in
          if not (Heap.delete h rid) then ok := false;
          if Heap.delete h rid then ok := false;
          if Heap.update h rid (row 0) then ok := false;
          model := List.remove_assoc rid !model;
          dead := rid :: !dead
      | H_upd (i, n) ->
          let rid, _ = nth i in
          let r = row n in
          if not (Heap.update h rid r) then ok := false;
          model := (rid, r) :: List.remove_assoc rid !model)
    ops;
  let live = List.sort compare !model in
  let scanned = List.rev (Heap.fold (fun rid r acc -> (rid, r) :: acc) h []) in
  !ok
  && List.for_all (fun (rid, r) -> Heap.get h rid = Some r) live
  && List.for_all (fun rid -> Heap.get h rid = None) !dead
  && scanned = live
  && Heap.record_count h = List.length live

(* Clone isolation: a database is cloned, then both sides take random
   writes -- rows, CREATE INDEX, CREATE GENOMIC INDEX and ANALYZE. Each
   side must match its own model through a full scan, B-tree point and
   range lookups, genomic [contains] and its statistics, whatever the
   other side did. *)

type clone_op =
  | C_ins of int * int * int (* side, v, seq *)
  | C_del of int * int (* side, nth live row *)
  | C_upd of int * int * int * int (* side, nth live row, v, seq *)
  | C_index of int
  | C_genomic of int
  | C_analyze of int

let clone_seqs = [| "ACGTACGTAA"; "TTTTGGGGCC"; "GATTACAGAT"; "CCCCACGTTT"; "AAAAAAAA" |]
let clone_patterns = [ "ACGT"; "GATT"; "TTTT"; "CCCC"; "ACGTA"; "AAAA" ]

let clone_case_gen =
  Q.Gen.(
    let side = int_bound 1 and v = int_bound 9 and sq = int_bound 4 in
    let op =
      frequency
        [
          (5, map3 (fun s v q -> C_ins (s, v, q)) side v sq);
          (2, map2 (fun s i -> C_del (s, i)) side nat);
          (3, map2 (fun (s, i) (v, q) -> C_upd (s, i, v, q)) (pair side nat) (pair v sq));
          (1, map (fun s -> C_index s) side);
          (1, map (fun s -> C_genomic s) side);
          (1, map (fun s -> C_analyze s) side);
        ]
    in
    tup5 (list_size (int_bound 20) (pair v sq)) bool bool bool
      (list_size (int_bound 40) op))

let clone_isolation (initial, pre_index, pre_genomic, pre_analyze, ops) =
  let module Db = Genalg_storage.Database in
  let module Table = Genalg_storage.Table in
  let module Schema = Genalg_storage.Schema in
  let module D = Genalg_storage.Dtype in
  let db = Db.create () in
  Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default;
  let schema =
    Schema.make_exn
      [
        { Schema.name = "id"; dtype = D.TInt; nullable = false };
        { Schema.name = "v"; dtype = D.TInt; nullable = false };
        { Schema.name = "seq"; dtype = D.TOpaque "dna"; nullable = false };
      ]
  in
  ignore (Db.create_table db ~actor:Db.loader_actor ~space:Db.Public ~name:"g" schema);
  let table db = Option.get (Db.find_table db ~space:Db.Public "g") in
  let next_id = ref 0 in
  let row v q =
    incr next_id;
    [| D.Int !next_id; D.Int v;
       D.Opaque ("dna", Sequence.to_bytes (Sequence.dna clone_seqs.(q))) |]
  in
  (* per side: live (rid, row, seq) newest first, and its DDL/ANALYZE state *)
  let rows = [| []; [] |] and v_index = [| false; false |] in
  let genomic = [| pre_genomic; pre_genomic |] and analyzed = [| None; None |] in
  let ok = ref true in
  let expect b = if not b then ok := false in
  List.iter
    (fun (v, q) ->
      let r = row v q in
      rows.(0) <- (Table.insert_exn (table db) r, r, q) :: rows.(0))
    initial;
  if pre_index then expect (Table.create_index (table db) ~column:"id" = Ok ());
  if pre_genomic then
    expect
      (Table.create_genomic_index ~k:4 (table db) ~column:"seq"
         ~registry:(Db.udts db) = Ok ());
  if pre_analyze then begin
    Table.analyze (table db);
    analyzed.(0) <- Some (List.length initial)
  end;
  let dbs = [| db; Db.clone db |] in
  rows.(1) <- rows.(0);
  analyzed.(1) <- analyzed.(0);
  let nth s i =
    let live = rows.(s) in
    List.nth live (i mod List.length live)
  in
  List.iter
    (fun op ->
      match op with
      | C_ins (s, v, q) ->
          let r = row v q in
          rows.(s) <- (Table.insert_exn (table dbs.(s)) r, r, q) :: rows.(s)
      | (C_del (s, _) | C_upd (s, _, _, _)) when rows.(s) = [] -> ()
      | C_del (s, i) ->
          let rid, _, _ = nth s i in
          expect (Table.delete (table dbs.(s)) rid);
          rows.(s) <- List.filter (fun (r, _, _) -> r <> rid) rows.(s)
      | C_upd (s, i, v, q) ->
          let rid, old, _ = nth s i in
          let r = [| old.(0); D.Int v; (row v q).(2) |] in
          expect (Table.update (table dbs.(s)) rid r = Ok rid);
          rows.(s) <-
            List.map (fun (r', o, q') -> if r' = rid then (rid, r, q) else (r', o, q')) rows.(s)
      | C_index s ->
          expect (Result.is_ok (Table.create_index (table dbs.(s)) ~column:"v") = not v_index.(s));
          v_index.(s) <- true
      | C_genomic s ->
          expect
            (Result.is_ok
               (Table.create_genomic_index ~k:4 (table dbs.(s)) ~column:"seq"
                  ~registry:(Db.udts dbs.(s)))
            = not genomic.(s));
          genomic.(s) <- true
      | C_analyze s ->
          Table.analyze (table dbs.(s));
          analyzed.(s) <- Some (List.length rows.(s)))
    ops;
  let sorted l = List.sort compare l in
  let side_agrees s =
    let t = table dbs.(s) and live = rows.(s) in
    let rids_where f =
      sorted (List.filter_map (fun (r, row, q) -> if f row q then Some r else None) live)
    in
    let scanned =
      List.rev (Table.fold t ~init:[] ~f:(fun acc rid row -> (rid, row) :: acc))
    in
    let lookups column col ~keys =
      List.for_all
        (fun k ->
          Option.map sorted (Table.index_lookup t ~column (D.Int k))
          = Some (rids_where (fun row _ -> row.(col) = D.Int k)))
        keys
    in
    let contains text p = Genalg_seqindex.Search.naive_find_all ~pattern:p text <> [] in
    scanned = sorted (List.map (fun (r, row, _) -> (r, row)) live)
    && Table.row_count t = List.length live
    && Table.has_index t ~column:"id" = pre_index
    && (not pre_index || lookups "id" 0 ~keys:(List.init (!next_id + 1) Fun.id))
    && Table.has_index t ~column:"v" = v_index.(s)
    && (not v_index.(s)
       || lookups "v" 1 ~keys:(List.init 10 Fun.id)
          && Option.map sorted
               (Table.index_range t ~column:"v" ~lo:(D.Int 3) ~hi:(D.Int 6) ())
             = Some (rids_where (fun row _ ->
                   row.(1) >= D.Int 3 && row.(1) <= D.Int 6)))
    && List.for_all
         (fun p ->
           match Table.genomic_search t ~column:"seq" ~pattern:p with
           | `Hits hits ->
               genomic.(s) && sorted hits = rids_where (fun _ q -> contains clone_seqs.(q) p)
           | `No_index -> not genomic.(s)
           | `Unsupported_pattern -> false)
         clone_patterns
    && Option.map
         (fun (cs : Table.column_stats) -> cs.Table.rows)
         (Table.column_stats t ~column:"v")
       = analyzed.(s)
  in
  !ok && side_agrees 0 && side_agrees 1

let storage_props =
  [
    qtest "heap agrees with an association-list model" heap_ops_gen heap_model_agrees;
    qtest "clone and original stay isolated under writes" clone_case_gen clone_isolation;
    qtest "btree agrees with an association-list model"
      Q.Gen.(list_size (int_bound 300) (pair (int_bound 50) (int_bound 1000)))
      (fun pairs ->
        let module D = Genalg_storage.Dtype in
        let module Table = Genalg_storage.Table in
        let t =
          Table.create ~name:"t"
            (Genalg_storage.Schema.make_exn
               [ { Genalg_storage.Schema.name = "k"; dtype = D.TInt; nullable = false } ])
        in
        ignore (Table.create_index t ~column:"k");
        let model = Hashtbl.create 16 in
        List.iter
          (fun (k, _) ->
            let rid = Table.insert_exn t [| D.Int k |] in
            Hashtbl.replace model k
              (rid :: Option.value (Hashtbl.find_opt model k) ~default:[]))
          pairs;
        Hashtbl.fold
          (fun k expected ok ->
            ok && Table.index_lookup t ~column:"k" (D.Int k) = Some (List.rev expected))
          model true);
    qtest "row encoding round-trips"
      Q.Gen.(
        list_size (int_bound 12)
          (oneof
             [
               return Genalg_storage.Dtype.Null;
               map (fun b -> Genalg_storage.Dtype.Bool b) bool;
               map (fun i -> Genalg_storage.Dtype.Int i) int;
               map (fun f -> Genalg_storage.Dtype.Float f) (float_bound_inclusive 1e6);
               map (fun s -> Genalg_storage.Dtype.Str s) string_printable;
             ]))
      (fun vals ->
        let module D = Genalg_storage.Dtype in
        let row = Array.of_list vals in
        match D.decode_row (D.encode_row row) with
        | Ok back ->
            Array.length back = Array.length row
            && Array.for_all2 D.equal_value row back
        | Error _ -> false);
  ]

(* ---- formats & xml ------------------------------------------------------------------ *)

let entry_gen =
  Q.Gen.(
    map
      (fun seed ->
        let rng = Genalg_synth.Rng.make seed in
        List.hd (Genalg_synth.Recordgen.repository rng ~size:1 ~seq_length:300 ()))
      (int_bound 100000))

let format_props =
  [
    qtest "GenBank print/parse round-trips entries" entry_gen (fun e ->
        match Genalg_formats.Genbank.parse_one (Genalg_formats.Genbank.print_one e) with
        | Ok e2 -> Genalg_formats.Entry.equal e e2
        | Error _ -> false);
    qtest "EMBL print/parse round-trips entries" entry_gen (fun e ->
        match Genalg_formats.Embl.parse_one (Genalg_formats.Embl.print_one e) with
        | Ok e2 -> Genalg_formats.Entry.equal e e2
        | Error _ -> false);
    qtest "AceDB tree round-trips entries" entry_gen (fun e ->
        let tree = Genalg_formats.Acedb.of_entry e in
        match Genalg_formats.Acedb.parse (Genalg_formats.Acedb.print tree) with
        | Error _ -> false
        | Ok tree2 -> (
            match Genalg_formats.Acedb.to_entry tree2 with
            | Ok e2 -> Genalg_formats.Entry.equal e e2
            | Error _ -> false));
    qtest "GenAlgXML round-trips DNA values" iupac_gen (fun s ->
        let v = Genalg_core.Value.VDna (Sequence.dna s) in
        match Genalg_xml.Genalgxml.of_string (Genalg_xml.Genalgxml.to_string v) with
        | Ok v2 -> Genalg_core.Value.equal v v2
        | Error _ -> false);
    qtest "tree diff of a tree with itself is empty" entry_gen (fun e ->
        let tree = Genalg_formats.Acedb.of_entry e in
        Genalg_etl.Tree_diff.diff tree tree = []);
  ]

(* ---- new operations & genomic index ----------------------------------- *)

let protein20_gen = string_over "ACDEFGHIKLMNPQRSTVWY"

let extra_props =
  [
    qtest "back_translate: first-codon concretization translates back"
      protein20_gen
      (fun p ->
        Q.assume (String.length p > 0);
        let protein = Sequence.protein p in
        let consensus = Genalg_core.Ops.back_translate protein in
        (* concretize by picking each residue's first codon *)
        let concrete =
          String.concat ""
            (List.map
               (fun c ->
                 List.hd
                   (Genetic_code.back_translate Genetic_code.standard
                      (Amino_acid.of_char_exn c)))
               (List.init (String.length p) (String.get p)))
        in
        (* the concretization translates back to the protein ... *)
        let back =
          Genalg_core.Ops.translate_frame ~frame:0 (Sequence.dna concrete)
        in
        Sequence.equal back protein
        (* ... and matches the IUPAC consensus position-wise *)
        && Sequence.length consensus = String.length concrete
        && (let ok = ref true in
            String.iteri
              (fun i c ->
                let a = Nucleotide.of_char_exn c in
                let b = Nucleotide.of_char_exn (Sequence.get consensus i) in
                if not (Nucleotide.matches a b) then ok := false)
              concrete;
            !ok));
    qtest "longest_repeat really occurs twice" dna_gen (fun s ->
        Q.assume (String.length s >= 2);
        match Genalg_core.Ops.longest_repeat (Sequence.dna s) with
        | None -> true
        | Some (p1, p2, len) ->
            p1 <> p2 && len > 0
            && p1 + len <= String.length s
            && p2 + len <= String.length s
            && String.sub s p1 len = String.sub s p2 len);
    qtest "genomic index agrees with a scan (table level)"
      Q.Gen.(pair (int_bound 10000) (int_bound 10000))
      (fun (seed, pseed) ->
        let module Db = Genalg_storage.Database in
        let module Table = Genalg_storage.Table in
        let module D = Genalg_storage.Dtype in
        let rng = Genalg_synth.Rng.make seed in
        let db = Db.create () in
        Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default;
        let schema =
          Genalg_storage.Schema.make_exn
            [
              { Genalg_storage.Schema.name = "id"; dtype = D.TInt; nullable = false };
              { Genalg_storage.Schema.name = "seq"; dtype = D.TOpaque "dna"; nullable = false };
            ]
        in
        let table =
          Result.get_ok
            (Db.create_table db ~actor:Db.loader_actor ~space:Db.Public ~name:"t" schema)
        in
        let texts =
          List.init 30 (fun i ->
              let t = Genalg_synth.Seqgen.dna_string rng (30 + Genalg_synth.Rng.int rng 60) in
              ignore
                (Table.insert_exn table
                   [| D.Int i; D.Opaque ("dna", Sequence.to_bytes (Sequence.dna t)) |]);
              t)
        in
        ignore (Table.create_genomic_index ~k:6 table ~column:"seq" ~registry:(Db.udts db));
        let prng = Genalg_synth.Rng.make pseed in
        let source = List.nth texts (Genalg_synth.Rng.int prng 30) in
        let plen = 6 + Genalg_synth.Rng.int prng 8 in
        let off = Genalg_synth.Rng.int prng (max 1 (String.length source - plen)) in
        let pattern = String.sub source off (min plen (String.length source - off)) in
        let expected =
          List.filteri (fun _ t -> Sequence.contains ~pattern (Sequence.dna t)) texts
          |> List.length
        in
        match Table.genomic_search table ~column:"seq" ~pattern with
        | `Hits hits -> List.length hits = expected
        | `Unsupported_pattern -> String.length pattern < 6
        | `No_index -> false);
  ]

(* ---- LRU cache invariants (lib/cache) ----------------------------------- *)
(* Random op sequences against a reference model: an MRU-first assoc list
   with the same admit/touch/evict rules. Lockstep execution lets us
   compare membership, values and the full recency order after every op;
   matching orders at every step pin down the eviction sequence too. *)

module Lru = Genalg_cache.Lru

type lru_op = L_put of int * int | L_get of int | L_rm of int

let lru_cap = 8

let lru_ops_gen =
  Q.Gen.(
    let key = int_bound 15 in
    list_size (int_bound 300)
      (frequency
         [ (4, map2 (fun k v -> L_put (k, v)) key (int_bound 1000));
           (3, map (fun k -> L_get k) key);
           (1, map (fun k -> L_rm k) key) ]))

(* Run the ops through a real cache and the model in lockstep. Returns
   (cache, model MRU-first, every-op capacity bound held, every Get
    agreed with the model, every-op recency order agreed with the model). *)
let lru_run ops =
  let cache = Lru.create ~name:"props" ~max_entries:lru_cap () in
  let model = ref [] in
  let within_cap = ref true in
  let gets_coherent = ref true in
  let order_agrees = ref true in
  let mdetach k = model := List.filter (fun (mk, _) -> mk <> k) !model in
  List.iter
    (fun op ->
      (match op with
      | L_put (k, v) ->
          Lru.put cache k v;
          mdetach k;
          model := List.filteri (fun i _ -> i < lru_cap) ((k, v) :: !model)
      | L_get k -> (
          let got = Lru.find cache k in
          match List.assoc_opt k !model with
          | Some v ->
              mdetach k;
              model := (k, v) :: !model;
              if got <> Some v then gets_coherent := false
          | None -> if got <> None then gets_coherent := false)
      | L_rm k ->
          ignore (Lru.remove cache k);
          mdetach k);
      if Lru.length cache > lru_cap then within_cap := false;
      if Lru.keys cache <> List.map fst !model then order_agrees := false)
    ops;
  (cache, !model, !within_cap, !gets_coherent, !order_agrees)

let lru_props =
  [
    qtest "capacity never exceeded" lru_ops_gen (fun ops ->
        let cache, _, within_cap, _, _ = lru_run ops in
        within_cap && Lru.length cache <= lru_cap);
    qtest "get-after-put coherence" lru_ops_gen (fun ops ->
        let cache, model, _, gets_coherent, _ = lru_run ops in
        gets_coherent
        && List.for_all (fun (k, v) -> Lru.peek cache k = Some v) model
        && Lru.length cache = List.length model);
    qtest "eviction order matches recency under random ops" lru_ops_gen (fun ops ->
        let _, _, _, _, order_agrees = lru_run ops in
        order_agrees);
  ]

let suites =
  [
    ("props.sequence", seq_props);
    ("props.dogma", dogma_props);
    ("props.align", align_props);
    ("props.index", index_props);
    ("props.storage", storage_props);
    ("props.formats", format_props);
    ("props.extra", extra_props);
    ("props.cache", lru_props);
  ]
