(* Vectorized (batch-at-a-time) execution: the packed word-level
   kernels against naive decoded references, and SQL scans against a
   plain-OCaml evaluation over the generated DNA strings — same rows,
   same order, same errors, invariant under the jobs setting. *)

module D = Genalg_storage.Dtype
module Db = Genalg_storage.Database
module Exec = Genalg_sqlx.Exec
module Vec = Genalg_sqlx.Vec
module Par = Genalg_par.Par
module Obs = Genalg_obs.Obs
open Genalg_gdt
module Q = QCheck2

let check = Alcotest.check
let tc = Alcotest.test_case

(* deterministic generator so failures reproduce *)
let mk_rng seed = ref (seed land 0x3FFFFFFF)

let next rng n =
  rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
  !rng mod n

let random_dna rng len = String.init len (fun _ -> "ACGT".[next rng 4])

(* ---- naive decoded references ----------------------------------------- *)

(* plain substring search over the decoded text; valid reference for
   canonical ACGT pattern + canonical DNA subject, where char_matches
   degenerates to char equality *)
let naive_find ?(start = 0) ~pattern text =
  let m = String.length pattern and n = String.length text in
  if m = 0 then if start <= n then Some start else None
  else
    let rec go i =
      if i + m > n then None
      else if String.sub text i m = pattern then Some i
      else go (i + 1)
    in
    go (max 0 start)

let code_of = function 'A' -> 0 | 'C' -> 1 | 'G' -> 2 | 'T' | 'U' -> 3 | _ -> -1

(* every k-window of canonical bases, with the Kmer_index hash *)
let naive_kmers ~k text =
  let n = String.length text in
  let out = ref [] in
  for i = 0 to n - k do
    let ok = ref true and h = ref 0 in
    for j = i to i + k - 1 do
      let c = code_of (Char.uppercase_ascii text.[j]) in
      if c < 0 then ok := false else h := (!h lsl 2) lor c
    done;
    if !ok then out := (i, !h) :: !out
  done;
  List.rev !out

(* ---- framed_gc_count ---------------------------------------------------- *)

let test_framed_gc () =
  let rng = mk_rng 7 in
  (* Packed2, every length residue mod 4 (partial trailing byte) *)
  for len = 0 to 69 do
    let s = Sequence.dna (random_dna rng len) in
    check Alcotest.(option int)
      (Printf.sprintf "packed2 gc len=%d" len)
      (Some (Sequence.gc_count s))
      (Sequence.framed_gc_count (Sequence.to_bytes s))
  done;
  (* Packed4 via ambiguity codes, odd and even lengths; S counts as GC *)
  List.iter
    (fun text ->
      let s = Sequence.dna text in
      check Alcotest.(option int) ("packed4 gc " ^ text)
        (Some (Sequence.gc_count s))
        (Sequence.framed_gc_count (Sequence.to_bytes s)))
    [ "N"; "ACGTN"; "SSWS"; "GCSNRYKM"; "ACGTSACGTSA" ];
  (* RNA frames work; protein frames report no GC *)
  let r = Sequence.rna "GCGCAU" in
  check Alcotest.(option int) "rna gc" (Some 4)
    (Sequence.framed_gc_count (Sequence.to_bytes r));
  let p = Sequence.protein "GCGC" in
  check Alcotest.(option int) "protein gc" None
    (Sequence.framed_gc_count (Sequence.to_bytes p))

let test_framed_gc_crafted_padding () =
  (* of_bytes does not validate the padding bits of a partial trailing
     byte — a crafted G in the pad must not leak into the count *)
  let s = Sequence.dna "AAAAA" (* len 5: second byte holds 1 base + pad *) in
  let buf = Sequence.to_bytes s in
  let last = Bytes.length buf - 1 in
  (* pad codes 2,2,2 (G) above the one real base (A, code 0) *)
  Bytes.set buf last (Char.chr ((2 lsl 6) lor (2 lsl 4) lor (2 lsl 2)));
  (match Sequence.of_bytes buf with
  | Ok s' ->
      check Alcotest.int "scalar ignores padding" 0 (Sequence.gc_count s')
  | Error e -> Alcotest.failf "crafted frame rejected: %s" e);
  check Alcotest.(option int) "kernel ignores padding" (Some 0)
    (Sequence.framed_gc_count buf)

(* ---- framed_info / frame rejection -------------------------------------- *)

let test_framed_info () =
  let s = Sequence.dna "ACGTACG" in
  let buf = Sequence.to_bytes s in
  (match Sequence.framed_info buf with
  | Some (Sequence.Dna, 7) -> ()
  | _ -> Alcotest.fail "framed_info lost the frame");
  (* truncated payload *)
  check Alcotest.bool "truncated rejected" true
    (Sequence.framed_info (Bytes.sub buf 0 (Bytes.length buf - 1)) = None);
  (* trailing garbage *)
  check Alcotest.bool "oversized rejected" true
    (Sequence.framed_info (Bytes.cat buf (Bytes.make 1 'x')) = None);
  (* corrupt tag byte *)
  let bad = Bytes.copy buf in
  Bytes.set bad 0 (Char.chr 0xFF);
  check Alcotest.bool "bad tag rejected" true (Sequence.framed_info bad = None);
  check Alcotest.bool "empty buffer rejected" true
    (Sequence.framed_info Bytes.empty = None);
  (* kernels refuse what of_bytes refuses *)
  check Alcotest.bool "gc on garbage" true
    (Sequence.framed_gc_count (Bytes.of_string "not a frame") = None);
  check Alcotest.bool "contains on garbage" true
    (Sequence.framed_contains ~pattern:"A" (Bytes.of_string "nope") = None)

(* ---- framed_find / framed_contains -------------------------------------- *)

let find_ref text ?start ~pattern () =
  Sequence.framed_find ?start ~pattern (Sequence.to_bytes (Sequence.dna text))

let test_packed_find () =
  let rng = mk_rng 99 in
  for trial = 0 to 199 do
    let n = next rng 120 in
    let text = random_dna rng n in
    (* planted pattern: random window of the text, lengths crossing the
       31-code word boundary (verify_tail path) *)
    let m = [| 1; 2; 3; 4; 7; 16; 31; 32; 35; 40 |].(next rng 10) in
    let pattern =
      if n >= m && m > 0 then String.sub text (next rng (n - m + 1)) m
      else random_dna rng m
    in
    let start = next rng 8 - 2 in
    let label = Printf.sprintf "trial %d (n=%d m=%d start=%d)" trial n m start in
    match find_ref text ~start ~pattern () with
    | None -> Alcotest.failf "%s: frame rejected" label
    | Some got ->
        check Alcotest.(option int) label (naive_find ~start ~pattern text) got
  done;
  (* absent pattern, empty pattern, pattern longer than text *)
  check Alcotest.(option (option int)) "absent" (Some None)
    (find_ref "ACGTACGTACGT" ~pattern:"TTT" ());
  check Alcotest.(option (option int)) "empty pattern" (Some (Some 0))
    (find_ref "ACGT" ~pattern:"" ());
  check Alcotest.(option (option int)) "empty, start past end" (Some None)
    (find_ref "ACGT" ~start:5 ~pattern:"" ());
  check Alcotest.(option (option int)) "too long" (Some None)
    (find_ref "ACG" ~pattern:"ACGT" ());
  (* lowercase + U patterns normalize like the decoded path *)
  check Alcotest.(option (option int)) "lowercase pattern" (Some (Some 3))
    (find_ref "AAAACGT" ~pattern:"acgt" ());
  check Alcotest.(option (option int)) "U matches T" (Some (Some 2))
    (find_ref "ACTG" ~pattern:"U" ());
  (* IUPAC text falls back to the generic matcher, ambiguity semantics
     preserved: N in the subject matches any pattern base *)
  check Alcotest.(option (option int)) "iupac subject" (Some (Some 1))
    (find_ref "TNCG" ~pattern:"ACG" ());
  check Alcotest.bool "contains agrees" true
    (Sequence.framed_contains ~pattern:"GATTACA"
       (Sequence.to_bytes (Sequence.dna "TTGATTACATT"))
    = Some true)

(* ---- fold_kmers ---------------------------------------------------------- *)

let check_raises_invalid label f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  | exception Invalid_argument _ -> ()

let test_fold_kmers () =
  let collect ~k s =
    List.rev (Sequence.fold_kmers ~k (fun acc i h -> (i, h) :: acc) [] s)
  in
  let rng = mk_rng 3 in
  List.iter
    (fun k ->
      for _ = 0 to 24 do
        let text = random_dna rng (next rng 90) in
        check
          Alcotest.(list (pair int int))
          (Printf.sprintf "packed2 k=%d %s" k text)
          (naive_kmers ~k text)
          (collect ~k (Sequence.dna text))
      done)
    [ 1; 3; 5; 31 ];
  (* ambiguity codes reset the window (Packed4 storage) *)
  List.iter
    (fun text ->
      check
        Alcotest.(list (pair int int))
        ("packed4 k=3 " ^ text) (naive_kmers ~k:3 text)
        (collect ~k:3 (Sequence.dna text)))
    [ "ACGNACGT"; "NNN"; "ACNGTNACG"; "ACGTNNACGT" ];
  check_raises_invalid "k=0" (fun () -> collect ~k:0 (Sequence.dna "ACGT"));
  check_raises_invalid "k=32" (fun () -> collect ~k:32 (Sequence.dna "ACGT"))

(* ---- SQL-level equivalence ---------------------------------------------- *)

let mk_db () =
  let db = Db.create () in
  Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default;
  db

let run db sql =
  match Exec.query db ~actor:Db.loader_actor sql with
  | Ok o -> o
  | Error msg -> Alcotest.failf "setup: %s (%s)" msg sql

let motif = "ACGTTGCAGGAT"

(* one generated row: (id, organism, DNA text) *)
type read = int * string * string

(* [rows] sequences with varied lengths (every residue mod 4), motif
   planted in ~1/6 of them; returns the populated db and the rows it
   holds, in insertion order *)
let seq_fixture ?(rows = 2600) () =
  let db = mk_db () in
  ignore (run db "CREATE TABLE seqs (id int NOT NULL, organism string, seq dna)");
  let rng = mk_rng 2024 in
  let buf = Buffer.create 4096 in
  let reads = ref [] in
  let flush_batch () =
    if Buffer.length buf > 0 then begin
      ignore (run db (Printf.sprintf "INSERT INTO seqs VALUES %s" (Buffer.contents buf)));
      Buffer.clear buf
    end
  in
  for i = 1 to rows do
    let len = 1 + next rng 79 in
    let s = Bytes.of_string (random_dna rng len) in
    if i mod 6 = 0 && len > String.length motif then
      Bytes.blit_string motif 0 s
        (next rng (len - String.length motif))
        (String.length motif);
    let org = Printf.sprintf "org%d" (i mod 5) in
    let text = Bytes.to_string s in
    reads := (i, org, text) :: !reads;
    if Buffer.length buf > 0 then Buffer.add_char buf ',';
    Buffer.add_string buf (Printf.sprintf "(%d, '%s', dna('%s'))" i org text);
    if i mod 50 = 0 then flush_batch ()
  done;
  flush_batch ();
  (db, List.rev !reads)

(* ---- naive reference over the generated strings -------------------------- *)

(* GC fraction of a pure-ACGT string, as the engine defines it *)
let gc_of text =
  let n = String.length text in
  let gc = ref 0 in
  String.iter (function 'G' | 'C' -> incr gc | _ -> ()) text;
  if n = 0 then 0. else float_of_int !gc /. float_of_int n

let has motif text = naive_find ~pattern:motif text <> None

(* [SELECT id FROM seqs WHERE keep] in scan order *)
let ids_where keep (reads : read list) =
  List.filter_map
    (fun ((id, _, _) as r) -> if keep r then Some [| D.Int id |] else None)
    reads

(* each query with its expected rows, computed without the engine *)
let queries : (string * (read list -> D.value array list)) list =
  [
    ( "SELECT id FROM seqs WHERE gc_content(seq) >= 0.5",
      ids_where (fun (_, _, t) -> gc_of t >= 0.5) );
    ( "SELECT id FROM seqs WHERE length(seq) > 40",
      ids_where (fun (_, _, t) -> String.length t > 40) );
    ( Printf.sprintf "SELECT id FROM seqs WHERE contains(seq, '%s')" motif,
      ids_where (fun (_, _, t) -> has motif t) );
    ( Printf.sprintf
        "SELECT id, organism FROM seqs WHERE gc_content(seq) >= 0.4 AND \
         contains(seq, '%s') AND length(seq) > 20"
        motif,
      List.filter_map (fun (id, org, t) ->
          if gc_of t >= 0.4 && has motif t && String.length t > 20 then
            Some [| D.Int id; D.Str org |]
          else None) );
    ( "SELECT id FROM seqs WHERE 0.5 <= gc_content(seq) AND 60 >= length(seq)",
      ids_where (fun (_, _, t) -> 0.5 <= gc_of t && 60 >= String.length t) );
    ( "SELECT organism, count(*) FROM seqs WHERE gc_content(seq) < 0.5 GROUP BY \
       organism ORDER BY organism",
      fun reads ->
        let kept = List.filter (fun (_, _, t) -> gc_of t < 0.5) reads in
        List.sort_uniq compare (List.map (fun (_, org, _) -> org) kept)
        |> List.map (fun org ->
               let n = List.length (List.filter (fun (_, o, _) -> o = org) kept) in
               [| D.Str org; D.Int n |]) );
  ]

(* a SELECT executes on every call, so runs at different jobs settings
   compare executions rather than a cached result *)
let run_q db sql =
  let ( let* ) = Result.bind in
  let* stmt = Genalg_sqlx.Parser.parse sql in
  let* outcome =
    match stmt with
    | Genalg_sqlx.Ast.Select s ->
        Result.map (fun rs -> Exec.Rows rs) (Exec.run_select db ~actor:Db.loader_actor s)
    | stmt -> Exec.run db ~actor:Db.loader_actor stmt
  in
  match outcome with
  | Exec.Rows rs -> Ok (rs.Exec.columns, rs.Exec.rows)
  | _ -> Error "not rows"

let rows_q db sql = Result.map snd (run_q db sql)

let with_jobs n f =
  let prev = Par.jobs () in
  Par.set_jobs n;
  Fun.protect ~finally:(fun () -> Par.set_jobs prev) f

let test_vec_equals_naive () =
  let db, reads = seq_fixture () in
  List.iter
    (fun (sql, expected) ->
      let want = expected reads in
      (* the fixture makes every query select a nonempty proper subset *)
      check Alcotest.bool ("selective: " ^ sql) true
        (want <> [] && List.length want < 2600);
      check Alcotest.bool ("vec = naive reference: " ^ sql) true
        (rows_q db sql = Ok want))
    queries

let test_vec_jobs_invariant () =
  let db, _ = seq_fixture () in
  List.iter
    (fun (sql, _) ->
      let r1 = with_jobs 1 (fun () -> run_q db sql) in
      let r4 = with_jobs 4 (fun () -> run_q db sql) in
      check Alcotest.bool ("jobs 1 = jobs 4: " ^ sql) true (r1 = r4))
    queries

let test_vec_error_semantics () =
  let db, _ = seq_fixture () in
  (* the division errors only at id = 1500 — chunk 2 of 3. The error
     must surface under any jobs setting *)
  let sql = "SELECT id FROM seqs WHERE length(seq) >= 0 AND 1 / (1500 - id) = 0" in
  List.iter
    (fun jobs ->
      check Alcotest.bool
        (Printf.sprintf "is the division error (jobs %d)" jobs)
        true
        (with_jobs jobs (fun () -> run_q db sql) = Error "division by zero"))
    [ 1; 4 ];
  (* NULL sequence: the kernel cannot decide the row, so the row
     evaluator's unknown-function error must surface *)
  let db2 = mk_db () in
  ignore (run db2 "CREATE TABLE t (id int, seq dna)");
  ignore (run db2 "INSERT INTO t VALUES (1, dna('ACGT')), (2, NULL)");
  check Alcotest.bool "is the unknown-function error" true
    (run_q db2 "SELECT id FROM t WHERE gc_content(seq) > 0.1"
    = Error "unknown function gc_content(string)")

let explain_text db sql =
  match run_q db sql with
  | Ok (_, rows) ->
      String.concat "\n" (List.map (function [| D.Str s |] -> s | _ -> "") rows)
  | Error e -> Alcotest.failf "explain failed: %s" e

let has_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_vec_explain () =
  let db, _ = seq_fixture ~rows:300 () in
  let sql = "SELECT id FROM seqs WHERE gc_content(seq) >= 0.5" in
  let plan = explain_text db ("EXPLAIN " ^ sql) in
  check Alcotest.bool "EXPLAIN names the kernel" true
    (has_sub plan "vec [packed-gc(seq)]");
  let prof = explain_text db ("EXPLAIN ANALYZE " ^ sql) in
  check Alcotest.bool "ANALYZE reports batches" true (has_sub prof "[vec batches=");
  check Alcotest.bool "ANALYZE reports the kernel" true
    (has_sub prof "kernels=[packed-gc(seq)]");
  let multi =
    explain_text db
      (Printf.sprintf
         "EXPLAIN SELECT id FROM seqs WHERE length(seq) > 10 AND contains(seq, \
          '%s')"
         motif)
  in
  check Alcotest.bool "multiple kernels listed" true
    (has_sub multi "packed-len(seq)" && has_sub multi "packed-contains(seq)");
  (* unresolvable shapes stay unannotated *)
  let none = explain_text db "EXPLAIN SELECT id FROM seqs WHERE organism = 'org1'" in
  check Alcotest.bool "no kernel, no annotation" true (not (has_sub none "vec ["))

let test_vec_counters () =
  let db, _ = seq_fixture ~rows:300 () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let batches = Obs.counter "sqlx.vec.batches" in
      let kernel_rows = Obs.counter "sqlx.vec.kernel_rows" in
      let b0 = Obs.value batches and k0 = Obs.value kernel_rows in
      (match run_q db "SELECT id FROM seqs WHERE gc_content(seq) >= 0.5" with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "query failed: %s" e);
      check Alcotest.bool "batches counted" true (Obs.value batches > b0);
      check Alcotest.bool "kernel rows counted" true (Obs.value kernel_rows > k0))

(* ---- properties ---------------------------------------------------------- *)

let dna_gen =
  Q.Gen.(
    let letter = map (fun i -> "ACGT".[i]) (int_bound 3) in
    map
      (fun cs -> String.init (List.length cs) (List.nth cs))
      (list_size (int_bound 120) letter))

let iupac_gen =
  Q.Gen.(
    let letters = "ACGTRYSWKMBDHVN" in
    let letter = map (fun i -> letters.[i]) (int_bound (String.length letters - 1)) in
    map
      (fun cs -> String.init (List.length cs) (List.nth cs))
      (list_size (int_bound 120) letter))

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name gen prop)

let kernel_props =
  [
    qtest "framed gc = scalar gc (iupac)" iupac_gen (fun s ->
        let seq = Sequence.dna s in
        Sequence.framed_gc_count (Sequence.to_bytes seq)
        = Some (Sequence.gc_count seq));
    qtest "packed find = naive find" Q.Gen.(pair dna_gen dna_gen) (fun (text, pat) ->
        let pat =
          if String.length pat > 37 then String.sub pat 0 37 else pat
        in
        Sequence.framed_find ~pattern:pat
          (Sequence.to_bytes (Sequence.dna text))
        = Some (naive_find ~pattern:pat text));
    qtest "fold_kmers = naive windows" dna_gen (fun text ->
        naive_kmers ~k:4 text
        = List.rev
            (Sequence.fold_kmers ~k:4
               (fun acc i h -> (i, h) :: acc)
               [] (Sequence.dna text)));
  ]

(* one shared db per property run: table rebuilt per case is too slow,
   so cases draw fresh random predicates over a fixed 600-row table *)
let sql_equiv_prop =
  let fixture = lazy (seq_fixture ~rows:600 ()) in
  let gen =
    Q.Gen.(
      pair (int_bound 3)
        (pair (int_bound 100) (pair (int_bound 80) (int_bound 1))))
  in
  qtest ~count:40 "SQL: vec = naive reference, jobs 1 and 3" gen
    (fun (shape, (gc100, (len, lit_first))) ->
      let db, reads = Lazy.force fixture in
      (* the literal exactly as the SQL text spells it *)
      let lit = Printf.sprintf "%.2f" (float_of_int gc100 /. 100.) in
      let gc = float_of_string lit in
      let sql, keep =
        match shape with
        | 0 ->
            ( (if lit_first = 1 then
                 Printf.sprintf "SELECT id FROM seqs WHERE %s <= gc_content(seq)" lit
               else
                 Printf.sprintf "SELECT id FROM seqs WHERE gc_content(seq) >= %s" lit),
              fun t -> gc_of t >= gc )
        | 1 ->
            ( Printf.sprintf "SELECT id FROM seqs WHERE length(seq) > %d" len,
              fun t -> String.length t > len )
        | 2 ->
            let pattern = String.sub motif 0 (4 + (len mod 8)) in
            ( Printf.sprintf
                "SELECT id FROM seqs WHERE contains(seq, '%s') AND length(seq) \
                 <= %d"
                pattern len,
              fun t -> has pattern t && String.length t <= len )
        | _ ->
            ( Printf.sprintf
                "SELECT id FROM seqs WHERE gc_content(seq) < %s AND \
                 contains(seq, 'ACG')"
                lit,
              fun t -> gc_of t < gc && has "ACG" t )
      in
      let want = Ok (ids_where (fun (_, _, t) -> keep t) reads) in
      with_jobs 1 (fun () -> rows_q db sql) = want
      && with_jobs 3 (fun () -> rows_q db sql) = want)

let suites =
  [
    ( "vec.kernels",
      [
        tc "framed gc vs scalar" `Quick test_framed_gc;
        tc "gc ignores crafted padding" `Quick test_framed_gc_crafted_padding;
        tc "frame validation" `Quick test_framed_info;
        tc "packed find vs naive" `Quick test_packed_find;
        tc "fold_kmers vs naive" `Quick test_fold_kmers;
      ] );
    ( "vec.exec",
      [
        tc "vectorized = naive reference" `Quick test_vec_equals_naive;
        tc "jobs-invariant" `Quick test_vec_jobs_invariant;
        tc "error semantics identical" `Quick test_vec_error_semantics;
        tc "EXPLAIN surfaces kernels" `Quick test_vec_explain;
        tc "vec counters" `Quick test_vec_counters;
      ] );
    ("vec.props", kernel_props @ [ sql_equiv_prop ]);
  ]
