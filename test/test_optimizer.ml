(* Plan-equivalence and cost-model tests for the cost-based optimizer:
   plans for a table before ANALYZE (default statistics) and after it
   (measured statistics) must return the same result sets as the
   [~optimize:false] nested-loop full-scan reference on every query (the
   plans may — and sometimes must — differ), histogram/estimator sanity,
   genomic access-path equivalence, and stale-statistics behaviour. *)

module D = Genalg_storage.Dtype
module Db = Genalg_storage.Database
module Table = Genalg_storage.Table
module Exec = Genalg_sqlx.Exec
module Stats = Genalg_sqlx.Stats
module Cost = Genalg_sqlx.Cost
module Scoring = Genalg_align.Scoring
module Par = Genalg_par.Par

let check = Alcotest.check
let tc = Alcotest.test_case

let mk_db () =
  let db = Db.create () in
  Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default;
  db

let run db sql =
  match Exec.query db ~actor:Db.loader_actor sql with
  | Ok o -> o
  | Error m -> Alcotest.failf "%s: %s" sql m

let rows db sql =
  match Exec.query db ~actor:"u" sql with
  | Ok (Exec.Rows rs) -> (rs.Exec.columns, List.map Array.to_list rs.Exec.rows)
  | Ok _ -> Alcotest.failf "%s: expected rows" sql
  | Error m -> Alcotest.failf "%s: %s" sql m

(* executes on every call: the result cache would otherwise answer a
   repeated SELECT at another jobs setting without running it *)
let select_rows ?optimize db sql =
  match Genalg_sqlx.Parser.parse sql with
  | Ok (Genalg_sqlx.Ast.Select s) -> (
      match Exec.run_select ?optimize db ~actor:"u" s with
      | Ok rs -> (rs.Exec.columns, List.map Array.to_list rs.Exec.rows)
      | Error m -> Alcotest.failf "%s: %s" sql m)
  | _ -> Alcotest.failf "expected a SELECT: %s" sql

(* result-set comparison is order-insensitive: access paths and join
   orders legitimately change row order (multiset semantics) *)
let sorted_rows ?optimize db sql =
  let cols, rs = select_rows ?optimize db sql in
  (cols, List.sort compare rs)

let explain_text db sql =
  let _, rs = rows db ("EXPLAIN " ^ sql) in
  String.concat "\n"
    (List.map (function [ D.Str s ] -> s | _ -> "") rs)

let explain_analyze_text db sql =
  let _, rs = rows db ("EXPLAIN ANALYZE " ^ sql) in
  String.concat "\n"
    (List.map (function [ D.Str s ] -> s | _ -> "") rs)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---- histogram construction ------------------------------------------- *)

let test_histogram_equi_depth () =
  let db = mk_db () in
  ignore (run db "CREATE TABLE h (v int)");
  for i = 1 to 1000 do
    ignore (run db (Printf.sprintf "INSERT INTO h VALUES (%d)" i))
  done;
  ignore (run db "ANALYZE h");
  let t = Option.get (Db.find_table db ~space:Db.Public "h") in
  match Table.column_stats t ~column:"v" with
  | Some { Table.histogram = Some h; _ } ->
      let nb = Array.length h.Table.bounds in
      check Alcotest.bool "bucket count in (0, 32]" true (nb > 0 && nb <= 32);
      check Alcotest.int "counts cover every non-null row" 1000
        (Array.fold_left ( + ) 0 h.Table.counts);
      for i = 1 to nb - 1 do
        check Alcotest.bool "bounds strictly ascending" true
          (D.compare_value h.Table.bounds.(i - 1) h.Table.bounds.(i) < 0)
      done;
      let target = (1000 / nb) + 1 in
      Array.iter
        (fun c ->
          check Alcotest.bool "equi-depth: no bucket over 2x target" true
            (c <= 2 * target))
        h.Table.counts
  | _ -> Alcotest.fail "expected a histogram on an analyzed int column"

let test_histogram_heavy_duplicates () =
  (* a dominant value must sit entirely inside its buckets: bounds stay
     strictly ascending (the builder extends buckets past duplicate
     runs) and the estimate for the heavy value stays accurate *)
  let db = mk_db () in
  ignore (run db "CREATE TABLE hd (v int)");
  for i = 1 to 500 do
    let v = if i mod 10 = 0 then i / 10 else 42 in
    ignore (run db (Printf.sprintf "INSERT INTO hd VALUES (%d)" v))
  done;
  ignore (run db "ANALYZE hd");
  let t = Option.get (Db.find_table db ~space:Db.Public "hd") in
  let cs = Option.get (Table.column_stats t ~column:"v") in
  (match cs.Table.histogram with
  | Some h ->
      let nb = Array.length h.Table.bounds in
      for i = 1 to nb - 1 do
        check Alcotest.bool "duplicate bounds merged" true
          (D.compare_value h.Table.bounds.(i - 1) h.Table.bounds.(i) < 0)
      done
  | None -> Alcotest.fail "expected a histogram");
  let truth =
    (* v <= 42: everything except i/10 values above 42 *)
    let n = ref 0 in
    for i = 1 to 500 do
      let v = if i mod 10 = 0 then i / 10 else 42 in
      if v <= 42 then incr n
    done;
    float_of_int !n /. 500.
  in
  match Stats.cmp_selectivity cs ~op:`Le (D.Int 42) with
  | Some s ->
      check Alcotest.bool
        (Printf.sprintf "heavy-value estimate %.3f within 0.07 of %.3f" s truth)
        true
        (Float.abs (s -. truth) <= 0.07)
  | None -> Alcotest.fail "estimator should answer with a histogram"

(* ---- estimator sanity -------------------------------------------------- *)

let test_estimator_bounded_error () =
  let db = mk_db () in
  ignore (run db "CREATE TABLE u (v int, maybe int)");
  for i = 1 to 1000 do
    ignore
      (run db
         (Printf.sprintf "INSERT INTO u VALUES (%d, %s)" i
            (if i mod 2 = 0 then string_of_int i else "NULL")))
  done;
  ignore (run db "ANALYZE u");
  let t = Option.get (Db.find_table db ~space:Db.Public "u") in
  let cs = Option.get (Table.column_stats t ~column:"v") in
  (* uniform 1..1000: |estimate - truth| bounded by ~one bucket width *)
  List.iter
    (fun (q, truth) ->
      match Stats.cmp_selectivity cs ~op:`Le (D.Int q) with
      | Some s ->
          check Alcotest.bool
            (Printf.sprintf "sel(v <= %d) = %.3f within 0.05 of %.3f" q s truth)
            true
            (Float.abs (s -. truth) <= 0.05)
      | None -> Alcotest.fail "estimator should answer")
    [ (250, 0.25); (500, 0.5); (900, 0.9) ];
  (match Stats.eq_selectivity cs with
  | Some s ->
      check Alcotest.bool "eq selectivity ~ 1/1000" true
        (Float.abs (s -. 0.001) <= 0.0005)
  | None -> Alcotest.fail "eq estimator should answer");
  (* nulls scale comparison selectivities by the non-null fraction *)
  let cm = Option.get (Table.column_stats t ~column:"maybe") in
  check Alcotest.bool "null fraction ~ 0.5" true
    (Float.abs (Stats.null_fraction cm -. 0.5) <= 0.01);
  match Stats.cmp_selectivity cm ~op:`Le (D.Int 1000) with
  | Some s ->
      check Alcotest.bool "nulls never satisfy comparisons" true
        (Float.abs (s -. 0.5) <= 0.05)
  | None -> Alcotest.fail "estimator should answer on the nullable column"

let test_resembles_bound_constants () =
  (* the seed-path safety bound is derived from Scoring.dna_default
     (match +2, mismatch -3, gap open 10 extend 1); if these constants
     move, Cost.resembles_min_len MUST be re-derived — fail loudly *)
  check Alcotest.int "dna match score" 2
    (Scoring.score Scoring.dna_default 'A' 'A');
  check Alcotest.int "dna mismatch score" (-3)
    (Scoring.score Scoring.dna_default 'A' 'C');
  check Alcotest.int "gap open" 10 Scoring.default_gap.Scoring.open_penalty;
  check Alcotest.int "gap extend" 1 Scoring.default_gap.Scoring.extend_penalty;
  check
    Alcotest.(option int)
    "k=8 t=0.9 -> 18" (Some 18)
    (Cost.resembles_min_len ~k:8 ~threshold:0.9);
  check
    Alcotest.(option int)
    "k=4 t=0.8 -> 9" (Some 9)
    (Cost.resembles_min_len ~k:4 ~threshold:0.8);
  check
    Alcotest.(option int)
    "k=8 t=0.8 below the usable threshold" None
    (Cost.resembles_min_len ~k:8 ~threshold:0.8);
  (* the bound is monotone: higher thresholds allow shorter sequences *)
  match
    ( Cost.resembles_min_len ~k:8 ~threshold:0.95,
      Cost.resembles_min_len ~k:8 ~threshold:0.9 )
  with
  | Some hi, Some lo -> check Alcotest.bool "monotone in threshold" true (hi <= lo)
  | _ -> Alcotest.fail "both thresholds should be usable"

(* ---- genomic access paths: seed/contains/range equivalence ------------- *)

(* 30 chars, pure ACGT, above the k=8 t=0.9 minimum length of 18 *)
let pattern30 = "ACGTTGCAGGATCCATTACGGATCAGGTCA"

let genomic_fixture () =
  let rng = Genalg_synth.Rng.make 77 in
  let db = mk_db () in
  ignore (run db "CREATE TABLE frags (id int, seq dna)");
  for i = 1 to 200 do
    let s = Genalg_synth.Seqgen.dna_string rng 150 in
    let s = if i mod 10 = 0 then pattern30 ^ s else s in
    ignore (run db (Printf.sprintf "INSERT INTO frags VALUES (%d, dna('%s'))" i s))
  done;
  ignore (run db "CREATE GENOMIC INDEX ON frags (seq)");
  db

let test_seed_path_equivalence () =
  let db = genomic_fixture () in
  let q =
    Printf.sprintf "SELECT id FROM frags WHERE resembles(seq, dna('%s')) >= 0.9"
      pattern30
  in
  (* the reference: a full scan that runs resembles on every row *)
  let scan = sorted_rows ~optimize:false db q in
  (* default statistics (live row count, k and mean length from the
     index) already make the seed path the cheapest *)
  let dplan = explain_text db q in
  check Alcotest.bool "default-stats plan takes the seed path" true
    (contains dplan "genomic seed seq");
  check Alcotest.bool "seed path = scan path before ANALYZE" true
    (scan = sorted_rows db q);
  ignore (run db "ANALYZE frags");
  let cplan = explain_text db q in
  check Alcotest.bool "analyzed plan keeps the seed path" true
    (contains cplan "genomic seed seq");
  check Alcotest.bool "plan carries an estimate" true (contains cplan "est~");
  let cost = sorted_rows db q in
  check Alcotest.bool "seed path = scan path (identical result sets)" true
    (scan = cost);
  check Alcotest.int "all 20 planted rows found" 20 (List.length (snd cost))

let test_seed_path_below_threshold_stays_scan () =
  (* t = 0.8 is below the k=8 usable bound: the seed path would be
     lossy, so the planner must NOT pick it even with statistics *)
  let db = genomic_fixture () in
  ignore (run db "ANALYZE frags");
  let q =
    Printf.sprintf "SELECT id FROM frags WHERE resembles(seq, dna('%s')) >= 0.8"
      pattern30
  in
  let cplan = explain_text db q in
  check Alcotest.bool "unsafe threshold keeps scanning" false
    (contains cplan "genomic seed")

let test_contains_path_with_stats () =
  let db = genomic_fixture () in
  let q =
    Printf.sprintf "SELECT id FROM frags WHERE contains(seq, '%s')" pattern30
  in
  let scan = sorted_rows ~optimize:false db q in
  ignore (run db "ANALYZE frags");
  let cplan = explain_text db q in
  check Alcotest.bool "cost-based keeps the k-mer contains path" true
    (contains cplan "genomic index seq");
  check Alcotest.bool "contains path = scan path" true
    (scan = sorted_rows db q)

let test_genomic_index_survives_save_load () =
  (* genomic indexes persist as (column, k) specs in v3 images and are
     rebuilt when the adapter attaches — a fresh process must keep the
     seed path without re-issuing CREATE GENOMIC INDEX *)
  let db = genomic_fixture () in
  ignore (run db "ANALYZE frags");
  let q =
    Printf.sprintf "SELECT id FROM frags WHERE resembles(seq, dna('%s')) >= 0.9"
      pattern30
  in
  let before = sorted_rows db q in
  let path = Filename.temp_file "genalg_opt" ".db" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (match Db.save db path with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      let db2 =
        match Db.load path with Ok d -> d | Error m -> Alcotest.fail m
      in
      let t2 = Option.get (Db.find_table db2 ~space:Db.Public "frags") in
      check Alcotest.bool "index absent before attach (no registry)" false
        (Table.has_genomic_index t2 ~column:"seq");
      Genalg_adapter.Adapter.attach db2 Genalg_core.Builtin.default;
      check Alcotest.bool "attach rebuilds the genomic index" true
        (Table.has_genomic_index t2 ~column:"seq");
      check (Alcotest.option Alcotest.int) "k survives the round-trip"
        (Some 8) (Table.genomic_k t2 ~column:"seq");
      check Alcotest.bool "reloaded plan keeps the seed path" true
        (contains (explain_text db2 q) "genomic seed seq");
      check Alcotest.bool "reloaded results identical" true
        (before = sorted_rows db2 q);
      (* clone goes through the same serializer: specs carry, attach
         materializes them (the serve layer re-attaches per snapshot) *)
      let db3 = Db.clone db in
      Genalg_adapter.Adapter.attach db3 Genalg_core.Builtin.default;
      check Alcotest.bool "clone + attach keeps the seed path" true
        (contains (explain_text db3 q) "genomic seed seq"))

let nums_fixture n =
  let db = mk_db () in
  ignore (run db "CREATE TABLE nums (id int, v int)");
  for i = 1 to n do
    ignore (run db (Printf.sprintf "INSERT INTO nums VALUES (%d, %d)" i (i mod 7)))
  done;
  ignore (run db "CREATE INDEX ON nums (id)");
  db

let test_range_path_with_stats () =
  let db = nums_fixture 400 in
  let q = "SELECT v FROM nums WHERE id < 37" in
  let scan = sorted_rows ~optimize:false db q in
  ignore (run db "ANALYZE nums");
  let cplan = explain_text db q in
  check Alcotest.bool "cost-based keeps the selective range index" true
    (contains cplan "index id in");
  check Alcotest.bool "plan carries an estimate" true (contains cplan "est~");
  check Alcotest.bool "index path = scan path" true
    (scan = sorted_rows db q)

(* ---- join reordering ---------------------------------------------------- *)

let test_join_reorder_smallest_first () =
  let db = mk_db () in
  ignore (run db "CREATE TABLE big (k int, v int)");
  ignore (run db "CREATE TABLE small (k int, w int)");
  for i = 1 to 300 do
    ignore (run db (Printf.sprintf "INSERT INTO big VALUES (%d, %d)" (i mod 50) i))
  done;
  for i = 1 to 10 do
    ignore (run db (Printf.sprintf "INSERT INTO small VALUES (%d, %d)" i i))
  done;
  let q = "SELECT * FROM big, small WHERE big.k = small.k" in
  let hcols, hrows = sorted_rows db q in
  let hplan = explain_text db q in
  check Alcotest.bool "unanalyzed tables keep FROM order: big first" true
    (String.length hplan > 0
    &&
    match String.index_opt hplan '\n' with
    | Some i -> contains (String.sub hplan 0 i) "scan big"
    | None -> false);
  ignore (run db "ANALYZE big");
  ignore (run db "ANALYZE small");
  let cplan = explain_text db q in
  check Alcotest.bool "cost-based scans small first" true
    (match String.index_opt cplan '\n' with
    | Some i -> contains (String.sub cplan 0 i) "scan small"
    | None -> false);
  let ccols, crows = sorted_rows db q in
  (* reordering must not leak into the output: SELECT * keeps the
     written FROM order for both column names and value order *)
  check (Alcotest.list Alcotest.string) "column order preserved" hcols ccols;
  check Alcotest.bool "identical result sets" true (hrows = crows);
  check Alcotest.bool "rows actually joined" true (List.length crows > 0)

(* first "est~<n>" value in an EXPLAIN rendering *)
let first_estimate txt =
  let tag = "est~" in
  let nt = String.length txt and ntag = String.length tag in
  let rec find i =
    if i + ntag > nt then None
    else if String.sub txt i ntag = tag then Some (i + ntag)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let j = ref i in
      while !j < nt && txt.[!j] >= '0' && txt.[!j] <= '9' do incr j done;
      if !j = i then None else Some (int_of_string (String.sub txt i (!j - i)))

(* ---- EXPLAIN ANALYZE: estimates vs actuals ------------------------------ *)

let test_explain_analyze_estimates () =
  let db = nums_fixture 200 in
  let q = "SELECT id FROM nums WHERE v = 3" in
  let scan_estimate () =
    let txt = explain_analyze_text db q in
    match
      List.find_opt
        (fun l -> contains l "Scan nums")
        (String.split_on_char '\n' txt)
    with
    | Some l -> (
        check Alcotest.bool "scan shows actual rows" true (contains l "rows=");
        match first_estimate l with
        | Some e -> e
        | None -> Alcotest.failf "expected a planner estimate in %S" l)
    | None -> Alcotest.fail "expected a Scan operator line"
  in
  (* unanalyzed: 200 live rows times the static equality selectivity *)
  let default_est = scan_estimate () in
  check Alcotest.int "default-stats estimate" 10 default_est;
  ignore (run db "ANALYZE nums");
  (* measured: 200 rows over 7 distinct values of v *)
  let measured_est = scan_estimate () in
  check Alcotest.bool
    (Printf.sprintf "ANALYZE moves the estimate (est~%d -> est~%d)" default_est
       measured_est)
    true
    (measured_est >= 25 && measured_est <= 32)

(* ---- stale statistics --------------------------------------------------- *)

let test_stale_stats_correct_and_refreshable () =
  let db = nums_fixture 100 in
  ignore (run db "ANALYZE nums");
  check Alcotest.bool "fresh stats estimate 100" true
    (contains (explain_text db "SELECT id FROM nums") "est~100");
  for i = 101 to 300 do
    ignore (run db (Printf.sprintf "INSERT INTO nums VALUES (%d, %d)" i (i mod 7)))
  done;
  (* the ANALYZE histogram still ends at id = 100, so the planner thinks
     this predicate is empty — but results must stay exact *)
  let q = "SELECT id FROM nums WHERE id > 100" in
  check Alcotest.int "all 200 new rows despite stale stats" 200
    (List.length (snd (sorted_rows db q)));
  let naive = sorted_rows ~optimize:false db q in
  check Alcotest.bool "stale stats never change answers" true
    (naive = sorted_rows db q);
  (match first_estimate (explain_text db q) with
  | Some e ->
      check Alcotest.bool
        (Printf.sprintf "stale histogram underestimates (est~%d)" e)
        true (e <= 5)
  | None -> Alcotest.fail "expected an estimate on the analyzed scan");
  (* only ANALYZE runs between the two EXPLAINs, so an estimate change
     proves the planner reads the refreshed statistics *)
  ignore (run db "ANALYZE nums");
  match first_estimate (explain_text db q) with
  | Some e ->
      check Alcotest.bool
        (Printf.sprintf "re-ANALYZE refreshes the estimate (est~%d)" e)
        true
        (e >= 150 && e <= 250)
  | None -> Alcotest.fail "expected an estimate after re-ANALYZE"

(* ---- the plan-equivalence property -------------------------------------- *)

let equivalence_queries =
  [
    "SELECT v FROM r WHERE k = 7";
    "SELECT v FROM r WHERE k < 11 AND v > 2";
    "SELECT r.v, s.w FROM r, s WHERE r.k = s.k";
    "SELECT count(*) FROM r WHERE k >= 5";
    "SELECT v FROM r ORDER BY v DESC LIMIT 5";
    Printf.sprintf "SELECT id FROM g WHERE contains(seq, '%s')" pattern30;
    Printf.sprintf "SELECT id FROM g WHERE resembles(seq, dna('%s')) >= 0.9"
      pattern30;
    "SELECT id FROM g WHERE contains(seq, 'ACGTAC') AND id > 3";
  ]

(* The oracle is [~optimize:false]: full scans, filters in source order,
   nested loops. Every optimized configuration (default statistics, then
   measured ones, each at jobs 1 and 4) must return its result sets. The
   genomically indexed DNA table [g] makes the genomic access paths,
   chosen on default statistics too, answer to a full scan. *)
let plan_equivalence_property =
  let module Q = QCheck2 in
  let gen =
    Q.Gen.(
      triple
        (list_size (int_bound 30) (int_bound 20))
        (list_size (int_bound 12) (int_bound 20))
        (pair (list_size (int_bound 24) bool) int))
  in
  let prop (ls, rs, (planted, seed)) =
    let db = mk_db () in
    ignore (run db "CREATE TABLE r (k int, v int)");
    ignore (run db "CREATE INDEX ON r (k)");
    ignore (run db "CREATE TABLE s (k int, w int)");
    ignore (run db "CREATE TABLE g (id int, seq dna)");
    List.iteri
      (fun i k -> ignore (run db (Printf.sprintf "INSERT INTO r VALUES (%d, %d)" k i)))
      ls;
    List.iteri
      (fun i k -> ignore (run db (Printf.sprintf "INSERT INTO s VALUES (%d, %d)" k i)))
      rs;
    let rng = Genalg_synth.Rng.make seed in
    List.iteri
      (fun i plant ->
        let s = Genalg_synth.Seqgen.dna_string rng 60 in
        let s = if plant then pattern30 ^ s else s in
        ignore (run db (Printf.sprintf "INSERT INTO g VALUES (%d, dna('%s'))" i s)))
      planted;
    ignore (run db "CREATE GENOMIC INDEX ON g (seq)");
    let snap ?optimize () = List.map (sorted_rows ?optimize db) equivalence_queries in
    let at_jobs n =
      let prev = Par.jobs () in
      Par.set_jobs n;
      Fun.protect ~finally:(fun () -> Par.set_jobs prev) snap
    in
    let reference = snap ~optimize:false () in
    let default_1 = at_jobs 1 in
    let default_4 = at_jobs 4 in
    List.iter (fun t -> ignore (run db ("ANALYZE " ^ t))) [ "r"; "s"; "g" ];
    let measured_1 = at_jobs 1 in
    let measured_4 = at_jobs 4 in
    List.for_all (( = ) reference) [ default_1; default_4; measured_1; measured_4 ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25
       ~name:"optimized = unoptimized result sets (default and measured stats, any jobs)"
       gen prop)

let suites =
  [
    ( "optimizer.histogram",
      [
        tc "equi-depth over uniform data" `Quick test_histogram_equi_depth;
        tc "heavy duplicates" `Quick test_histogram_heavy_duplicates;
      ] );
    ( "optimizer.estimator",
      [
        tc "bounded error" `Quick test_estimator_bounded_error;
        tc "resembles bound constants" `Quick test_resembles_bound_constants;
      ] );
    ( "optimizer.access_paths",
      [
        tc "resembles seed = scan" `Quick test_seed_path_equivalence;
        tc "unsafe threshold stays scan" `Quick
          test_seed_path_below_threshold_stays_scan;
        tc "contains path with stats" `Quick test_contains_path_with_stats;
        tc "range index with stats" `Quick test_range_path_with_stats;
        tc "genomic index survives save/load" `Quick
          test_genomic_index_survives_save_load;
      ] );
    ( "optimizer.joins",
      [ tc "reorder smallest first" `Quick test_join_reorder_smallest_first ] );
    ( "optimizer.explain",
      [ tc "estimates vs actuals" `Quick test_explain_analyze_estimates ] );
    ( "optimizer.stale_stats",
      [ tc "correct and refreshable" `Quick test_stale_stats_correct_and_refreshable ] );
    ("optimizer.equivalence", [ plan_equivalence_property ]);
  ]
