(* Tests for the domain pool (lib/par) and for the determinism of every
   parallel consumer: partitioned scans, hash joins, batch alignment and
   index construction must produce bit-identical results for any jobs
   setting. *)

module Par = Genalg_par.Par
module D = Genalg_storage.Dtype
module Db = Genalg_storage.Database
module Exec = Genalg_sqlx.Exec

let check = Alcotest.check
let tc = Alcotest.test_case

(* run [f] at a given jobs setting and restore the previous one after *)
let with_jobs n f =
  let prev = Par.jobs () in
  Par.set_jobs n;
  Fun.protect ~finally:(fun () -> Par.set_jobs prev) f

(* ---- combinators -------------------------------------------------------- *)

let test_map_order_preserved () =
  let input = Array.init 1_000 (fun i -> i) in
  let expected = Array.map (fun i -> (i * 31) mod 257) input in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let got = Par.parallel_map (fun i -> (i * 31) mod 257) input in
          check Alcotest.bool
            (Printf.sprintf "map order at jobs=%d" jobs)
            true (got = expected)))
    [ 1; 2; 3; 8 ]

let test_map_list_and_empty () =
  with_jobs 4 (fun () ->
      check
        Alcotest.(list int)
        "list version" [ 2; 4; 6 ]
        (Par.parallel_map_list (fun x -> 2 * x) [ 1; 2; 3 ]);
      check Alcotest.(list int) "empty list" [] (Par.parallel_map_list Fun.id []);
      check Alcotest.bool "empty array" true (Par.parallel_map Fun.id [||] = [||]);
      check Alcotest.bool "singleton" true (Par.parallel_map succ [| 41 |] = [| 42 |]))

let test_tiny_chunk () =
  (* chunk=1 maximizes hand-offs between domains; order must survive *)
  with_jobs 4 (fun () ->
      let input = Array.init 100 string_of_int in
      let got = Par.parallel_map ~chunk:1 (fun s -> s ^ "!") input in
      check Alcotest.bool "chunk=1 order" true
        (got = Array.map (fun s -> s ^ "!") input))

exception Boom of int

let test_exception_propagation () =
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let raised =
            try
              ignore
                (Par.parallel_map
                   (fun i -> if i = 37 then raise (Boom i) else i)
                   (Array.init 500 Fun.id));
              None
            with Boom i -> Some i
          in
          check
            Alcotest.(option int)
            (Printf.sprintf "Boom propagates at jobs=%d" jobs)
            (Some 37) raised;
          (* the pool must stay usable after a failed operation *)
          check Alcotest.bool "pool alive after exception" true
            (Par.parallel_map succ [| 1; 2; 3 |] = [| 2; 3; 4 |])))
    [ 1; 4 ]

let test_fold_and_for () =
  with_jobs 3 (fun () ->
      let n = 10_000 in
      let input = Array.init n (fun i -> i + 1) in
      let sum =
        Par.parallel_fold ~map:Fun.id ~combine:( + ) ~init:0 input
      in
      check Alcotest.int "fold sum" (n * (n + 1) / 2) sum;
      (* combine runs in chunk order: string concat is associative but not
         commutative, so this catches out-of-order merges *)
      let cat =
        Par.parallel_fold ~map:string_of_int ~combine:( ^ ) ~init:""
          (Array.init 50 Fun.id)
      in
      check Alcotest.string "fold is ordered" (String.concat "" (List.init 50 string_of_int)) cat;
      let out = Array.make 256 (-1) in
      Par.parallel_for 256 (fun i -> out.(i) <- i * i);
      check Alcotest.bool "for writes every slot" true
        (out = Array.init 256 (fun i -> i * i)))

let test_parallel_sort () =
  let rng = Genalg_synth.Rng.make 42 in
  List.iter
    (fun (jobs, n) ->
      with_jobs jobs (fun () ->
          let a = Array.init n (fun _ -> Genalg_synth.Rng.int rng 1000) in
          let expected = Array.copy a in
          Array.sort Int.compare expected;
          (* force a sub-chunk-size merge path with an explicit chunk *)
          Par.parallel_sort ~chunk:(max 1 (n / 7)) Int.compare a;
          check Alcotest.bool
            (Printf.sprintf "sort jobs=%d n=%d" jobs n)
            true (a = expected)))
    [ (1, 100); (4, 100); (4, 5_000); (3, 4_097) ]

let test_nested_calls_inline () =
  (* a parallel op inside a worker must run inline, not deadlock *)
  with_jobs 4 (fun () ->
      let got =
        Par.parallel_map
          (fun i ->
            Array.fold_left ( + ) 0
              (Par.parallel_map (fun j -> i * j) (Array.init 20 Fun.id)))
          (Array.init 40 Fun.id)
      in
      let expected = Array.init 40 (fun i -> i * 190) in
      check Alcotest.bool "nested map" true (got = expected))

(* ---- pool lifecycle ------------------------------------------------------ *)

let test_jobs_clamped_and_default () =
  with_jobs 1 (fun () ->
      Par.set_jobs 0;
      check Alcotest.int "jobs clamped to 1" 1 (Par.jobs ());
      Par.set_jobs (-3);
      check Alcotest.int "negative clamped" 1 (Par.jobs ()));
  check Alcotest.bool "default_jobs positive" true (Par.default_jobs () >= 1)

let test_jobs1_spawns_nothing () =
  Par.shutdown ();
  check Alcotest.int "pool empty after shutdown" 0 (Par.pool_size ());
  with_jobs 1 (fun () ->
      let before = Par.spawned_total () in
      ignore (Par.parallel_map succ (Array.init 1_000 Fun.id));
      check Alcotest.int "jobs=1 runs inline" before (Par.spawned_total ());
      check Alcotest.int "no workers" 0 (Par.pool_size ()))

let test_pool_reused () =
  Par.shutdown ();
  with_jobs 3 (fun () ->
      let before = Par.spawned_total () in
      for _ = 1 to 10 do
        ignore (Par.parallel_map succ (Array.init 2_000 Fun.id))
      done;
      let spawned = Par.spawned_total () - before in
      check Alcotest.int "workers spawned once" 2 spawned;
      check Alcotest.int "pool holds jobs-1 workers" 2 (Par.pool_size ()));
  Par.shutdown ()

(* ---- parallel consumers are deterministic -------------------------------- *)

let sql_fixture () =
  let db = Db.create () in
  let run sql =
    match Exec.query db ~actor:Db.loader_actor sql with
    | Ok o -> o
    | Error msg -> Alcotest.failf "fixture: %s (%s)" msg sql
  in
  ignore (run "CREATE TABLE genes (gid int, organism string)");
  ignore (run "CREATE TABLE prots (pid int, gene int, plen int)");
  let _, genes = Option.get (Db.resolve db ~actor:Db.loader_actor "genes") in
  let _, prots = Option.get (Db.resolve db ~actor:Db.loader_actor "prots") in
  for i = 1 to 600 do
    ignore
      (Genalg_storage.Table.insert_exn genes
         [| D.Int i; D.Str (if i mod 3 = 0 then "ecoli" else "yeast") |]);
    ignore
      (Genalg_storage.Table.insert_exn prots
         [| D.Int (10_000 + i); D.Int (((i * 11) mod 600) + 1); D.Int (i mod 97) |])
  done;
  db

(* executes on every call: the result cache would otherwise answer the
   jobs>1 runs with the jobs=1 result *)
let rows_of db sql =
  match Genalg_sqlx.Parser.parse sql with
  | Ok (Genalg_sqlx.Ast.Select s) -> (
      match Exec.run_select db ~actor:"tester" s with
      | Ok rs -> rs.Exec.rows
      | Error msg -> Alcotest.failf "%s (%s)" msg sql)
  | _ -> Alcotest.failf "expected a SELECT: %s" sql

let test_sql_jobs_identical () =
  let db = sql_fixture () in
  List.iter
    (fun sql ->
      let sequential = with_jobs 1 (fun () -> rows_of db sql) in
      List.iter
        (fun jobs ->
          let parallel = with_jobs jobs (fun () -> rows_of db sql) in
          check Alcotest.bool
            (Printf.sprintf "jobs=%d identical for %s" jobs sql)
            true
            (sequential = parallel))
        [ 2; 5 ])
    [
      "SELECT gid FROM genes WHERE gid * 7 > 140 AND organism = 'ecoli'";
      "SELECT g.gid, p.pid FROM genes g, prots p \
       WHERE g.gid = p.gene AND p.plen >= 48";
      "SELECT organism, count(*) AS n FROM genes GROUP BY organism ORDER BY organism DESC";
    ]

let test_batch_align_jobs_identical () =
  let rng = Genalg_synth.Rng.make 7 in
  let pairs =
    Array.init 24 (fun _ ->
        ( Genalg_synth.Seqgen.dna_string rng 120,
          Genalg_synth.Seqgen.dna_string rng 120 ))
  in
  let seq_scores = with_jobs 1 (fun () -> Genalg_align.Batch.score_pairs pairs) in
  let par_scores = with_jobs 4 (fun () -> Genalg_align.Batch.score_pairs pairs) in
  check Alcotest.bool "batch scores identical" true (seq_scores = par_scores);
  let expected =
    Array.map
      (fun (q, s) -> Genalg_align.Pairwise.score_only ~query:q ~subject:s ())
      pairs
  in
  check Alcotest.bool "batch matches pairwise loop" true (par_scores = expected);
  let named = Array.mapi (fun i (_, s) -> (Printf.sprintf "s%d" i, s)) pairs in
  let q = fst pairs.(0) in
  let best1 = with_jobs 1 (fun () -> Genalg_align.Batch.best_match ~query:q named) in
  let best4 = with_jobs 4 (fun () -> Genalg_align.Batch.best_match ~query:q named) in
  check Alcotest.bool "best_match identical" true (best1 = best4);
  check Alcotest.bool "best_match empty" true
    (Genalg_align.Batch.best_match ~query:q [||] = None)

let test_kmer_index_jobs_identical () =
  let rng = Genalg_synth.Rng.make 11 in
  (* long enough to clear the index's parallel threshold *)
  let text = Genalg_synth.Seqgen.dna_string rng 40_000 in
  let probe = String.sub text 20_000 15 in
  let seq_idx = with_jobs 1 (fun () -> Genalg_seqindex.Kmer_index.build ~k:12 text) in
  let par_idx = with_jobs 4 (fun () -> Genalg_seqindex.Kmer_index.build ~k:12 text) in
  check Alcotest.int "same distinct kmers"
    (Genalg_seqindex.Kmer_index.distinct_kmers seq_idx)
    (Genalg_seqindex.Kmer_index.distinct_kmers par_idx);
  check
    Alcotest.(list int)
    "same hits"
    (Genalg_seqindex.Kmer_index.find_all seq_idx probe)
    (Genalg_seqindex.Kmer_index.find_all par_idx probe);
  check Alcotest.bool "hits nonempty" true
    (Genalg_seqindex.Kmer_index.find_all par_idx probe <> [])

let test_suffix_array_jobs_identical () =
  let rng = Genalg_synth.Rng.make 13 in
  let text = Genalg_synth.Seqgen.dna_string rng 6_000 in
  let seq_sa = with_jobs 1 (fun () -> Genalg_seqindex.Suffix_array.build text) in
  let par_sa = with_jobs 4 (fun () -> Genalg_seqindex.Suffix_array.build text) in
  check Alcotest.bool "identical suffix arrays" true
    (Genalg_seqindex.Suffix_array.suffixes seq_sa
    = Genalg_seqindex.Suffix_array.suffixes par_sa);
  let probe = String.sub text 3_000 14 in
  check
    Alcotest.(list int)
    "same matches"
    (Genalg_seqindex.Suffix_array.find_all seq_sa probe)
    (Genalg_seqindex.Suffix_array.find_all par_sa probe)

let suites =
  [
    ( "par:pool",
      [
        tc "map preserves order" `Quick test_map_order_preserved;
        tc "list + degenerate inputs" `Quick test_map_list_and_empty;
        tc "chunk=1" `Quick test_tiny_chunk;
        tc "exception propagation" `Quick test_exception_propagation;
        tc "fold and for" `Quick test_fold_and_for;
        tc "parallel sort" `Quick test_parallel_sort;
        tc "nested calls run inline" `Quick test_nested_calls_inline;
        tc "jobs clamped" `Quick test_jobs_clamped_and_default;
        tc "jobs=1 spawns nothing" `Quick test_jobs1_spawns_nothing;
        tc "pool reused across ops" `Quick test_pool_reused;
      ] );
    ( "par:determinism",
      [
        tc "sql results identical across jobs" `Quick test_sql_jobs_identical;
        tc "batch alignment identical" `Quick test_batch_align_jobs_identical;
        tc "kmer index identical" `Quick test_kmer_index_jobs_identical;
        tc "suffix array identical" `Quick test_suffix_array_jobs_identical;
      ] );
  ]
