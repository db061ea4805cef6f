(* Unit tests for the ETL pipeline (lib/etl). *)

open Genalg_gdt
open Genalg_formats
open Genalg_etl
module D = Genalg_storage.Dtype
module Db = Genalg_storage.Database

let check = Alcotest.check
let tc = Alcotest.test_case

let entry_t = Alcotest.testable Entry.pp Entry.equal

let rng () = Genalg_synth.Rng.make 77

let repo ?(size = 15) ?(prefix = "ETL") r = Genalg_synth.Recordgen.repository r ~size ~prefix ()

let to_source_updates updates =
  List.map
    (function
      | Genalg_synth.Recordgen.Insert e -> Source.Insert e
      | Genalg_synth.Recordgen.Delete a -> Source.Delete a
      | Genalg_synth.Recordgen.Modify e -> Source.Modify e)
    updates

(* ---- deltas ------------------------------------------------------------ *)

let test_delta_kinds () =
  let r = rng () in
  let e = List.hd (repo ~size:1 r) in
  let ins = Delta.insertion ~id:1 ~timestamp:1. e in
  let del = Delta.deletion ~id:2 ~timestamp:2. e in
  check Alcotest.bool "insertion" true (Delta.kind ins = Delta.Insertion);
  check Alcotest.bool "deletion" true (Delta.kind del = Delta.Deletion);
  let e2 = { e with Entry.version = 2 } in
  let m = Delta.modification ~id:3 ~timestamp:3. ~before:e ~after:e2 in
  check Alcotest.bool "modification" true (Delta.kind m = Delta.Modification)

let test_delta_apply () =
  let r = rng () in
  let entries = repo ~size:5 r in
  let extra = List.hd (repo ~size:1 ~prefix:"NEW" r) in
  let victim = List.nth entries 2 in
  let deltas =
    [
      Delta.insertion ~id:1 ~timestamp:1. extra;
      Delta.deletion ~id:2 ~timestamp:2. victim;
    ]
  in
  let result = Delta.apply deltas entries in
  check Alcotest.int "size" 5 (List.length result);
  check Alcotest.bool "victim gone" true
    (not
       (List.exists
          (fun (e : Entry.t) -> e.Entry.accession = victim.Entry.accession)
          result));
  check Alcotest.bool "insert appended" true
    (Entry.equal (List.nth result 4) extra)

(* ---- sources -------------------------------------------------------------- *)

let test_source_capabilities () =
  let r = rng () in
  let entries = repo r in
  let active = Source.create ~name:"a" Source.Active Source.Relational entries in
  let logged = Source.create ~name:"l" Source.Logged Source.Flat_file entries in
  let nq = Source.create ~name:"n" Source.Non_queryable Source.Flat_file entries in
  check Alcotest.bool "subscribe to active" true (Result.is_ok (Source.subscribe active (fun _ -> ())));
  check Alcotest.bool "subscribe to logged fails" true
    (Result.is_error (Source.subscribe logged (fun _ -> ())));
  check Alcotest.bool "log of logged" true (Result.is_ok (Source.read_log logged ~since:0));
  check Alcotest.bool "log of active fails" true (Result.is_error (Source.read_log active ~since:0));
  check Alcotest.bool "query non-queryable fails" true (Result.is_error (Source.query_all nq));
  check Alcotest.bool "dump always works" true (String.length (Source.dump nq) > 0)

let test_source_log_and_triggers () =
  let r = rng () in
  let entries = repo r in
  let logged = Source.create ~name:"l" Source.Logged Source.Relational entries in
  let extra = List.hd (repo ~size:1 ~prefix:"XX" r) in
  Source.apply logged [ Source.Insert extra; Source.Delete (List.hd entries).Entry.accession ];
  (match Source.read_log logged ~since:0 with
  | Ok [ d1; d2 ] ->
      check Alcotest.bool "insert logged" true (Delta.kind d1 = Delta.Insertion);
      check Alcotest.bool "delete logged" true (Delta.kind d2 = Delta.Deletion)
  | Ok ds -> Alcotest.failf "expected 2 log entries, got %d" (List.length ds)
  | Error msg -> Alcotest.fail msg);
  (* cursor semantics *)
  match Source.read_log logged ~since:2 with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "cursor should skip read entries"
  | Error msg -> Alcotest.fail msg

let test_source_dump_roundtrip () =
  let r = rng () in
  let entries = repo r in
  List.iter
    (fun repr ->
      let src = Source.create ~name:"s" Source.Non_queryable repr entries in
      match Source.parse_dump repr (Source.dump src) with
      | Ok back ->
          check Alcotest.int "count" (List.length entries) (List.length back);
          List.iter2 (fun a b -> check entry_t "dump entry" a b) entries back
      | Error msg -> Alcotest.fail msg)
    [ Source.Flat_file; Source.Relational; Source.Hierarchical ]

(* ---- monitors: the Figure 2 grid ------------------------------------------- *)

let test_figure2_grid () =
  let cell cap repr = Monitor.technique_for cap repr in
  (* populated cells *)
  check Alcotest.bool "active+rel = db trigger" true
    (cell Source.Active Source.Relational = Some Monitor.Database_trigger);
  check Alcotest.bool "active+hier = program trigger" true
    (cell Source.Active Source.Hierarchical = Some Monitor.Program_trigger);
  check Alcotest.bool "logged+flat = log" true
    (cell Source.Logged Source.Flat_file = Some Monitor.Log_inspection);
  check Alcotest.bool "queryable+hier = edit sequence" true
    (cell Source.Queryable Source.Hierarchical = Some Monitor.Edit_sequence);
  check Alcotest.bool "queryable+rel = snapshot diff" true
    (cell Source.Queryable Source.Relational = Some Monitor.Snapshot_differential);
  check Alcotest.bool "nq+flat = LCS" true
    (cell Source.Non_queryable Source.Flat_file = Some Monitor.Lcs_diff);
  check Alcotest.bool "nq+hier = tree diff" true
    (cell Source.Non_queryable Source.Hierarchical = Some Monitor.Tree_diff);
  (* N/A cells *)
  check Alcotest.bool "active+flat N/A" true (cell Source.Active Source.Flat_file = None);
  check Alcotest.bool "queryable+flat N/A" true (cell Source.Queryable Source.Flat_file = None);
  check Alcotest.bool "nq+rel N/A" true (cell Source.Non_queryable Source.Relational = None)

(* Each populated cell must detect the same keyed changes. *)
let monitor_detects cap repr () =
  let r = rng () in
  let entries = repo ~size:12 r in
  let src = Source.create ~name:"s" cap repr entries in
  let m = Result.get_ok (Monitor.create src) in
  check (Alcotest.list Alcotest.string) "quiescent poll is empty" []
    (List.map (fun (d : Delta.t) -> d.Delta.item) (Result.get_ok (Monitor.poll m)));
  let extra = List.hd (repo ~size:1 ~prefix:"INS" r) in
  let victim = (List.hd entries).Entry.accession in
  let modified =
    let e = List.nth entries 3 in
    {
      e with
      Entry.version = e.Entry.version + 1;
      Entry.definition = e.Entry.definition ^ " (updated)";
    }
  in
  Source.apply src
    [ Source.Insert extra; Source.Delete victim; Source.Modify modified ];
  let deltas = Result.get_ok (Monitor.poll m) in
  check Alcotest.int "three deltas" 3 (List.length deltas);
  let find kind =
    List.find_opt (fun d -> Delta.kind d = kind) deltas
  in
  (match find Delta.Insertion with
  | Some d -> check Alcotest.string "insert item" extra.Entry.accession d.Delta.item
  | None -> Alcotest.fail "no insertion detected");
  (match find Delta.Deletion with
  | Some d -> check Alcotest.string "delete item" victim d.Delta.item
  | None -> Alcotest.fail "no deletion detected");
  (match find Delta.Modification with
  | Some d ->
      check Alcotest.string "modify item" modified.Entry.accession d.Delta.item;
      (match d.Delta.after with
      | Some after -> check entry_t "a-posteriori data" modified after
      | None -> Alcotest.fail "modification without after")
  | None -> Alcotest.fail "no modification detected");
  (* second poll: nothing new *)
  check Alcotest.int "drained" 0 (List.length (Result.get_ok (Monitor.poll m)))

let test_monitor_diff_cost () =
  let r = rng () in
  let entries = repo ~size:10 r in
  let src = Source.create ~name:"s" Source.Non_queryable Source.Flat_file entries in
  let m = Result.get_ok (Monitor.create src) in
  ignore (Monitor.poll m);
  check Alcotest.int "no change, no cost" 0 (Monitor.last_diff_cost m);
  let e = List.nth entries 2 in
  Source.apply src [ Source.Modify { e with Entry.version = 9 } ];
  ignore (Monitor.poll m);
  check Alcotest.bool "LCS cost positive after change" true (Monitor.last_diff_cost m > 0)

(* A dump that does not parse must not become the baseline of the next
   comparison: the deletion it hid is reported exactly once, by the first
   poll after the fault clears. *)
let test_monitor_corrupt_dump_defers_deltas () =
  let r = rng () in
  let entries = repo ~size:6 r in
  let src = Source.create ~name:"s" Source.Non_queryable Source.Flat_file entries in
  let truncate_next_dump () =
    match Genalg_fault.Fault.configure "source.s:truncate:times=1:frac=0.3" with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  in
  Fun.protect ~finally:Genalg_fault.Fault.disable @@ fun () ->
  truncate_next_dump ();
  check Alcotest.bool "no monitor on a dump that does not parse" true
    (Result.is_error (Monitor.create src));
  let m = Result.get_ok (Monitor.create src) in
  let victim = (List.nth entries 2).Entry.accession in
  Source.apply src [ Source.Delete victim ];
  truncate_next_dump ();
  (match Monitor.poll m with
  | Error _ -> ()
  | Ok ds -> Alcotest.failf "a truncated dump polled %d deltas" (List.length ds));
  let polls =
    List.init 3 (fun _ ->
        List.map
          (fun (d : Delta.t) -> (Delta.kind d = Delta.Deletion, d.Delta.item))
          (Result.get_ok (Monitor.poll m)))
  in
  check
    Alcotest.(list (list (pair bool string)))
    "deletion reported once, after the fault" [ [ (true, victim) ]; []; [] ] polls

let test_pipeline_reports_unparsable_dump () =
  let r = rng () in
  let entries = repo ~size:6 r in
  let src = Source.create ~name:"s" Source.Non_queryable Source.Flat_file entries in
  let pl = Result.get_ok (Pipeline.create ~sources:[ src ] ()) in
  ignore (Result.get_ok (Pipeline.bootstrap pl));
  Source.apply src [ Source.Delete (List.hd entries).Entry.accession ];
  Fun.protect ~finally:Genalg_fault.Fault.disable @@ fun () ->
  ignore (Result.get_ok (Genalg_fault.Fault.configure "source.s:truncate:times=1:frac=0.3"));
  let statuses () =
    List.map
      (fun (name, st) -> name ^ "=" ^ Pipeline.poll_status_to_string st)
      (Pipeline.refresh_report pl).Pipeline.statuses
  in
  (match statuses () with
  | [ st ] ->
      check Alcotest.bool ("corrupt round fails: " ^ st) true
        (String.starts_with ~prefix:"s=failed(" st)
  | sts -> Alcotest.failf "statuses %s" (String.concat ", " sts));
  check (Alcotest.list Alcotest.string) "next round applies the deletion" [ "s=polled(1)" ]
    (statuses ());
  check (Alcotest.list Alcotest.string) "then nothing" [ "s=polled(0)" ] (statuses ())

let test_monitor_rejects_na_cell () =
  let r = rng () in
  let src = Source.create ~name:"s" Source.Non_queryable Source.Relational (repo r) in
  check Alcotest.bool "N/A cell rejected" true (Result.is_error (Monitor.create src))

(* ---- tree diff -------------------------------------------------------------- *)

let test_tree_diff_equal () =
  let r = rng () in
  let tree = Acedb.of_entry (List.hd (repo ~size:1 r)) in
  check Alcotest.int "self-diff is empty" 0 (List.length (Tree_diff.diff tree tree))

let test_tree_diff_relabel () =
  let a = Acedb.node "Root" ~children:[ Acedb.node "X" ~value:"1"; Acedb.node "Y" ~value:"2" ] in
  let b = Acedb.node "Root" ~children:[ Acedb.node "X" ~value:"1"; Acedb.node "Y" ~value:"3" ] in
  let edits = Tree_diff.diff a b in
  check Alcotest.int "one edit" 1 (List.length edits);
  (match edits with
  | [ Tree_diff.Relabel { path; before; after } ] ->
      check Alcotest.string "path" "Root/Y" path;
      check Alcotest.string "before" "2" before;
      check Alcotest.string "after" "3" after
  | _ -> Alcotest.fail "expected one relabel");
  check Alcotest.int "cost 1" 1 (Tree_diff.cost edits)

let test_tree_diff_insert_delete () =
  let a = Acedb.node "Root" ~children:[ Acedb.node "A" ] in
  let b =
    Acedb.node "Root"
      ~children:[ Acedb.node "A"; Acedb.node "B" ~children:[ Acedb.node "C" ] ]
  in
  let edits = Tree_diff.diff a b in
  check Alcotest.int "insert subtree cost 2" 2 (Tree_diff.cost edits);
  let back = Tree_diff.diff b a in
  check Alcotest.int "delete subtree cost 2" 2 (Tree_diff.cost back)

let test_tree_diff_deep_change_is_cheap () =
  (* a one-field change deep inside a big record must cost 1, not the
     whole record *)
  let r = rng () in
  let e = List.hd (repo ~size:1 r) in
  let e' = { e with Entry.definition = "changed definition" } in
  let edits = Tree_diff.diff (Acedb.of_entry e) (Acedb.of_entry e') in
  check Alcotest.int "single relabel" 1 (Tree_diff.cost edits)

(* ---- wrapper ------------------------------------------------------------------ *)

let test_wrapper_extracts_genes () =
  let r = rng () in
  let chrom_seq = Genalg_synth.Seqgen.dna r 300 in
  let entry =
    Entry.make ~accession:"W1"
      ~features:
        [
          Feature.make
            ~qualifiers:[ ("gene", "gA") ]
            Feature.Cds
            (Location.join [ Location.range 11 40; Location.range 61 90 ]);
          Feature.make ~qualifiers:[ ("gene", "gB") ] Feature.Gene (Location.range 100 200);
        ]
      chrom_seq
  in
  let x = Wrapper.extract ~source:"test" entry in
  check Alcotest.int "one CDS -> one gene" 1 (List.length x.Wrapper.genes);
  let g = List.hd x.Wrapper.genes in
  check Alcotest.string "gene id" "W1:gA" g.Gene.id;
  check Alcotest.int "covering span" 80 (Gene.length g);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)) "exons"
    [ (0, 30); (50, 30) ] g.Gene.exons;
  check Alcotest.bool "provenance" true (g.Gene.provenance <> None)

let test_wrapper_complement_cds () =
  let seq = Sequence.dna "AAAACCCCGGGGTTTT" in
  let entry =
    Entry.make ~accession:"W2"
      ~features:
        [ Feature.make Feature.Cds (Location.complement (Location.range 5 12)) ]
      seq
  in
  let x = Wrapper.extract ~source:"test" entry in
  check Alcotest.int "reverse CDS extracted" 1 (List.length x.Wrapper.genes);
  let g = List.hd x.Wrapper.genes in
  (* region 5..12 = CCCCGGGG, reverse complement = CCCCGGGG *)
  check Alcotest.string "sense strand" "CCCCGGGG" (Sequence.to_string g.Gene.dna)

let test_wrapper_skips_bad_locations () =
  let seq = Sequence.dna "ACGTACGT" in
  let entry =
    Entry.make ~accession:"W3"
      ~features:[ Feature.make Feature.Cds (Location.range 5 100) ]
      seq
  in
  let x = Wrapper.extract ~source:"test" entry in
  check Alcotest.int "no genes" 0 (List.length x.Wrapper.genes);
  check Alcotest.int "counted as skipped" 1 x.Wrapper.skipped_features

(* ---- integrator ------------------------------------------------------------------ *)

let test_kmer_similarity () =
  let a = Sequence.dna "ACGTACGTACGTACGTACGT" in
  check (Alcotest.float 1e-9) "identical" 1. (Integrator.kmer_similarity a a);
  let r = rng () in
  let b = Genalg_synth.Seqgen.dna r 20 in
  check Alcotest.bool "random is dissimilar" true (Integrator.kmer_similarity a b < 0.5)

(* The reference: Jaccard similarity of the sets of 8-letter substrings,
   with the library's rule for sequences shorter than 8. *)
let ref_kmer_similarity a b =
  let k = 8 in
  let set s =
    let tbl = Hashtbl.create 64 in
    for i = 0 to String.length s - k do
      Hashtbl.replace tbl (String.sub s i k) ()
    done;
    tbl
  in
  if Sequence.length a < k || Sequence.length b < k then
    if Sequence.equal a b then 1. else 0.
  else begin
    let sa = set (Sequence.to_string a) and sb = set (Sequence.to_string b) in
    let inter = Hashtbl.fold (fun km () n -> if Hashtbl.mem sb km then n + 1 else n) sa 0 in
    let union = Hashtbl.length sa + Hashtbl.length sb - inter in
    if union = 0 then 1. else float_of_int inter /. float_of_int union
  end

let test_kmer_similarity_matches_reference () =
  let r = Genalg_synth.Rng.make 1903 in
  let module Rng = Genalg_synth.Rng in
  let iupac = "ACGTRYSWKMBDHVN" in
  let random_seq () =
    let n = Rng.int r 300 in
    if Rng.bool r 0.5 then Genalg_synth.Seqgen.dna r n
    else Sequence.dna (String.init n (fun _ -> iupac.[Rng.int r (String.length iupac)]))
  in
  for case = 1 to 300 do
    let a = random_seq () in
    let b =
      match case mod 3 with
      | 0 -> random_seq ()
      | 1 -> Genalg_synth.Seqgen.mutate r ~rate:0.05 a
      | _ ->
          let n = Sequence.length a in
          let pos = if n = 0 then 0 else Rng.int r n in
          Sequence.sub a ~pos ~len:(Rng.int r (n - pos + 1))
    in
    let got = Integrator.kmer_similarity a b and want = ref_kmer_similarity a b in
    if got <> want then
      Alcotest.failf "case %d: %s vs %s: %g, reference %g" case (Sequence.to_string a)
        (Sequence.to_string b) got want
  done;
  (* bulk scoring reads precomputed k-mer sets: the same values *)
  let repo_a, repo_b, _ =
    Genalg_synth.Recordgen.overlapping_repositories r ~size:40 ~overlap:0.5
      ~noise_fraction:0.45 ~error_rate:0.02 ()
  in
  let sourced = List.map (fun e -> ("A", e)) repo_a @ List.map (fun e -> ("B", e)) repo_b in
  let found = Integrator.find_duplicates ~threshold:0.5 sourced in
  check Alcotest.bool "duplicates found" true (found <> []);
  List.iter
    (fun ((_, (a : Entry.t)), (_, (b : Entry.t)), score) ->
      let want =
        (0.8 *. ref_kmer_similarity a.Entry.sequence b.Entry.sequence)
        +. (0.2 *. Genalg_align.Distance.similarity a.Entry.definition b.Entry.definition)
      in
      check (Alcotest.float 0.) (a.Entry.accession ^ "/" ^ b.Entry.accession) want score)
    found

let test_find_duplicates_on_ground_truth () =
  let r = rng () in
  let repo_a, repo_b, pairs =
    Genalg_synth.Recordgen.overlapping_repositories r ~size:40 ~overlap:0.5
      ~noise_fraction:0.45 ~error_rate:0.02 ()
  in
  let sourced =
    List.map (fun e -> ("A", e)) repo_a @ List.map (fun e -> ("B", e)) repo_b
  in
  let found = Integrator.find_duplicates ~threshold:0.5 sourced in
  let found_pairs =
    List.map
      (fun ((_, (a : Entry.t)), (_, (b : Entry.t)), _) ->
        (a.Entry.accession, b.Entry.accession))
      found
  in
  let truth = List.length pairs in
  let hits =
    List.length
      (List.filter
         (fun (x, y) -> List.mem (x, y) found_pairs || List.mem (y, x) found_pairs)
         pairs)
  in
  let false_pos = List.length found_pairs - hits in
  check Alcotest.bool
    (Printf.sprintf "recall >= 0.9 (got %d/%d)" hits truth)
    true
    (float_of_int hits /. float_of_int truth >= 0.9);
  check Alcotest.bool
    (Printf.sprintf "precision high (%d false positives)" false_pos)
    true
    (false_pos <= 2)

let test_reconcile_merges_and_keeps_conflicts () =
  let r = rng () in
  let e = List.hd (repo ~size:1 ~prefix:"RC" r) in
  let noisy = Genalg_synth.Recordgen.noisy_copy r ~error_rate:0.02 ~rename:"RCCOPY" e in
  let merged =
    Integrator.reconcile ~threshold:0.5 [ ("A", e); ("B", noisy); ]
  in
  check Alcotest.int "one cluster" 1 (List.length merged);
  let m = List.hd merged in
  check Alcotest.int "two members" 2 (List.length m.Integrator.members);
  if not (Sequence.equal e.Entry.sequence noisy.Entry.sequence) then begin
    check Alcotest.bool "flagged inconsistent" false m.Integrator.consistent;
    check Alcotest.int "both alternatives kept" 2 (Uncertain.cardinal m.Integrator.sequence)
  end

(* Sequences shorter than the k-mer length have no k-mers: bulk scoring
   must not call two different ones identical. *)
let test_short_sequences_are_not_duplicates () =
  let e = List.hd (repo ~size:1 ~prefix:"SH" (rng ())) in
  let a = { e with Entry.sequence = Sequence.dna "ACGTA" }
  and b = { e with Entry.accession = "SHCOPY"; sequence = Sequence.dna "TTTTT" } in
  let want = Integrator.pair_score a b in
  check (Alcotest.float 1e-9) "pair score: definitions only" 0.2 want;
  (match Integrator.find_duplicates ~threshold:0. [ ("A", a); ("B", b) ] with
  | [ (_, _, score) ] -> check (Alcotest.float 0.) "find_duplicates = pair_score" want score
  | found -> Alcotest.failf "expected one scored pair, got %d" (List.length found));
  check Alcotest.int "two clusters" 2
    (List.length (Integrator.reconcile [ ("A", a); ("B", b) ]))

let test_reconcile_keeps_distinct_entries_apart () =
  let r = rng () in
  let entries = repo ~size:10 r in
  let sourced = List.map (fun e -> ("A", e)) entries in
  let merged = Integrator.reconcile sourced in
  check Alcotest.int "no spurious merges" 10 (List.length merged);
  check Alcotest.bool "all consistent" true
    (List.for_all (fun m -> m.Integrator.consistent) merged)

(* ---- loader / pipeline -------------------------------------------------------------- *)

let test_loader_full_and_incremental () =
  let r = rng () in
  let entries = repo ~size:10 ~prefix:"LD" r in
  let db = Db.create () in
  (match Loader.init db (Genalg_core.Builtin.create ()) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let merged = Integrator.reconcile (List.map (fun e -> ("src", e)) entries) in
  (match Loader.load_merged db merged with
  | Ok stats -> check Alcotest.int "entries loaded" 10 stats.Loader.entries
  | Error m -> Alcotest.fail m);
  let count () =
    match Genalg_sqlx.Exec.query db ~actor:"u" "SELECT count(*) FROM sequences" with
    | Ok (Genalg_sqlx.Exec.Rows { rows = [ [| D.Int n |] ]; _ }) -> n
    | _ -> -1
  in
  check Alcotest.int "10 rows" 10 (count ());
  (* incremental: one delete, one insert, one modify *)
  let extra = List.hd (repo ~size:1 ~prefix:"NEW" r) in
  let victim = List.hd entries in
  let modified = { (List.nth entries 5) with Entry.version = 2 } in
  let deltas =
    [
      Delta.insertion ~id:1 ~timestamp:1. extra;
      Delta.deletion ~id:2 ~timestamp:2. victim;
      Delta.modification ~id:3 ~timestamp:3. ~before:(List.nth entries 5) ~after:modified;
    ]
  in
  (match Loader.incremental db ~source:"src" deltas with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  check Alcotest.int "still 10 rows" 10 (count ());
  (* the victim is gone, the new accession is present, version bumped *)
  let q sql =
    match Genalg_sqlx.Exec.query db ~actor:"u" sql with
    | Ok (Genalg_sqlx.Exec.Rows { rows; _ }) -> rows
    | _ -> Alcotest.fail sql
  in
  check Alcotest.int "victim gone" 0
    (List.length
       (q (Printf.sprintf "SELECT * FROM sequences WHERE accession = '%s'" victim.Entry.accession)));
  check Alcotest.int "insert present" 1
    (List.length
       (q (Printf.sprintf "SELECT * FROM sequences WHERE accession = '%s'" extra.Entry.accession)));
  match q (Printf.sprintf "SELECT version FROM sequences WHERE accession = '%s'"
             modified.Entry.accession) with
  | [ [| D.Int 2 |] ] -> ()
  | _ -> Alcotest.fail "modification not applied"

let test_loader_clear () =
  let r = rng () in
  let db = Db.create () in
  ignore (Loader.init db (Genalg_core.Builtin.create ()));
  ignore
    (Loader.load_merged db (Integrator.reconcile (List.map (fun e -> ("s", e)) (repo r))));
  (match Loader.clear db with Ok () -> () | Error m -> Alcotest.fail m);
  match Genalg_sqlx.Exec.query db ~actor:"u" "SELECT count(*) FROM sequences" with
  | Ok (Genalg_sqlx.Exec.Rows { rows = [ [| D.Int 0 |] ]; _ }) -> ()
  | _ -> Alcotest.fail "clear left rows behind"

let test_pipeline_end_to_end () =
  let r = rng () in
  let entries_a = repo ~size:12 ~prefix:"PA" r in
  let entries_b = repo ~size:12 ~prefix:"PB" r in
  let src_a = Source.create ~name:"bank-a" Source.Logged Source.Flat_file entries_a in
  let src_b = Source.create ~name:"bank-b" Source.Queryable Source.Relational entries_b in
  let pl = Result.get_ok (Pipeline.create ~sources:[ src_a; src_b ] ()) in
  (match Pipeline.bootstrap pl with
  | Ok stats -> check Alcotest.int "bootstrap entries" 24 stats.Loader.entries
  | Error m -> Alcotest.fail m);
  (* push updates into both sources, then refresh *)
  let _, ups_a = Genalg_synth.Recordgen.update_stream r entries_a ~fraction:0.2 () in
  Source.apply src_a (to_source_updates ups_a);
  let _, ups_b = Genalg_synth.Recordgen.update_stream r entries_b ~fraction:0.2 () in
  Source.apply src_b (to_source_updates ups_b);
  match Pipeline.refresh pl with
  | Ok (_, n) ->
      check Alcotest.int "all deltas processed" (List.length ups_a + List.length ups_b) n
  | Error m -> Alcotest.fail m

let test_pipeline_with_active_source () =
  (* an Active (push) source drives the same incremental path: its
     triggers fire into the monitor queue and refresh applies them *)
  let r = rng () in
  let entries = repo ~size:8 ~prefix:"ACT" r in
  let src = Source.create ~name:"push-bank" Source.Active Source.Relational entries in
  let pl = Result.get_ok (Pipeline.create ~sources:[ src ] ()) in
  ignore (Result.get_ok (Pipeline.bootstrap pl));
  let extra = List.hd (repo ~size:1 ~prefix:"ACTNEW" r) in
  Source.apply src
    [ Source.Insert extra; Source.Delete (List.hd entries).Entry.accession ];
  match Pipeline.refresh pl with
  | Ok (_, n) ->
      check Alcotest.int "both pushed deltas applied" 2 n;
      let db = Pipeline.database pl in
      (match
         Genalg_sqlx.Exec.query db ~actor:"u" "SELECT count(*) FROM sequences"
       with
      | Ok (Genalg_sqlx.Exec.Rows { rows = [ [| D.Int 8 |] ]; _ }) -> ()
      | _ -> Alcotest.fail "row count after push refresh")
  | Error m -> Alcotest.fail m

let suites =
  [
    ( "etl.delta",
      [ tc "kinds" `Quick test_delta_kinds; tc "apply" `Quick test_delta_apply ] );
    ( "etl.source",
      [
        tc "capabilities" `Quick test_source_capabilities;
        tc "log and triggers" `Quick test_source_log_and_triggers;
        tc "dump roundtrip" `Quick test_source_dump_roundtrip;
      ] );
    ( "etl.monitor",
      [
        tc "figure 2 grid" `Quick test_figure2_grid;
        tc "db trigger detects" `Quick (monitor_detects Source.Active Source.Relational);
        tc "program trigger detects" `Quick (monitor_detects Source.Active Source.Hierarchical);
        tc "log inspection detects" `Quick (monitor_detects Source.Logged Source.Flat_file);
        tc "edit sequence detects" `Quick (monitor_detects Source.Queryable Source.Hierarchical);
        tc "snapshot differential detects" `Quick (monitor_detects Source.Queryable Source.Relational);
        tc "LCS diff detects" `Quick (monitor_detects Source.Non_queryable Source.Flat_file);
        tc "tree diff detects" `Quick (monitor_detects Source.Non_queryable Source.Hierarchical);
        tc "diff cost" `Quick test_monitor_diff_cost;
        tc "unparsable dump defers deltas" `Quick test_monitor_corrupt_dump_defers_deltas;
        tc "rejects N/A cell" `Quick test_monitor_rejects_na_cell;
      ] );
    ( "etl.tree_diff",
      [
        tc "equal" `Quick test_tree_diff_equal;
        tc "relabel" `Quick test_tree_diff_relabel;
        tc "insert/delete" `Quick test_tree_diff_insert_delete;
        tc "deep change is cheap" `Quick test_tree_diff_deep_change_is_cheap;
      ] );
    ( "etl.wrapper",
      [
        tc "extracts genes" `Quick test_wrapper_extracts_genes;
        tc "complement CDS" `Quick test_wrapper_complement_cds;
        tc "skips bad locations" `Quick test_wrapper_skips_bad_locations;
      ] );
    ( "etl.integrator",
      [
        tc "kmer similarity" `Quick test_kmer_similarity;
        tc "kmer similarity = string-set reference" `Quick
          test_kmer_similarity_matches_reference;
        tc "duplicates vs ground truth" `Quick test_find_duplicates_on_ground_truth;
        tc "merge keeps conflicts" `Quick test_reconcile_merges_and_keeps_conflicts;
        tc "distinct stay apart" `Quick test_reconcile_keeps_distinct_entries_apart;
        tc "short sequences are not duplicates" `Quick
          test_short_sequences_are_not_duplicates;
      ] );
    ( "etl.loader",
      [
        tc "full and incremental" `Quick test_loader_full_and_incremental;
        tc "clear" `Quick test_loader_clear;
      ] );
    ( "etl.pipeline",
      [
        tc "end to end" `Quick test_pipeline_end_to_end;
        tc "active source" `Quick test_pipeline_with_active_source;
        tc "unparsable dump is a failed poll" `Quick test_pipeline_reports_unparsable_dump;
      ] );
  ]
