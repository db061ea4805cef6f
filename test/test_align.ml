(* Unit tests for the alignment substrate (lib/align). *)

open Genalg_align

let check = Alcotest.check
let tc = Alcotest.test_case

(* ---- scoring -------------------------------------------------------- *)

let test_blosum62_values () =
  (* spot checks against the published matrix *)
  check Alcotest.int "W/W = 11" 11 (Scoring.score Scoring.blosum62 'W' 'W');
  check Alcotest.int "A/A = 4" 4 (Scoring.score Scoring.blosum62 'A' 'A');
  check Alcotest.int "E/Q = 2" 2 (Scoring.score Scoring.blosum62 'E' 'Q');
  check Alcotest.int "W/C = -2" (-2) (Scoring.score Scoring.blosum62 'W' 'C');
  check Alcotest.int "symmetric" (Scoring.score Scoring.blosum62 'R' 'K')
    (Scoring.score Scoring.blosum62 'K' 'R');
  check Alcotest.int "case-insensitive" 4 (Scoring.score Scoring.blosum62 'a' 'A')

let test_pam250_values () =
  check Alcotest.int "W/W = 17" 17 (Scoring.score Scoring.pam250 'W' 'W');
  check Alcotest.int "C/C = 12" 12 (Scoring.score Scoring.pam250 'C' 'C')

let test_dna_scoring () =
  let m = Scoring.dna ~match_:1 ~mismatch:(-2) in
  check Alcotest.int "match" 1 (Scoring.score m 'A' 'A');
  check Alcotest.int "mismatch" (-2) (Scoring.score m 'A' 'C');
  check Alcotest.int "unknown letter is mismatch" (-2) (Scoring.score m 'A' 'Z')

(* ---- pairwise ------------------------------------------------------- *)

let dna1 = Scoring.dna ~match_:1 ~mismatch:(-1)
let unit_gap = Scoring.linear_gap 1

let test_global_identical () =
  let a = Pairwise.align ~mode:Pairwise.Global ~matrix:dna1 ~gap:unit_gap
      ~query:"ACGTACGT" ~subject:"ACGTACGT" ()
  in
  check Alcotest.int "score = length" 8 a.Pairwise.score;
  check (Alcotest.float 1e-9) "identity 1" 1. (Pairwise.identity a);
  check Alcotest.string "no gaps" "ACGTACGT" a.Pairwise.aligned_query

let test_global_gap () =
  (* deleting one base costs one gap *)
  let a = Pairwise.align ~mode:Pairwise.Global ~matrix:dna1 ~gap:unit_gap
      ~query:"ACGT" ~subject:"ACGGT" ()
  in
  check Alcotest.int "4 matches - 1 gap" 3 a.Pairwise.score;
  check Alcotest.bool "one gap in query" true
    (String.contains a.Pairwise.aligned_query '-')

let test_global_empty () =
  let a = Pairwise.align ~mode:Pairwise.Global ~matrix:dna1 ~gap:unit_gap
      ~query:"" ~subject:"ACG" ()
  in
  check Alcotest.string "subject fully gapped" "---" a.Pairwise.aligned_query;
  let b = Pairwise.align ~mode:Pairwise.Global ~query:"" ~subject:"" () in
  check Alcotest.int "empty vs empty" 0 b.Pairwise.score

let test_local_finds_island () =
  (* a perfect island inside junk *)
  let a = Pairwise.align ~mode:Pairwise.Local ~matrix:dna1 ~gap:unit_gap
      ~query:"TTTTGGGGCCCCTTTT" ~subject:"AAAAGGGGCCCCAAAA" ()
  in
  check Alcotest.int "island score" 8 a.Pairwise.score;
  check Alcotest.string "island" "GGGGCCCC" a.Pairwise.aligned_query;
  check Alcotest.int "query start" 4 a.Pairwise.query_start;
  check Alcotest.int "subject start" 4 a.Pairwise.subject_start

let test_local_no_similarity () =
  let a = Pairwise.align ~mode:Pairwise.Local ~matrix:dna1 ~gap:unit_gap
      ~query:"AAAA" ~subject:"CCCC" ()
  in
  check Alcotest.int "no positive alignment" 0 a.Pairwise.score

let test_semiglobal () =
  (* query contained in a longer subject: no end-gap charges *)
  let a = Pairwise.align ~mode:Pairwise.Semiglobal ~matrix:dna1 ~gap:unit_gap
      ~query:"GGCC" ~subject:"AAAAGGCCAAAA" ()
  in
  check Alcotest.int "full query aligned free of end gaps" 4 a.Pairwise.score;
  check Alcotest.int "subject offset" 4 a.Pairwise.subject_start

let test_affine_gap_preference () =
  (* affine gaps should prefer one long gap over two short ones *)
  let gap = { Scoring.open_penalty = 4; extend_penalty = 1 } in
  let a = Pairwise.align ~mode:Pairwise.Global ~matrix:dna1 ~gap
      ~query:"ACGTACGTACGT" ~subject:"ACGTACGT" ()
  in
  (* 8 matches - (4 + 4*1) = 0 for one length-4 gap *)
  check Alcotest.int "one affine gap" 0 a.Pairwise.score;
  (* the gap should be contiguous in the subject row *)
  let gap_runs s =
    let runs = ref 0 and in_gap = ref false in
    String.iter
      (fun c ->
        if c = '-' then begin
          if not !in_gap then incr runs;
          in_gap := true
        end
        else in_gap := false)
      s;
    !runs
  in
  check Alcotest.int "contiguous gap" 1 (gap_runs a.Pairwise.aligned_subject)

let test_score_only_agrees () =
  let cases =
    [ ("ACGTACGT", "ACGTTCGT"); ("AAAA", "CCCC"); ("GATTACA", "GCATGCT");
      ("ACGTACGTACGT", "ACGT"); ("", "ACG") ]
  in
  List.iter
    (fun (q, s) ->
      List.iter
        (fun mode ->
          let full = Pairwise.align ~mode ~matrix:dna1 ~gap:unit_gap ~query:q ~subject:s () in
          let fast = Pairwise.score_only ~mode ~matrix:dna1 ~gap:unit_gap ~query:q ~subject:s () in
          check Alcotest.int
            (Printf.sprintf "score_only agrees on %s/%s" q s)
            full.Pairwise.score fast)
        [ Pairwise.Global; Pairwise.Local; Pairwise.Semiglobal ])
    cases

let test_banded_score () =
  let rng = Genalg_synth.Rng.make 99 in
  for _ = 1 to 20 do
    let q = Genalg_synth.Seqgen.dna_string rng (40 + Genalg_synth.Rng.int rng 40) in
    let s =
      Genalg_gdt.Sequence.to_string
        (Genalg_synth.Seqgen.mutate rng ~rate:0.1 (Genalg_gdt.Sequence.dna q))
    in
    let full =
      Pairwise.score_only ~mode:Pairwise.Global ~matrix:dna1 ~gap:unit_gap ~query:q
        ~subject:s ()
    in
    (* a full-width band reproduces the exact global score *)
    let wide =
      Pairwise.banded_score ~band:(max (String.length q) (String.length s))
        ~matrix:dna1 ~gap:unit_gap ~query:q ~subject:s ()
    in
    check Alcotest.int "wide band = full DP" full wide;
    (* substitution-only divergence keeps the path on the diagonal *)
    let narrow =
      Pairwise.banded_score ~band:2 ~matrix:dna1 ~gap:unit_gap ~query:q ~subject:s ()
    in
    check Alcotest.bool "narrow band is a lower bound" true (narrow <= full)
  done;
  Alcotest.check_raises "band below length difference"
    (Invalid_argument "Pairwise.banded_score: band narrower than the length difference")
    (fun () -> ignore (Pairwise.banded_score ~band:1 ~query:"AAAA" ~subject:"A" ()))

let test_banded_equal_on_substitutions () =
  (* identical-length sequences differing only by substitutions: even a
     zero-width band finds the optimal (diagonal) path *)
  let q = "ACGTACGTACGTACGT" in
  let s = "ACGAACGTACTTACGT" in
  let full = Pairwise.score_only ~mode:Pairwise.Global ~matrix:dna1 ~gap:unit_gap ~query:q ~subject:s () in
  let banded = Pairwise.banded_score ~band:0 ~matrix:dna1 ~gap:unit_gap ~query:q ~subject:s () in
  check Alcotest.int "diagonal band suffices" full banded

let test_protein_alignment () =
  let a = Pairwise.align ~mode:Pairwise.Global ~matrix:Scoring.blosum62
      ~query:"HEAGAWGHEE" ~subject:"HEAGAWGHEE" ()
  in
  check Alcotest.bool "self-alignment positive" true (a.Pairwise.score > 0);
  check (Alcotest.float 1e-9) "identity 1" 1. (Pairwise.identity a)

(* ---- LCS / diff ------------------------------------------------------ *)

let chars s = Array.init (String.length s) (String.get s)

let test_lcs_length () =
  check Alcotest.int "classic" 4
    (Lcs.length ~equal:Char.equal (chars "ABCBDAB") (chars "BDCABA"));
  check Alcotest.int "identical" 5 (Lcs.length ~equal:Char.equal (chars "HELLO") (chars "HELLO"));
  check Alcotest.int "disjoint" 0 (Lcs.length ~equal:Char.equal (chars "AAA") (chars "BBB"));
  check Alcotest.int "empty" 0 (Lcs.length ~equal:Char.equal (chars "") (chars "ABC"))

let test_diff_roundtrip () =
  let cases =
    [ ("ABCBDAB", "BDCABA"); ("", "ABC"); ("ABC", ""); ("SAME", "SAME");
      ("KITTEN", "SITTING"); ("A", "B") ]
  in
  List.iter
    (fun (a, b) ->
      let script = Lcs.diff ~equal:Char.equal (chars a) (chars b) in
      match Lcs.apply script (chars a) with
      | Some result ->
          check Alcotest.string
            (Printf.sprintf "apply(diff %s %s)" a b)
            b
            (String.init (Array.length result) (Array.get result))
      | None -> Alcotest.failf "script for %s -> %s did not apply" a b)
    cases

let test_diff_keeps_lcs () =
  let script = Lcs.diff ~equal:Char.equal (chars "ABCBDAB") (chars "BDCABA") in
  let keeps =
    List.length (List.filter (function Lcs.Keep _ -> true | _ -> false) script)
  in
  check Alcotest.int "keeps = LCS length" 4 keeps

let test_diff_edit_distance () =
  let script = Lcs.diff ~equal:Char.equal (chars "KITTEN") (chars "SITTING") in
  (* LCS edit distance (no substitution op): 2*7 - ... ; KITTEN/SITTING LCS=ITTN?
     lcs("KITTEN","SITTING") = "ITTN" length 4 -> dist = 6+7-2*4 = 5 *)
  check Alcotest.int "insert+delete count" 5 (Lcs.edit_distance_of script)

let test_lcs_subsequence () =
  let l = Lcs.lcs ~equal:Char.equal (chars "ABCBDAB") (chars "BDCABA") in
  check Alcotest.int "lcs length" 4 (List.length l)

(* ---- distances -------------------------------------------------------- *)

let test_levenshtein () =
  check Alcotest.int "kitten/sitting" 3 (Distance.levenshtein "kitten" "sitting");
  check Alcotest.int "identical" 0 (Distance.levenshtein "abc" "abc");
  check Alcotest.int "to empty" 3 (Distance.levenshtein "abc" "");
  check Alcotest.int "symmetric" (Distance.levenshtein "abcd" "dcba")
    (Distance.levenshtein "dcba" "abcd")

let test_hamming () =
  check (Alcotest.option Alcotest.int) "two diffs" (Some 2) (Distance.hamming "ACGT" "AGGA");
  check (Alcotest.option Alcotest.int) "length mismatch" None (Distance.hamming "AC" "ACG")

let test_similarity () =
  check (Alcotest.float 1e-9) "identical" 1. (Distance.similarity "abc" "abc");
  check (Alcotest.float 1e-9) "empty" 1. (Distance.similarity "" "");
  check (Alcotest.float 1e-9) "disjoint" 0. (Distance.similarity "aaa" "bbb")

(* ---- blast ------------------------------------------------------------ *)

let test_blast_finds_exact () =
  let db = Blast.make_db ~k:5 [ ("s1", "AAAAAAAAAA"); ("s2", "CCGGTTACGGTACCA") ] in
  check Alcotest.int "db size" 2 (Blast.db_size db);
  let hits = Blast.search ~min_score:10 db ~query:"CCGGTTACGGTACCA" in
  check Alcotest.bool "finds itself" true
    (List.exists (fun h -> h.Blast.subject_id = "s2") hits);
  check Alcotest.bool "no hit on the homopolymer" true
    (not (List.exists (fun h -> h.Blast.subject_id = "s1") hits))

let test_blast_homolog () =
  let rng = Genalg_synth.Rng.make 7 in
  let target = Genalg_synth.Seqgen.dna_string rng 400 in
  let decoys =
    List.init 20 (fun i ->
        (Printf.sprintf "decoy%d" i, Genalg_synth.Seqgen.dna_string rng 400))
  in
  let db = Blast.make_db ~k:11 (("target", target) :: decoys) in
  let homolog =
    Genalg_gdt.Sequence.to_string
      (Genalg_synth.Seqgen.homolog rng ~identity:0.9
         (Genalg_gdt.Sequence.dna target))
  in
  match Blast.best_hit ~min_score:20 db ~query:homolog with
  | Some hit -> check Alcotest.string "homolog maps to target" "target" hit.Blast.subject_id
  | None -> Alcotest.fail "no hit for a 90%-identity homolog"

let test_blast_gapped_refinement () =
  let db = Blast.make_db ~k:5 [ ("s", "AAAACCCCGGGGTTTTAAAACCCC") ] in
  let hits = Blast.search ~min_score:8 ~gapped:true db ~query:"CCCCGGGGTTTT" in
  match hits with
  | h :: _ ->
      check Alcotest.bool "gapped alignment present" true (h.Blast.gapped <> None)
  | [] -> Alcotest.fail "no hits"

let test_blast_rejects_bad_db () =
  Alcotest.check_raises "duplicate ids"
    (Invalid_argument "Blast.make_db: duplicate subject ids") (fun () ->
      ignore (Blast.make_db [ ("a", "ACGT"); ("a", "ACGT") ]))

(* ---- oracle: full-matrix references ---------------------------------- *)

(* Textbook dynamic programs written here, not in lib/align: each fills
   its whole matrix and takes only [Scoring.score], the scoring spec, from
   the library. [neg] stands for minus infinity; sums with it stay far
   below every real score. *)

let neg = min_int / 4
let max3 a b c = Int.max a (Int.max b c)

(* Gotoh with affine gaps. [m], [x], [y] end in a letter pair, a query
   letter against a gap, and a subject letter against a gap. Local starts
   anywhere and floors [m] at 0; Semiglobal leaves the subject's end gaps
   free; [band] blanks every cell with |i - j| > band (Global only). *)
let ref_gotoh ?band mode matrix (gap : Scoring.gap) q s =
  let n = String.length q and w = String.length s in
  let o = gap.Scoring.open_penalty + gap.Scoring.extend_penalty
  and e = gap.Scoring.extend_penalty in
  let m = Array.make_matrix (n + 1) (w + 1) neg
  and x = Array.make_matrix (n + 1) (w + 1) neg
  and y = Array.make_matrix (n + 1) (w + 1) neg in
  let outside i j = match band with Some b -> abs (i - j) > b | None -> false in
  let local = mode = Pairwise.Local and global = mode = Pairwise.Global in
  for i = 0 to n do
    for j = 0 to w do
      if outside i j then ()
      else if i = 0 && j = 0 then m.(0).(0) <- 0
      else if i = 0 then begin
        if global then y.(0).(j) <- -(o + ((j - 1) * e)) else m.(0).(j) <- 0
      end
      else if j = 0 then begin
        if local then m.(i).(0) <- 0 else x.(i).(0) <- -(o + ((i - 1) * e))
      end
      else begin
        let diag = max3 m.(i - 1).(j - 1) x.(i - 1).(j - 1) y.(i - 1).(j - 1) in
        let sc = diag + Scoring.score matrix q.[i - 1] s.[j - 1] in
        m.(i).(j) <- (if local then Int.max 0 sc else sc);
        x.(i).(j) <- max3 (m.(i - 1).(j) - o) (y.(i - 1).(j) - o) (x.(i - 1).(j) - e);
        y.(i).(j) <- max3 (m.(i).(j - 1) - o) (x.(i).(j - 1) - o) (y.(i).(j - 1) - e)
      end
    done
  done;
  let best_at i j = max3 m.(i).(j) x.(i).(j) y.(i).(j) in
  match mode with
  | Pairwise.Global -> best_at n w
  | Pairwise.Semiglobal ->
      let b = ref neg in
      for j = 0 to w do b := Int.max !b (best_at n j) done;
      !b
  | Pairwise.Local ->
      let b = ref 0 in
      Array.iter (Array.iter (fun v -> b := Int.max !b v)) m;
      !b

let ref_levenshtein a b =
  let n = String.length a and w = String.length b in
  let d = Array.make_matrix (n + 1) (w + 1) 0 in
  for i = 0 to n do d.(i).(0) <- i done;
  for j = 0 to w do d.(0).(j) <- j done;
  for i = 1 to n do
    for j = 1 to w do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      d.(i).(j) <-
        Int.min (Int.min (d.(i - 1).(j) + 1) (d.(i).(j - 1) + 1)) (d.(i - 1).(j - 1) + cost)
    done
  done;
  d.(n).(w)

let ref_lcs_length a b =
  let n = String.length a and w = String.length b in
  let l = Array.make_matrix (n + 1) (w + 1) 0 in
  for i = 1 to n do
    for j = 1 to w do
      l.(i).(j) <-
        (if a.[i - 1] = b.[j - 1] then l.(i - 1).(j - 1) + 1
         else Int.max l.(i - 1).(j) l.(i).(j - 1))
    done
  done;
  l.(n).(w)

(* [Ops.resembles] as specified: the local score under the default gap,
   over the smaller of the two self-scores summed letter by letter,
   clamped to [0, 1]. *)
let ref_resembles a b =
  let module Sq = Genalg_gdt.Sequence in
  let matrix =
    if Sq.alphabet a = Sq.Protein then Scoring.blosum62 else Scoring.dna_default
  in
  let sa = Sq.to_string a and sb = Sq.to_string b in
  if sa = "" || sb = "" then 0.
  else begin
    let self str =
      let t = ref 0 in
      String.iter (fun c -> t := !t + Scoring.score matrix c c) str;
      !t
    in
    let norm = Int.min (self sa) (self sb) in
    if norm <= 0 then 0.
    else
      Float.min 1.
        (Float.max 0.
           (float_of_int (ref_gotoh Pairwise.Local matrix Scoring.default_gap sa sb)
           /. float_of_int norm))
  end

module Q = QCheck2

let oracle_test ~count ~name ~print gen prop =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 19 |])
    (Q.Test.make ~count ~name ~print gen prop)

let letters_gen letters =
  Q.Gen.(
    string_size ~gen:(map (String.get letters) (int_bound (String.length letters - 1)))
      (int_bound 40))

(* ACGT in both cases, IUPAC codes, a stop and digits: letters every
   matrix scores, letters only some do, and letters none does *)
let kernel_letters = "ACGTacgtNRY*0123456789"

let matrices =
  [| Scoring.dna_default; Scoring.blosum62; Scoring.pam250; Scoring.dna ~match_:5 ~mismatch:(-4) |]

let gaps =
  [|
    Scoring.default_gap;
    Scoring.linear_gap 2;
    { Scoring.open_penalty = 0; extend_penalty = 1 };
    { Scoring.open_penalty = 4; extend_penalty = 0 };
  |]

let pairwise_oracle =
  let gen =
    Q.Gen.(
      quad (int_bound (Array.length matrices - 1)) (int_bound (Array.length gaps - 1))
        (pair (letters_gen kernel_letters) (letters_gen kernel_letters))
        (int_bound 3))
  in
  let print (mi, gi, (q, s), slack) =
    Printf.sprintf "matrix %s, gap %d/%d, query %S, subject %S, band slack %d"
      (Scoring.name matrices.(mi)) gaps.(gi).Scoring.open_penalty
      gaps.(gi).Scoring.extend_penalty q s slack
  in
  oracle_test ~count:400 ~name:"pairwise kernels = full-matrix Gotoh" ~print gen
    (fun (mi, gi, (q, s), slack) ->
      let matrix = matrices.(mi) and gap = gaps.(gi) in
      List.for_all
        (fun mode ->
          let want = ref_gotoh mode matrix gap q s in
          Pairwise.score_only ~mode ~matrix ~gap ~query:q ~subject:s () = want
          && (Pairwise.align ~mode ~matrix ~gap ~query:q ~subject:s ()).Pairwise.score = want)
        [ Pairwise.Global; Pairwise.Local; Pairwise.Semiglobal ]
      (* a band at least as wide as the longer string is the full DP; a
         narrower one (still reaching the corner) is the banded DP *)
      && Pairwise.banded_score
           ~band:(Int.max (String.length q) (String.length s) + slack)
           ~matrix ~gap ~query:q ~subject:s ()
         = ref_gotoh Pairwise.Global matrix gap q s
      &&
      let band = abs (String.length q - String.length s) + slack in
      Pairwise.banded_score ~band ~matrix ~gap ~query:q ~subject:s ()
      = ref_gotoh ~band Pairwise.Global matrix gap q s)

let distance_oracle =
  oracle_test ~count:400 ~name:"levenshtein and LCS length = full-matrix DP"
    ~print:(fun (a, b) -> Printf.sprintf "%S %S" a b)
    Q.Gen.(pair (letters_gen kernel_letters) (letters_gen kernel_letters))
    (fun (a, b) ->
      Distance.levenshtein a b = ref_levenshtein a b
      && Lcs.length ~equal:Char.equal (chars a) (chars b) = ref_lcs_length a b)

let resembles_oracle =
  let module Sq = Genalg_gdt.Sequence in
  let seq_pair =
    Q.Gen.(
      bool >>= fun protein ->
      let letters, alphabet =
        if protein then ("ACDEFGHIKLMNPQRSTVWYBZX*acdw", Sq.Protein)
        else ("ACGTacgtNRY", Sq.Dna)
      in
      map
        (fun (a, b) -> (Sq.of_string_exn alphabet a, Sq.of_string_exn alphabet b))
        (pair (letters_gen letters) (letters_gen letters)))
  in
  oracle_test ~count:400 ~name:"Ops.resembles = naive normalized score"
    ~print:(fun (a, b) -> Printf.sprintf "%S %S" (Sq.to_string a) (Sq.to_string b))
    seq_pair
    (fun (a, b) -> Genalg_core.Ops.resembles a b = ref_resembles a b)

let suites =
  [
    ( "align.scoring",
      [
        tc "blosum62" `Quick test_blosum62_values;
        tc "pam250" `Quick test_pam250_values;
        tc "dna" `Quick test_dna_scoring;
      ] );
    ( "align.pairwise",
      [
        tc "global identical" `Quick test_global_identical;
        tc "global gap" `Quick test_global_gap;
        tc "global empty" `Quick test_global_empty;
        tc "local island" `Quick test_local_finds_island;
        tc "local none" `Quick test_local_no_similarity;
        tc "semiglobal" `Quick test_semiglobal;
        tc "affine gaps" `Quick test_affine_gap_preference;
        tc "score_only agrees" `Quick test_score_only_agrees;
        tc "banded score" `Quick test_banded_score;
        tc "banded diagonal" `Quick test_banded_equal_on_substitutions;
        tc "protein" `Quick test_protein_alignment;
      ] );
    ( "align.lcs",
      [
        tc "length" `Quick test_lcs_length;
        tc "diff roundtrip" `Quick test_diff_roundtrip;
        tc "keeps lcs" `Quick test_diff_keeps_lcs;
        tc "edit distance" `Quick test_diff_edit_distance;
        tc "subsequence" `Quick test_lcs_subsequence;
      ] );
    ( "align.distance",
      [
        tc "levenshtein" `Quick test_levenshtein;
        tc "hamming" `Quick test_hamming;
        tc "similarity" `Quick test_similarity;
      ] );
    ( "align.blast",
      [
        tc "exact" `Quick test_blast_finds_exact;
        tc "homolog" `Quick test_blast_homolog;
        tc "gapped" `Quick test_blast_gapped_refinement;
        tc "bad db" `Quick test_blast_rejects_bad_db;
      ] );
    ("align.oracle", [ pairwise_oracle; distance_oracle; resembles_oracle ]);
  ]
