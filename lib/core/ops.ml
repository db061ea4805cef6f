open Genalg_gdt

(* ------------------------------------------------------------------ *)
(* Central dogma                                                       *)

let transcribe (g : Gene.t) =
  Transcript.primary ~gene_id:g.Gene.id ~exons:g.Gene.exons ~code:g.Gene.code
    (Sequence.to_rna g.Gene.dna)

let splice (p : Transcript.primary) =
  let parts =
    List.map (fun (off, len) -> Sequence.sub p.Transcript.rna ~pos:off ~len)
      p.Transcript.exons
  in
  let rna =
    match parts with [] -> Sequence.empty Sequence.Rna | _ -> Sequence.concat parts
  in
  Transcript.mrna ~gene_id:p.Transcript.gene_id ~code:p.Transcript.code rna

let splice_dropping (p : Transcript.primary) skip_index =
  let exons = List.filteri (fun i _ -> i <> skip_index) p.Transcript.exons in
  let parts =
    List.map (fun (off, len) -> Sequence.sub p.Transcript.rna ~pos:off ~len) exons
  in
  let rna =
    match parts with [] -> Sequence.empty Sequence.Rna | _ -> Sequence.concat parts
  in
  Transcript.mrna ~gene_id:p.Transcript.gene_id ~code:p.Transcript.code rna

let splice_uncertain ?(confidence = 0.9) (p : Transcript.primary) =
  let canonical =
    { Uncertain.value = splice p; confidence; provenance = None }
  in
  let exon_count = List.length p.Transcript.exons in
  let variants =
    if exon_count < 3 then []
    else
      (* skipping a middle exon models the commonest alternative splicing *)
      List.init (exon_count - 2) (fun i ->
          {
            Uncertain.value = splice_dropping p (i + 1);
            confidence = (1. -. confidence) /. float_of_int (exon_count - 2);
            provenance = None;
          })
  in
  Uncertain.of_alternatives (canonical :: variants)

let codon_at seq i = String.init 3 (fun k -> Sequence.get seq (i + k))

let translate (m : Transcript.mrna) =
  let code = m.Transcript.code in
  let rna = m.Transcript.rna in
  let n = Sequence.length rna in
  let rec find_start i =
    if i + 3 > n then None
    else if Genetic_code.is_start_codon code (codon_at rna i) then Some i
    else find_start (i + 1)
  in
  match find_start 0 with
  | None -> Error (Printf.sprintf "mRNA of %s has no start codon" m.Transcript.gene_id)
  | Some start ->
      let buf = Buffer.create 64 in
      let rec loop i =
        if i + 3 > n then ()
        else
          let aa = Genetic_code.translate_codon code (codon_at rna i) in
          if Amino_acid.equal aa Amino_acid.Stop then ()
          else begin
            Buffer.add_char buf (Amino_acid.to_char aa);
            loop (i + 3)
          end
      in
      loop start;
      let residues = Sequence.protein (Buffer.contents buf) in
      Protein.make ~id:(m.Transcript.gene_id ^ "_p") ~name:m.Transcript.gene_id
        residues

let translate_frame ?(code = Genetic_code.standard) ~frame seq =
  if frame < 0 || frame > 2 then invalid_arg "Ops.translate_frame: frame must be 0-2";
  (match Sequence.alphabet seq with
  | Sequence.Protein -> invalid_arg "Ops.translate_frame: protein input"
  | Sequence.Dna | Sequence.Rna -> ());
  let n = Sequence.length seq in
  let codons = (n - frame) / 3 in
  let buf = Buffer.create (max 0 codons) in
  for c = 0 to codons - 1 do
    let aa = Genetic_code.translate_codon code (codon_at seq (frame + (c * 3))) in
    Buffer.add_char buf (Amino_acid.to_char aa)
  done;
  Sequence.protein (Buffer.contents buf)

let reverse_transcribe seq =
  match Sequence.alphabet seq with
  | Sequence.Rna -> Sequence.to_dna seq
  | Sequence.Dna | Sequence.Protein ->
      invalid_arg "Ops.reverse_transcribe: input must be RNA"

let decode g = translate (splice (transcribe g))

(* ------------------------------------------------------------------ *)
(* Open reading frames                                                 *)

type strand = Forward | Reverse

type orf = { strand : strand; frame : int; start : int; length : int }

let orfs_of_strand ~code ~min_length ~strand seq =
  let n = Sequence.length seq in
  let found = ref [] in
  for frame = 0 to 2 do
    (* walk codons; an ORF opens at the first start codon after the last
       stop and closes at the next in-frame stop *)
    let open_start = ref (-1) in
    let c = ref frame in
    while !c + 3 <= n do
      let codon = codon_at seq !c in
      if !open_start < 0 then begin
        if Genetic_code.is_start_codon code codon then open_start := !c
      end
      else if Genetic_code.is_stop_codon code codon then begin
        let length = !c + 3 - !open_start in
        if length >= min_length then
          found := { strand; frame; start = !open_start; length } :: !found;
        open_start := -1
      end;
      c := !c + 3
    done
  done;
  !found

let find_orfs ?(code = Genetic_code.standard) ?(min_length = 90)
    ?both_strands seq =
  let alpha = Sequence.alphabet seq in
  (match alpha with
  | Sequence.Protein -> invalid_arg "Ops.find_orfs: protein input"
  | Sequence.Dna | Sequence.Rna -> ());
  let both =
    match both_strands with
    | Some b -> b && alpha = Sequence.Dna
    | None -> alpha = Sequence.Dna
  in
  let fwd = orfs_of_strand ~code ~min_length ~strand:Forward seq in
  let rev =
    if both then
      orfs_of_strand ~code ~min_length ~strand:Reverse (Sequence.reverse_complement seq)
    else []
  in
  List.sort
    (fun a b ->
      let c = Int.compare b.length a.length in
      if c <> 0 then c else Stdlib.compare (a.strand, a.frame, a.start) (b.strand, b.frame, b.start))
    (fwd @ rev)

let orf_sequence seq orf =
  let subject =
    match orf.strand with
    | Forward -> seq
    | Reverse -> Sequence.reverse_complement seq
  in
  Sequence.sub subject ~pos:orf.start ~len:orf.length

let orf_protein ?(code = Genetic_code.standard) seq orf =
  let nt = orf_sequence seq orf in
  let aa = translate_frame ~code ~frame:0 nt in
  (* drop the trailing stop *)
  let n = Sequence.length aa in
  if n > 0 && Sequence.get aa (n - 1) = '*' then Sequence.sub aa ~pos:0 ~len:(n - 1)
  else aa

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let gc_content seq =
  let n = Sequence.length seq in
  if n = 0 then 0.
  else float_of_int (Sequence.gc_count seq) /. float_of_int n

let melting_temperature seq =
  let n = Sequence.length seq in
  if n = 0 then 0.
  else begin
    let gc = Sequence.gc_count seq in
    let at = n - gc in
    if n <= 13 then float_of_int ((2 * at) + (4 * gc))
    else
      64.9 +. (41. *. ((float_of_int gc -. 16.4) /. float_of_int n))
  end

let codon_usage seq =
  (match Sequence.alphabet seq with
  | Sequence.Protein -> invalid_arg "Ops.codon_usage: protein input"
  | Sequence.Dna | Sequence.Rna -> ());
  let n = Sequence.length seq in
  let counts = Hashtbl.create 64 in
  let c = ref 0 in
  while !c + 3 <= n do
    let codon =
      String.map (function 'U' -> 'T' | ch -> ch) (codon_at seq !c)
    in
    Hashtbl.replace counts codon (1 + Option.value (Hashtbl.find_opt counts codon) ~default:0);
    c := !c + 3
  done;
  Hashtbl.fold (fun codon k acc -> (codon, k) :: acc) counts []
  |> List.sort (fun (c1, k1) (c2, k2) ->
         let c = Int.compare k2 k1 in
         if c <> 0 then c else String.compare c1 c2)

(* ------------------------------------------------------------------ *)
(* Restriction analysis                                                *)

type enzyme = { name : string; site : string; cut_offset : int }

let common_enzymes =
  [
    { name = "EcoRI"; site = "GAATTC"; cut_offset = 1 };
    { name = "BamHI"; site = "GGATCC"; cut_offset = 1 };
    { name = "HindIII"; site = "AAGCTT"; cut_offset = 1 };
    { name = "NotI"; site = "GCGGCCGC"; cut_offset = 2 };
    { name = "EcoRV"; site = "GATATC"; cut_offset = 3 };
    { name = "SmaI"; site = "CCCGGG"; cut_offset = 3 };
    { name = "PstI"; site = "CTGCAG"; cut_offset = 5 };
    { name = "KpnI"; site = "GGTACC"; cut_offset = 5 };
  ]

let enzyme_by_name name =
  List.find_opt
    (fun e -> String.lowercase_ascii e.name = String.lowercase_ascii name)
    common_enzymes

let restriction_sites enzyme seq = Sequence.find_all ~pattern:enzyme.site seq

let digest enzyme seq =
  let sites = restriction_sites enzyme seq in
  let cuts = List.map (fun s -> s + enzyme.cut_offset) sites in
  let n = Sequence.length seq in
  let rec fragments start = function
    | [] -> if start < n then [ Sequence.sub seq ~pos:start ~len:(n - start) ] else []
    | cut :: rest ->
        if cut <= start || cut >= n then fragments start rest
        else Sequence.sub seq ~pos:start ~len:(cut - start) :: fragments cut rest
  in
  match fragments 0 cuts with [] -> [ seq ] | frags -> frags

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

let matrix_for a b =
  let open Genalg_align in
  match Sequence.alphabet a, Sequence.alphabet b with
  | Sequence.Protein, Sequence.Protein -> Scoring.blosum62
  | (Sequence.Dna | Sequence.Rna), (Sequence.Dna | Sequence.Rna) -> Scoring.dna_default
  | _ ->
      invalid_arg "Ops: cannot compare protein with nucleotide sequences"

(* The score of [s] aligned with itself: each distinct letter is scored
   once and weighted by its count. *)
let self_score matrix s =
  let counts = Array.make 256 0 in
  String.iter (fun c -> counts.(Char.code c) <- counts.(Char.code c) + 1) s;
  let total = ref 0 in
  Array.iteri
    (fun k n ->
      if n > 0 then
        let c = Char.chr k in
        total := !total + (n * Genalg_align.Scoring.score matrix c c))
    counts;
  !total

let resembles a b =
  let matrix = matrix_for a b in
  if Sequence.length a = 0 || Sequence.length b = 0 then 0.
  else begin
    let sa = Sequence.to_string a and sb = Sequence.to_string b in
    let score =
      Genalg_align.Pairwise.score_only ~mode:Genalg_align.Pairwise.Local ~matrix
        ~query:sa ~subject:sb ()
    in
    let norm = Int.min (self_score matrix sa) (self_score matrix sb) in
    if norm <= 0 then 0.
    else begin
      let r = float_of_int score /. float_of_int norm in
      if r < 0. then 0. else if r > 1. then 1. else r
    end
  end

let identity a b =
  let matrix = matrix_for a b in
  if Sequence.length a = 0 && Sequence.length b = 0 then 1.
  else begin
    let aln =
      Genalg_align.Pairwise.align ~mode:Genalg_align.Pairwise.Global ~matrix
        ~query:(Sequence.to_string a) ~subject:(Sequence.to_string b) ()
    in
    Genalg_align.Pairwise.identity aln
  end

let edit_distance a b =
  Genalg_align.Distance.levenshtein (Sequence.to_string a) (Sequence.to_string b)

(* ------------------------------------------------------------------ *)
(* Further analysis                                                    *)

(* IUPAC letter for a non-empty set of concrete DNA bases *)
let iupac_of_bases bases =
  let bit = function
    | Nucleotide.A -> 1
    | Nucleotide.C -> 2
    | Nucleotide.G -> 4
    | Nucleotide.T -> 8
    | _ -> 0
  in
  let mask = List.fold_left (fun acc b -> acc lor bit b) 0 bases in
  [| '?'; 'A'; 'C'; 'M'; 'G'; 'R'; 'S'; 'V'; 'T'; 'W'; 'Y'; 'H'; 'K'; 'D'; 'B'; 'N' |].(mask)

let back_translate ?(code = Genetic_code.standard) protein_seq =
  (match Sequence.alphabet protein_seq with
  | Sequence.Protein -> ()
  | Sequence.Dna | Sequence.Rna ->
      invalid_arg "Ops.back_translate: input must be a protein sequence");
  let buf = Buffer.create (3 * Sequence.length protein_seq) in
  Sequence.iter
    (fun c ->
      let aa = Amino_acid.of_char_exn c in
      let codons = Genetic_code.back_translate code aa in
      if codons = [] then
        invalid_arg
          (Printf.sprintf "Ops.back_translate: residue %c has no codons" c);
      for pos = 0 to 2 do
        let bases =
          List.sort_uniq Stdlib.compare
            (List.map (fun codon -> Nucleotide.of_char_exn codon.[pos]) codons)
        in
        Buffer.add_char buf (iupac_of_bases bases)
      done)
    protein_seq;
  Sequence.dna (Buffer.contents buf)

let longest_repeat seq =
  let sa = Genalg_seqindex.Suffix_array.build (Sequence.to_string seq) in
  Genalg_seqindex.Suffix_array.longest_repeat sa
