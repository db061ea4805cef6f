type primary = {
  gene_id : string;
  rna : Sequence.t;
  exons : (int * int) list;
  code : Genetic_code.t;
}

type mrna = {
  gene_id : string;
  rna : Sequence.t;
  code : Genetic_code.t;
}

let ( let* ) = Result.bind

let require_rna where seq =
  match Sequence.alphabet seq with
  | Sequence.Rna -> Ok ()
  | Sequence.Dna | Sequence.Protein -> Error (where ^ ": sequence must be RNA")

let make_primary ~gene_id ~exons ~code rna =
  let* () = require_rna "Transcript.primary" rna in
  let total = Sequence.length rna in
  let rec check prev_end = function
    | [] -> Ok { gene_id; rna; exons; code }
    | (off, len) :: rest ->
        if len <= 0 || off < prev_end || off + len > total then
          Error "Transcript.primary: invalid exon spans"
        else check (off + len) rest
  in
  check 0 exons

let make_mrna ~gene_id ~code rna =
  let* () = require_rna "Transcript.mrna" rna in
  Ok { gene_id; rna; code }

let get_ok = function Ok v -> v | Error msg -> invalid_arg msg
let primary ~gene_id ~exons ~code rna = get_ok (make_primary ~gene_id ~exons ~code rna)
let mrna ~gene_id ~code rna = get_ok (make_mrna ~gene_id ~code rna)

let primary_length (t : primary) = Sequence.length t.rna
let mrna_length (t : mrna) = Sequence.length t.rna

let equal_primary (a : primary) (b : primary) =
  a.gene_id = b.gene_id && Sequence.equal a.rna b.rna && a.exons = b.exons
  && Genetic_code.id a.code = Genetic_code.id b.code

let equal_mrna (a : mrna) (b : mrna) =
  a.gene_id = b.gene_id && Sequence.equal a.rna b.rna
  && Genetic_code.id a.code = Genetic_code.id b.code

let pp_primary ppf (t : primary) =
  Format.fprintf ppf "pre-mRNA of %s: %d nt, %d exon(s)" t.gene_id (primary_length t)
    (List.length t.exons)

let pp_mrna ppf (t : mrna) =
  Format.fprintf ppf "mRNA of %s: %d nt" t.gene_id (mrna_length t)
