open Genalg_gdt

let add_int buf i = Buffer.add_int64_le buf (Int64.of_int i)

let add_sized buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_seq buf seq =
  let b = Sequence.to_bytes seq in
  add_int buf (Bytes.length b);
  Buffer.add_bytes buf b

module R = Genalg_storage.Byte_reader

let read_seq r =
  match Sequence.of_bytes (R.bytes r (R.int r)) with
  | Ok s -> s
  | Error msg -> R.fail msg

let with_reader data f =
  R.run data (fun r ->
      let v = f r in
      R.expect_end r;
      v)

let read_exons r =
  List.init (R.count r) (fun _ ->
      let off = R.int r in
      (off, R.int r))

let add_exons buf exons =
  add_int buf (List.length exons);
  List.iter
    (fun (off, len) ->
      add_int buf off;
      add_int buf len)
    exons

let read_code r =
  let id = R.int r in
  match Genetic_code.by_id id with
  | Some c -> c
  | None -> R.fail (Printf.sprintf "unknown genetic code %d" id)

(* ---- gene ------------------------------------------------------- *)

let encode_gene (g : Gene.t) =
  let buf = Buffer.create 128 in
  add_sized buf g.Gene.id;
  add_sized buf g.Gene.name;
  add_seq buf g.Gene.dna;
  add_exons buf g.Gene.exons;
  add_int buf (Genetic_code.id g.Gene.code);
  Buffer.to_bytes buf

let decode_gene data =
  Result.join
    (with_reader data (fun r ->
         let id = R.string r in
         let name = R.string r in
         let dna = read_seq r in
         let exons = read_exons r in
         let code = read_code r in
         Gene.make ~name ~exons ~code ~id dna))

(* ---- protein ----------------------------------------------------- *)

let encode_protein (p : Protein.t) =
  let buf = Buffer.create 128 in
  add_sized buf p.Protein.id;
  add_sized buf p.Protein.name;
  add_seq buf p.Protein.residues;
  Buffer.to_bytes buf

let decode_protein data =
  Result.join
    (with_reader data (fun r ->
         let id = R.string r in
         let name = R.string r in
         let residues = read_seq r in
         Protein.make ~name ~id residues))

(* ---- transcripts -------------------------------------------------- *)

let encode_primary (p : Transcript.primary) =
  let buf = Buffer.create 128 in
  add_sized buf p.Transcript.gene_id;
  add_seq buf p.Transcript.rna;
  add_exons buf p.Transcript.exons;
  add_int buf (Genetic_code.id p.Transcript.code);
  Buffer.to_bytes buf

let decode_primary data =
  Result.join
    (with_reader data (fun r ->
         let gene_id = R.string r in
         let rna = read_seq r in
         let exons = read_exons r in
         let code = read_code r in
         Transcript.make_primary ~gene_id ~exons ~code rna))

let encode_mrna (m : Transcript.mrna) =
  let buf = Buffer.create 128 in
  add_sized buf m.Transcript.gene_id;
  add_seq buf m.Transcript.rna;
  add_int buf (Genetic_code.id m.Transcript.code);
  Buffer.to_bytes buf

let decode_mrna data =
  Result.join
    (with_reader data (fun r ->
         let gene_id = R.string r in
         let rna = read_seq r in
         let code = read_code r in
         Transcript.make_mrna ~gene_id ~code rna))
