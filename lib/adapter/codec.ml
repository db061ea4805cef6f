open Genalg_gdt

let add_int buf i = Buffer.add_int64_le buf (Int64.of_int i)

let add_sized buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_seq buf seq =
  let b = Sequence.to_bytes seq in
  add_int buf (Bytes.length b);
  Buffer.add_bytes buf b

exception Corrupt of string

type reader = { data : bytes; mutable pos : int }

(* [n - remaining], not [pos + n], which a length near [max_int] wraps
   negative *)
let need r n = if n > Bytes.length r.data - r.pos then raise (Corrupt "truncated")

let read_int r =
  need r 8;
  let v = Int64.to_int (Bytes.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  if v < 0 then raise (Corrupt "negative length");
  v

let read_sized r =
  let n = read_int r in
  need r n;
  let s = Bytes.sub_string r.data r.pos n in
  r.pos <- r.pos + n;
  s

let read_seq r =
  let n = read_int r in
  need r n;
  let b = Bytes.sub r.data r.pos n in
  r.pos <- r.pos + n;
  match Sequence.of_bytes b with
  | Ok s -> s
  | Error msg -> raise (Corrupt msg)

let with_reader data f =
  let r = { data; pos = 0 } in
  match f r with
  | v ->
      if r.pos <> Bytes.length data then Error "trailing bytes"
      else Ok v
  | exception Corrupt msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let read_exons r =
  let n = read_int r in
  List.init n (fun _ ->
      let off = read_int r in
      let len = read_int r in
      (off, len))

let add_exons buf exons =
  add_int buf (List.length exons);
  List.iter
    (fun (off, len) ->
      add_int buf off;
      add_int buf len)
    exons

let read_code r =
  let id = read_int r in
  match Genetic_code.by_id id with
  | Some c -> c
  | None -> raise (Corrupt (Printf.sprintf "unknown genetic code %d" id))

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
         let id = read_sized r in
         let name = read_sized r in
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
         let id = read_sized r in
         let name = read_sized r in
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
  with_reader data (fun r ->
      let gene_id = read_sized r in
      let rna = read_seq r in
      let exons = read_exons r in
      let code = read_code r in
      Transcript.primary ~gene_id ~exons ~code rna)

let encode_mrna (m : Transcript.mrna) =
  let buf = Buffer.create 128 in
  add_sized buf m.Transcript.gene_id;
  add_seq buf m.Transcript.rna;
  add_int buf (Genetic_code.id m.Transcript.code);
  Buffer.to_bytes buf

let decode_mrna data =
  with_reader data (fun r ->
      let gene_id = read_sized r in
      let rna = read_seq r in
      let code = read_code r in
      Transcript.mrna ~gene_id ~code rna)
