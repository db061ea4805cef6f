open Genalg_gdt
module Value = Genalg_core.Value
module Sort = Genalg_core.Sort

let ( let* ) = Result.bind

let code_attr code = ("code", string_of_int (Genetic_code.id code))

let exon_elements exons =
  List.map
    (fun (off, len) ->
      Xml.element "exon"
        ~attrs:[ ("offset", string_of_int off); ("length", string_of_int len) ])
    exons

let sequence_element name seq = Xml.element name ~children:[ Xml.text (Sequence.to_string seq) ]

let feature_element (f : Feature.t) =
  Xml.element "feature"
    ~attrs:
      [
        ("kind", Feature.kind_to_string f.Feature.kind);
        ("location", Location.to_string f.Feature.location);
      ]
    ~children:
      (List.map
         (fun (k, v) ->
           Xml.element "qualifier" ~attrs:[ ("key", k) ] ~children:[ Xml.text v ])
         f.Feature.qualifiers)

let rec to_xml = function
  | Value.VBool b -> Xml.element "bool" ~children:[ Xml.text (string_of_bool b) ]
  | Value.VInt i -> Xml.element "int" ~children:[ Xml.text (string_of_int i) ]
  | Value.VFloat f ->
      Xml.element "float" ~children:[ Xml.text (Printf.sprintf "%h" f) ]
  | Value.VString s -> Xml.element "string" ~children:[ Xml.text s ]
  | Value.VNucleotide b ->
      Xml.element "nucleotide" ~children:[ Xml.text (String.make 1 (Nucleotide.to_char b)) ]
  | Value.VAmino_acid a ->
      Xml.element "aminoacid" ~children:[ Xml.text (String.make 1 (Amino_acid.to_char a)) ]
  | Value.VDna s -> sequence_element "dna" s
  | Value.VRna s -> sequence_element "rna" s
  | Value.VProtein_seq s -> sequence_element "proteinseq" s
  | Value.VGene g ->
      Xml.element "gene"
        ~attrs:[ ("id", g.Gene.id); ("name", g.Gene.name); code_attr g.Gene.code ]
        ~children:(sequence_element "dna" g.Gene.dna :: exon_elements g.Gene.exons)
  | Value.VPrimary p ->
      Xml.element "primarytranscript"
        ~attrs:[ ("gene-id", p.Transcript.gene_id); code_attr p.Transcript.code ]
        ~children:(sequence_element "rna" p.Transcript.rna :: exon_elements p.Transcript.exons)
  | Value.VMrna m ->
      Xml.element "mrna"
        ~attrs:[ ("gene-id", m.Transcript.gene_id); code_attr m.Transcript.code ]
        ~children:[ sequence_element "rna" m.Transcript.rna ]
  | Value.VProtein p ->
      Xml.element "protein"
        ~attrs:[ ("id", p.Protein.id); ("name", p.Protein.name) ]
        ~children:[ sequence_element "proteinseq" p.Protein.residues ]
  | Value.VChromosome c ->
      Xml.element "chromosome"
        ~attrs:[ ("name", c.Chromosome.name) ]
        ~children:
          (sequence_element "dna" c.Chromosome.dna
          :: List.map feature_element c.Chromosome.features)
  | Value.VGenome g ->
      Xml.element "genome"
        ~attrs:
          [
            ("organism", g.Genome.organism);
            ("taxonomy", String.concat ";" g.Genome.taxonomy);
          ]
        ~children:
          (List.map (fun c -> to_xml (Value.VChromosome c)) g.Genome.chromosomes)
  | Value.VList (elt, values) ->
      Xml.element "list"
        ~attrs:[ ("sort", Sort.to_string elt) ]
        ~children:(List.map to_xml values)
  | Value.VUncertain (elt, u) ->
      Xml.element "uncertain"
        ~attrs:[ ("sort", Sort.to_string elt) ]
        ~children:
          (List.map
             (fun (alt : Value.t Uncertain.alternative) ->
               let prov_attrs =
                 match alt.Uncertain.provenance with
                 | None -> []
                 | Some p ->
                     [
                       ("source", p.Provenance.source);
                       ("record", p.Provenance.record_id);
                       ("source-version", string_of_int p.Provenance.version);
                     ]
               in
               Xml.element "alternative"
                 ~attrs:
                   (("confidence", Printf.sprintf "%h" alt.Uncertain.confidence)
                   :: prov_attrs)
                 ~children:[ to_xml alt.Uncertain.value ])
             (Uncertain.alternatives u))

(* ------------------------------------------------------------------ *)

let required_attr node key =
  match Xml.attr node key with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing attribute %s" key)

let parse_code node =
  match Xml.attr node "code" with
  | None -> Ok Genetic_code.standard
  | Some s -> (
      match int_of_string_opt s with
      | None -> Error ("bad genetic code id " ^ s)
      | Some id -> (
          match Genetic_code.by_id id with
          | Some c -> Ok c
          | None -> Error (Printf.sprintf "unknown genetic code %d" id)))

let parse_exons node =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest ->
        let* off = required_attr e "offset" in
        let* len = required_attr e "length" in
        (match int_of_string_opt off, int_of_string_opt len with
        | Some o, Some l -> loop ((o, l) :: acc) rest
        | _ -> Error "bad exon attributes")
  in
  loop [] (Xml.children_named node "exon")

let parse_sequence alphabet node = Sequence.of_string alphabet (Xml.text_content node)

let child_sequence node name alphabet =
  match Xml.child node name with
  | None -> Error (Printf.sprintf "missing <%s> child" name)
  | Some c -> parse_sequence alphabet c

let parse_feature node =
  let* kind = required_attr node "kind" in
  let* loc = required_attr node "location" in
  let* location = Location.of_string loc in
  let rec quals acc = function
    | [] -> Ok (List.rev acc)
    | q :: rest ->
        let* key = required_attr q "key" in
        quals ((key, Xml.text_content q) :: acc) rest
  in
  let* qualifiers = quals [] (Xml.children_named node "qualifier") in
  Ok (Feature.make ~qualifiers (Feature.kind_of_string kind) location)

let rec of_xml node =
  match node with
  | Xml.Text _ -> Error "expected an element, found text"
  | Xml.Element (name, _, _) -> (
      let content () = Xml.text_content node in
      match name with
      | "bool" -> (
          match bool_of_string_opt (String.trim (content ())) with
          | Some b -> Ok (Value.VBool b)
          | None -> Error "bad bool")
      | "int" -> (
          match int_of_string_opt (String.trim (content ())) with
          | Some i -> Ok (Value.VInt i)
          | None -> Error "bad int")
      | "float" -> (
          match float_of_string_opt (String.trim (content ())) with
          | Some f -> Ok (Value.VFloat f)
          | None -> Error "bad float")
      | "string" -> Ok (Value.VString (content ()))
      | "nucleotide" -> (
          match String.trim (content ()) with
          | s when String.length s = 1 -> (
              match Nucleotide.of_char s.[0] with
              | Some b -> Ok (Value.VNucleotide b)
              | None -> Error "bad nucleotide")
          | _ -> Error "bad nucleotide")
      | "aminoacid" -> (
          match String.trim (content ()) with
          | s when String.length s = 1 -> (
              match Amino_acid.of_char s.[0] with
              | Some a -> Ok (Value.VAmino_acid a)
              | None -> Error "bad amino acid")
          | _ -> Error "bad amino acid")
      | "dna" ->
          let* s = parse_sequence Sequence.Dna node in
          Ok (Value.VDna s)
      | "rna" ->
          let* s = parse_sequence Sequence.Rna node in
          Ok (Value.VRna s)
      | "proteinseq" ->
          let* s = parse_sequence Sequence.Protein node in
          Ok (Value.VProtein_seq s)
      | "gene" ->
          let* id = required_attr node "id" in
          let name = Option.value (Xml.attr node "name") ~default:id in
          let* code = parse_code node in
          let* dna = child_sequence node "dna" Sequence.Dna in
          let* exons = parse_exons node in
          let* g = Gene.make ~name ~exons ~code ~id dna in
          Ok (Value.VGene g)
      | "primarytranscript" ->
          let* gene_id = required_attr node "gene-id" in
          let* code = parse_code node in
          let* rna = child_sequence node "rna" Sequence.Rna in
          let* exons = parse_exons node in
          let* p = Transcript.make_primary ~gene_id ~exons ~code rna in
          Ok (Value.VPrimary p)
      | "mrna" ->
          let* gene_id = required_attr node "gene-id" in
          let* code = parse_code node in
          let* rna = child_sequence node "rna" Sequence.Rna in
          let* m = Transcript.make_mrna ~gene_id ~code rna in
          Ok (Value.VMrna m)
      | "protein" ->
          let* id = required_attr node "id" in
          let name = Option.value (Xml.attr node "name") ~default:id in
          let* residues = child_sequence node "proteinseq" Sequence.Protein in
          let* p = Protein.make ~name ~id residues in
          Ok (Value.VProtein p)
      | "chromosome" ->
          let* cname = required_attr node "name" in
          let* dna = child_sequence node "dna" Sequence.Dna in
          let rec feats acc = function
            | [] -> Ok (List.rev acc)
            | f :: rest ->
                let* feat = parse_feature f in
                feats (feat :: acc) rest
          in
          let* features = feats [] (Xml.children_named node "feature") in
          let* c = Chromosome.make ~features ~name:cname dna in
          Ok (Value.VChromosome c)
      | "genome" ->
          let* organism = required_attr node "organism" in
          let taxonomy =
            match Xml.attr node "taxonomy" with
            | None | Some "" -> []
            | Some t -> String.split_on_char ';' t
          in
          let rec chroms acc = function
            | [] -> Ok (List.rev acc)
            | c :: rest -> (
                let* v = of_xml c in
                match v with
                | Value.VChromosome chrom -> chroms (chrom :: acc) rest
                | _ -> Error "genome children must be chromosomes")
          in
          let* chromosomes = chroms [] (Xml.children_named node "chromosome") in
          let* g = Genome.make ~taxonomy ~organism chromosomes in
          Ok (Value.VGenome g)
      | "list" -> (
          let* sort_name = required_attr node "sort" in
          match Sort.of_string sort_name with
          | None -> Error ("unknown sort " ^ sort_name)
          | Some elt -> (
              let rec items acc = function
                | [] -> Ok (List.rev acc)
                | (Xml.Element _ as c) :: rest ->
                    let* v = of_xml c in
                    items (v :: acc) rest
                | Xml.Text _ :: rest -> items acc rest
              in
              let children =
                match node with Xml.Element (_, _, cs) -> cs | Xml.Text _ -> []
              in
              let* values = items [] children in
              match Value.vlist elt values with
              | v -> Ok v
              | exception Invalid_argument msg -> Error msg))
      | "uncertain" -> (
          let* _sort_name = required_attr node "sort" in
          let rec alts acc = function
            | [] -> Ok (List.rev acc)
            | a :: rest -> (
                let* conf = required_attr a "confidence" in
                match float_of_string_opt conf with
                | None -> Error "bad confidence"
                | Some confidence -> (
                    let provenance =
                      match Xml.attr a "source", Xml.attr a "record" with
                      | Some source, Some record_id ->
                          let version =
                            Option.bind (Xml.attr a "source-version") int_of_string_opt
                            |> Option.value ~default:1
                          in
                          Some (Provenance.make ~version ~source ~record_id ())
                      | _ -> None
                    in
                    let value_elt =
                      match a with
                      | Xml.Element (_, _, cs) ->
                          List.find_opt
                            (function Xml.Element _ -> true | Xml.Text _ -> false)
                            cs
                      | Xml.Text _ -> None
                    in
                    match value_elt with
                    | None -> Error "alternative without a value"
                    | Some v ->
                        let* value = of_xml v in
                        alts ({ Uncertain.value; confidence; provenance } :: acc) rest))
          in
          let* alternatives = alts [] (Xml.children_named node "alternative") in
          match Value.uncertain (Uncertain.of_alternatives alternatives) with
          | v -> Ok v
          | exception Invalid_argument msg -> Error msg)
      | other -> Error (Printf.sprintf "unknown GenAlgXML element <%s>" other))

let to_string v = Xml.to_string (to_xml v)

let of_string s =
  let* node = Xml.parse s in
  of_xml node
