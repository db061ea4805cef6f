(** Primary transcripts and messenger RNA — the intermediate sorts of the
    paper's mini algebra ([transcribe : gene -> primarytranscript],
    [splice : primarytranscript -> mrna], section 4.2). *)

type primary = private {
  gene_id : string;
  rna : Sequence.t;            (** full pre-mRNA, introns included *)
  exons : (int * int) list;    (** exon spans carried over from the gene *)
  code : Genetic_code.t;
}

type mrna = private {
  gene_id : string;
  rna : Sequence.t;            (** spliced, exons only *)
  code : Genetic_code.t;
}

val make_primary :
  gene_id:string -> exons:(int * int) list -> code:Genetic_code.t -> Sequence.t ->
  (primary, string) result
(** Build a primary transcript; the sequence must be RNA, exon spans must be
    valid within it. *)

val make_mrna : gene_id:string -> code:Genetic_code.t -> Sequence.t -> (mrna, string) result
(** The sequence must be RNA. *)

val primary :
  gene_id:string -> exons:(int * int) list -> code:Genetic_code.t -> Sequence.t -> primary
(** {!make_primary}, raising [Invalid_argument] on an error. *)

val mrna : gene_id:string -> code:Genetic_code.t -> Sequence.t -> mrna
(** {!make_mrna}, raising [Invalid_argument] on an error. *)

val primary_length : primary -> int
val mrna_length : mrna -> int

val equal_primary : primary -> primary -> bool
val equal_mrna : mrna -> mrna -> bool

val pp_primary : Format.formatter -> primary -> unit
val pp_mrna : Format.formatter -> mrna -> unit
