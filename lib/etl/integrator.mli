(** The warehouse integrator: duplicate detection and reconciliation
    across sources (paper section 5.2, "data integration").

    The semantic-heterogeneity problem is attacked with a standard
    blocking + scoring pipeline: candidate pairs are restricted to entries
    of the same organism with comparable lengths (blocking), then scored
    by k-mer profile similarity of their sequences combined with textual
    similarity of their definitions. Pairs above a threshold are declared
    duplicates; their values merge into one canonical entry, and
    disagreeing sequences are preserved as uncertainty alternatives (C9:
    "access to both alternatives should be given"). *)

open Genalg_gdt
open Genalg_formats

type merged = {
  canonical : Entry.t;                          (** representative record *)
  members : (string * Entry.t) list;            (** (source, entry), all of them *)
  sequence : Sequence.t Uncertain.t;            (** alternatives when members disagree *)
  consistent : bool;                            (** true when all members agree *)
}

val kmer_similarity : Sequence.t -> Sequence.t -> float
(** Jaccard similarity of the 8-mer sets, in [0, 1]; for a sequence
    shorter than 8, 1 when both are equal and 0 otherwise. *)

val pair_score : Entry.t -> Entry.t -> float
(** Combined duplicate score in [0, 1]: 0 when organisms differ or
    lengths are incomparable; otherwise 0.8 · sequence similarity +
    0.2 · definition similarity. *)

val find_duplicates :
  ?threshold:float ->
  (string * Entry.t) list ->
  ((string * Entry.t) * (string * Entry.t) * float) list
(** Scored duplicate pairs above [threshold] (default 0.6) between entries
    of different sources. O(candidate pairs) after length/organism
    blocking. *)

val reconcile :
  ?threshold:float -> (string * Entry.t) list -> merged list
(** Cluster by duplicate pairs (union-find), merge each cluster. The
    canonical entry is the longest-definition member; sequence
    alternatives carry per-source provenance, with confidence
    proportional to how many members agree on each variant. *)
