open Genalg_gdt
open Genalg_formats

type merged = {
  canonical : Entry.t;
  members : (string * Entry.t) list;
  sequence : Sequence.t Uncertain.t;
  consistent : bool;
}

let k = 8

(* The distinct k-mers of [seq], sorted. Each k-mer is one int of 7 bits
   per letter, which is injective over ASCII, the alphabet every
   sequence letter comes from. *)
let kmer_codes seq =
  let s = Sequence.to_string seq in
  let n = String.length s - k + 1 in
  if n <= 0 then [||]
  else begin
    let codes = Array.make n 0 in
    let mask = (1 lsl (7 * k)) - 1 in
    let h = ref 0 in
    String.iteri
      (fun i c ->
        h := ((!h lsl 7) lor Char.code c) land mask;
        if i >= k - 1 then codes.(i - k + 1) <- !h)
      s;
    Array.sort Int.compare codes;
    let distinct = ref 1 in
    for i = 1 to n - 1 do
      if codes.(i) <> codes.(!distinct - 1) then begin
        codes.(!distinct) <- codes.(i);
        incr distinct
      end
    done;
    Array.sub codes 0 !distinct
  end

(* Jaccard similarity of two sorted sets; the intersection is counted by
   one merge. *)
let jaccard a b =
  let la = Array.length a and lb = Array.length b in
  let inter = ref 0 and i = ref 0 and j = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x = y then begin
      incr inter;
      incr i;
      incr j
    end
    else if x < y then incr i
    else incr j
  done;
  let union = la + lb - !inter in
  if union = 0 then 1. else float_of_int !inter /. float_of_int union

(* The similarity of two sequences given their [kmer_codes]. A sequence
   shorter than [k] has no k-mers, so it scores 1 against an equal
   sequence and 0 against any other. *)
let similarity_of_codes a codes_a b codes_b =
  if Sequence.length a < k || Sequence.length b < k then
    (if Sequence.equal a b then 1. else 0.)
  else jaccard codes_a codes_b

let kmer_similarity a b = similarity_of_codes a (kmer_codes a) b (kmer_codes b)

(* Score with optionally precomputed k-mer sets, so bulk reconciliation
   builds each entry's set once instead of once per candidate pair. *)
let pair_score_with ?sets (a : Entry.t) (b : Entry.t) =
  if a.Entry.organism <> b.Entry.organism then 0.
  else begin
    let la = Sequence.length a.Entry.sequence and lb = Sequence.length b.Entry.sequence in
    let ratio =
      if la = 0 || lb = 0 then 0.
      else float_of_int (min la lb) /. float_of_int (max la lb)
    in
    if ratio < 0.7 then 0.
    else begin
      let seq_sim =
        match sets with
        | Some (sa, sb) -> similarity_of_codes a.Entry.sequence sa b.Entry.sequence sb
        | None -> kmer_similarity a.Entry.sequence b.Entry.sequence
      in
      let def_sim =
        Genalg_align.Distance.similarity a.Entry.definition b.Entry.definition
      in
      (0.8 *. seq_sim) +. (0.2 *. def_sim)
    end
  end

let pair_score a b = pair_score_with a b

(* Blocking: bucket entries by (organism, length band); only pairs sharing
   a bucket are scored. Length bands overlap by probing adjacent bands. *)
let band_width = 200

let buckets_of (e : Entry.t) =
  let len = Sequence.length e.Entry.sequence in
  let band = len / band_width in
  List.map
    (fun b -> (e.Entry.organism, b))
    [ band - 1; band; band + 1 ]

let find_duplicates ?(threshold = 0.6) sourced =
  let indexed = List.mapi (fun i (src, e) -> (i, src, e)) sourced in
  let table = Hashtbl.create 64 in
  List.iter
    (fun (i, _, e) ->
      List.iter
        (fun key ->
          let prev = Option.value (Hashtbl.find_opt table key) ~default:[] in
          Hashtbl.replace table key (i :: prev))
        (buckets_of e))
    indexed;
  let arr = Array.of_list indexed in
  let kmer_sets = Array.map (fun (_, _, (e : Entry.t)) -> kmer_codes e.Entry.sequence) arr in
  let results = ref [] in
  Array.iter
    (fun (i, src_i, (e_i : Entry.t)) ->
      let candidates =
        List.concat_map
          (fun key -> Option.value (Hashtbl.find_opt table key) ~default:[])
          (buckets_of e_i)
        |> List.sort_uniq Int.compare
      in
      List.iter
        (fun j ->
          (* candidates are distinct, so each pair is scored once *)
          if j > i then begin
            let _, src_j, e_j = arr.(j) in
            if src_i <> src_j then begin
              let score =
                pair_score_with ~sets:(kmer_sets.(i), kmer_sets.(j)) e_i e_j
              in
              if score >= threshold then
                results := ((src_i, e_i), (src_j, e_j), score) :: !results
            end
          end)
        candidates)
    arr;
  List.sort
    (fun (_, _, s1) (_, _, s2) -> Float.compare s2 s1)
    !results

(* ---- clustering (union-find) -------------------------------------- *)

let reconcile ?threshold sourced =
  let n = List.length sourced in
  let arr = Array.of_list sourced in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  (* map (source, accession) to index for pair lookup *)
  let index_of = Hashtbl.create 64 in
  Array.iteri
    (fun i (src, (e : Entry.t)) -> Hashtbl.replace index_of (src, e.Entry.accession) i)
    arr;
  let pairs = find_duplicates ?threshold sourced in
  List.iter
    (fun ((src_a, (ea : Entry.t)), (src_b, (eb : Entry.t)), _) ->
      match
        ( Hashtbl.find_opt index_of (src_a, ea.Entry.accession),
          Hashtbl.find_opt index_of (src_b, eb.Entry.accession) )
      with
      | Some i, Some j -> union i j
      | _ -> ())
    pairs;
  let clusters = Hashtbl.create 64 in
  Array.iteri
    (fun i member ->
      let root = find i in
      let prev = Option.value (Hashtbl.find_opt clusters root) ~default:[] in
      Hashtbl.replace clusters root (member :: prev))
    arr;
  let merge_cluster members =
    let members = List.rev members in
    let canonical =
      List.fold_left
        (fun (best : string * Entry.t) (candidate : string * Entry.t) ->
          if
            String.length (snd candidate).Entry.definition
            > String.length (snd best).Entry.definition
          then candidate
          else best)
        (List.hd members) (List.tl members)
      |> snd
    in
    (* group members by exact sequence *)
    let variants : (Sequence.t * (string * Entry.t) list) list =
      List.fold_left
        (fun acc (src, (e : Entry.t)) ->
          let rec add = function
            | [] -> [ (e.Entry.sequence, [ (src, e) ]) ]
            | (seq, supporters) :: rest ->
                if Sequence.equal seq e.Entry.sequence then
                  (seq, (src, e) :: supporters) :: rest
                else (seq, supporters) :: add rest
          in
          add acc)
        [] members
    in
    let total = float_of_int (List.length members) in
    let alternatives =
      List.map
        (fun (seq, supporters) ->
          let src, (e : Entry.t) =
            match supporters with s :: _ -> s | [] -> assert false
          in
          {
            Uncertain.value = seq;
            confidence = float_of_int (List.length supporters) /. total;
            provenance =
              Some (Provenance.make ~version:e.Entry.version ~source:src
                      ~record_id:e.Entry.accession ());
          })
        variants
    in
    {
      canonical;
      members;
      sequence = Uncertain.of_alternatives alternatives;
      consistent = List.length variants = 1;
    }
  in
  Hashtbl.fold (fun _ members acc -> merge_cluster members :: acc) clusters []
  |> List.sort (fun a b ->
         String.compare a.canonical.Entry.accession b.canonical.Entry.accession)
