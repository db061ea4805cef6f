module Obs = Genalg_obs.Obs
module Search = Genalg_seqindex.Search
module Suffix_array = Genalg_seqindex.Suffix_array

let c_candidates = Obs.counter "storage.text_index.candidates"
let c_verified = Obs.counter "storage.text_index.verified"
let c_seed_candidates = Obs.counter "storage.text_index.seed_candidates"
let c_exact_verifies = Obs.counter "storage.text_index.exact_verifies"
type t = {
  k : int;
  support : Udt.search_support;
  postings : (int, Heap.rid list ref) Hashtbl.t; (* packed k-mer -> rids *)
  always : (Heap.rid, unit) Hashtbl.t;           (* ambiguous payloads *)
  lengths : (Heap.rid, int) Hashtbl.t;           (* index-text lengths *)
  sa_cache : (Heap.rid, Suffix_array.t) Hashtbl.t;
      (* lazily-built suffix arrays over long record texts *)
  mutable count : int;
}

(* records at least this long get a cached suffix array instead of
   Horspool for exact verification *)
let sa_threshold = 4096
let sa_cache_cap = 64

let create ?(k = 8) support =
  if k < 2 || k > 31 then invalid_arg "Text_index.create: k must be in [2, 31]";
  { k; support; postings = Hashtbl.create 1024; always = Hashtbl.create 16;
    lengths = Hashtbl.create 64; sa_cache = Hashtbl.create 8; count = 0 }

let copy t =
  let postings = Hashtbl.create (max 1024 (Hashtbl.length t.postings)) in
  Hashtbl.iter (fun kmer cell -> Hashtbl.add postings kmer (ref !cell)) t.postings;
  { t with postings; always = Hashtbl.copy t.always;
    lengths = Hashtbl.copy t.lengths; sa_cache = Hashtbl.copy t.sa_cache }

let k t = t.k
let indexed_records t = t.count
let distinct_kmers t = Hashtbl.length t.postings

let mean_len t =
  let n = Hashtbl.length t.lengths in
  if n = 0 then None
  else
    Some
      (float_of_int (Hashtbl.fold (fun _ l acc -> acc + l) t.lengths 0)
      /. float_of_int n)

let code = function
  | 'A' | 'a' -> 0
  | 'C' | 'c' -> 1
  | 'G' | 'g' -> 2
  | 'T' | 't' -> 3
  | _ -> -1

(* distinct packed k-mers of [text]; k-mers spanning a non-ACGT letter
   are skipped and reported through [saw_other]. *)
let kmers_of t text =
  let n = String.length text in
  let mask = (1 lsl (2 * t.k)) - 1 in
  let seen = Hashtbl.create (max 16 n) in
  let hash = ref 0 and valid = ref 0 in
  let saw_other = ref false in
  for i = 0 to n - 1 do
    let c = code text.[i] in
    if c < 0 then begin
      saw_other := true;
      valid := 0;
      hash := 0
    end
    else begin
      hash := ((!hash lsl 2) lor c) land mask;
      incr valid;
      if !valid >= t.k then Hashtbl.replace seen !hash ()
    end
  done;
  (seen, !saw_other)

let add t rid payload =
  t.count <- t.count + 1;
  Hashtbl.remove t.sa_cache rid;
  match t.support.Udt.index_text payload with
  | `Always_candidate -> Hashtbl.replace t.always rid ()
  | `Text text ->
      Hashtbl.replace t.lengths rid (String.length text);
      let seen, saw_other = kmers_of t text in
      (* ambiguity letters make exact k-mers incomplete for this record *)
      if saw_other then Hashtbl.replace t.always rid ();
      Hashtbl.iter
        (fun kmer () ->
          match Hashtbl.find_opt t.postings kmer with
          | Some cell -> cell := rid :: !cell
          | None -> Hashtbl.add t.postings kmer (ref [ rid ]))
        seen

let remove t rid payload =
  t.count <- max 0 (t.count - 1);
  Hashtbl.remove t.always rid;
  Hashtbl.remove t.lengths rid;
  Hashtbl.remove t.sa_cache rid;
  match t.support.Udt.index_text payload with
  | `Always_candidate -> ()
  | `Text text ->
      let seen, _ = kmers_of t text in
      Hashtbl.iter
        (fun kmer () ->
          match Hashtbl.find_opt t.postings kmer with
          | Some cell -> cell := List.filter (fun r -> r <> rid) !cell
          | None -> ())
        seen

let pack_first t pattern =
  if String.length pattern < t.k then None
  else begin
    let rec loop i acc =
      if i = t.k then Some acc
      else
        let c = code pattern.[i] in
        if c < 0 then None else loop (i + 1) ((acc lsl 2) lor c)
    in
    loop 0 0
  end

let candidates t ~pattern =
  match pack_first t pattern with
  | None -> None
  | Some kmer ->
      let hits =
        match Hashtbl.find_opt t.postings kmer with
        | Some cell -> !cell
        | None -> []
      in
      let with_always =
        Hashtbl.fold (fun rid () acc -> rid :: acc) t.always hits
      in
      let out = List.sort_uniq compare with_always in
      Obs.add c_candidates (List.length out);
      Some out

let pure_acgt s =
  let ok = ref true in
  String.iter (fun ch -> if code ch < 0 then ok := false) s;
  !ok

let seed_candidates t ~pattern ~min_len =
  let n = String.length pattern in
  if n < t.k || not (pure_acgt pattern) then None
  else begin
    let mask = (1 lsl (2 * t.k)) - 1 in
    let acc = Hashtbl.create 64 in
    let hash = ref 0 in
    (* union the postings of EVERY pattern k-mer: a qualifying row is
       only guaranteed to share some k-mer with the pattern, not the
       first one *)
    for i = 0 to n - 1 do
      hash := ((!hash lsl 2) lor code pattern.[i]) land mask;
      if i >= t.k - 1 then
        match Hashtbl.find_opt t.postings !hash with
        | Some cell -> List.iter (fun rid -> Hashtbl.replace acc rid ()) !cell
        | None -> ()
    done;
    Hashtbl.iter (fun rid () -> Hashtbl.replace acc rid ()) t.always;
    (* rows shorter than [min_len] fall below the guaranteed shared-run
       length, so the k-mer filter cannot rule them out *)
    Hashtbl.iter
      (fun rid len -> if len < min_len then Hashtbl.replace acc rid ())
      t.lengths;
    let out = Hashtbl.fold (fun rid () l -> rid :: l) acc [] |> List.sort compare in
    Obs.add c_seed_candidates (List.length out);
    Some out
  end

(* exact containment for pure-ACGT pattern and text: Horspool for short
   records, a cached suffix array for long ones (section 6.5's index
   structures, via lib/seqindex) *)
let exact_contains t rid text ~pattern =
  Obs.add c_exact_verifies 1;
  if String.length text >= sa_threshold then begin
    let sa =
      match Hashtbl.find_opt t.sa_cache rid with
      | Some sa -> sa
      | None ->
          let sa = Suffix_array.build text in
          if Hashtbl.length t.sa_cache < sa_cache_cap then
            Hashtbl.add t.sa_cache rid sa;
          sa
    in
    Suffix_array.contains sa pattern
  end
  else Search.horspool_find ~pattern text <> None

let search t ~pattern ~payload_of =
  match candidates t ~pattern with
  | None -> None
  | Some rids ->
      let up = String.uppercase_ascii pattern in
      (* IUPAC matching degenerates to exact equality when both sides are
         concrete A/C/G/T, so non-always candidates (whose index text had
         no ambiguity letters) can be verified by exact search *)
      let exact_ok = up <> "" && pure_acgt up in
      let hits =
        List.filter
          (fun rid ->
            match payload_of rid with
            | None -> false
            | Some payload ->
                if exact_ok && not (Hashtbl.mem t.always rid) then
                  match t.support.Udt.index_text payload with
                  | `Text text ->
                      exact_contains t rid (String.uppercase_ascii text)
                        ~pattern:up
                  | `Always_candidate -> t.support.Udt.matches payload ~pattern
                else t.support.Udt.matches payload ~pattern)
          rids
      in
      Obs.add c_verified (List.length hits);
      Some hits
