module Obs = Genalg_obs.Obs
module Search = Genalg_seqindex.Search
module Suffix_array = Genalg_seqindex.Suffix_array
module Int_map = Map.Make (Int)
module Int_set = Set.Make (Int)

let c_candidates = Obs.counter "storage.text_index.candidates"
let c_verified = Obs.counter "storage.text_index.verified"
let c_seed_candidates = Obs.counter "storage.text_index.seed_candidates"
let c_exact_verifies = Obs.counter "storage.text_index.exact_verifies"

(* A persistent value: [add_many] and [remove] return a new index and
   leave the old one intact, so table handles sharing a version need no
   copy. Only [sa_cache] is mutable; every version derived from one
   [create] shares it, and an entry serves only the payload it was
   built from. *)
type t = {
  k : int;
  support : Udt.search_support;
  postings : Heap.rid list Int_map.t; (* packed k-mer -> rids *)
  always : Int_set.t;                 (* ambiguous payloads *)
  lengths : int Int_map.t;            (* rid -> index-text length *)
  texts : int;                        (* bindings in [lengths] *)
  total_len : int;                    (* sum of [lengths] *)
  sa_cache : (Heap.rid, bytes * Suffix_array.t) Hashtbl.t;
      (* lazily-built suffix arrays over long record texts, each with
         the payload (compared by [==]) it was built from *)
}

(* records at least this long get a cached suffix array instead of
   Horspool for exact verification *)
let sa_threshold = 4096
let sa_cache_cap = 64

let create ?(k = 8) support =
  if k < 2 || k > 31 then invalid_arg "Text_index.create: k must be in [2, 31]";
  { k; support; postings = Int_map.empty; always = Int_set.empty;
    lengths = Int_map.empty; texts = 0; total_len = 0; sa_cache = Hashtbl.create 8 }

let k t = t.k

let mean_len t =
  if t.texts = 0 then None
  else Some (float_of_int t.total_len /. float_of_int t.texts)

let code = function
  | 'A' | 'a' -> 0
  | 'C' | 'c' -> 1
  | 'G' | 'g' -> 2
  | 'T' | 't' -> 3
  | _ -> -1

(* Calls [f] on every packed k-mer of [text], repeats included. K-mers
   spanning a non-ACGT letter are skipped; the result tells whether
   there was one. *)
let iter_kmers t text f =
  let mask = (1 lsl (2 * t.k)) - 1 in
  let hash = ref 0 and valid = ref 0 and saw_other = ref false in
  String.iter
    (fun ch ->
      let c = code ch in
      if c < 0 then begin
        saw_other := true;
        valid := 0;
        hash := 0
      end
      else begin
        hash := ((!hash lsl 2) lor c) land mask;
        incr valid;
        if !valid >= t.k then f !hash
      end)
    text;
  !saw_other

let add_many t records =
  (* the new rids grouped by k-mer, so each distinct k-mer costs one
     [Int_map.update] however many records share it; records run one
     after another, so a repeat within a record finds its rid on top *)
  let fresh = Hashtbl.create 256 in
  let note rid kmer =
    match Hashtbl.find_opt fresh kmer with
    | None -> Hashtbl.add fresh kmer (ref [ rid ])
    | Some cell -> (
        match !cell with r :: _ when r = rid -> () | rids -> cell := rid :: rids)
  in
  let t =
    List.fold_left
      (fun t (rid, payload) ->
        match t.support.Udt.index_text payload with
        | `Always_candidate -> { t with always = Int_set.add rid t.always }
        | `Text text ->
            let len = String.length text in
            (* ambiguity letters make exact k-mers incomplete for this record *)
            let saw_other = iter_kmers t text (note rid) in
            { t with
              always = (if saw_other then Int_set.add rid t.always else t.always);
              lengths = Int_map.add rid len t.lengths;
              texts = t.texts + 1;
              total_len = t.total_len + len })
      t records
  in
  let postings =
    Hashtbl.fold
      (fun kmer cell postings ->
        Int_map.update kmer
          (function None -> Some !cell | Some old -> Some (List.rev_append !cell old))
          postings)
      fresh t.postings
  in
  { t with postings }

let add t rid payload = add_many t [ (rid, payload) ]

let remove t rid payload =
  let t = { t with always = Int_set.remove rid t.always } in
  let t =
    match Int_map.find_opt rid t.lengths with
    | None -> t
    | Some len ->
        { t with lengths = Int_map.remove rid t.lengths; texts = t.texts - 1;
          total_len = t.total_len - len }
  in
  match t.support.Udt.index_text payload with
  | `Always_candidate -> t
  | `Text text ->
      let kmers = ref [] in
      ignore (iter_kmers t text (fun kmer -> kmers := kmer :: !kmers) : bool);
      let drop = function
        | None -> None
        | Some rids -> (
            match List.filter (fun r -> r <> rid) rids with [] -> None | l -> Some l)
      in
      let postings =
        List.fold_left
          (fun postings kmer -> Int_map.update kmer drop postings)
          t.postings (List.sort_uniq Int.compare !kmers)
      in
      { t with postings }

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
      let hits = Option.value (Int_map.find_opt kmer t.postings) ~default:[] in
      let out = List.sort_uniq Int.compare (Int_set.fold List.cons t.always hits) in
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
        match Int_map.find_opt !hash t.postings with
        | Some rids -> List.iter (fun rid -> Hashtbl.replace acc rid ()) rids
        | None -> ()
    done;
    Int_set.iter (fun rid -> Hashtbl.replace acc rid ()) t.always;
    (* rows shorter than [min_len] fall below the guaranteed shared-run
       length, so the k-mer filter cannot rule them out *)
    Int_map.iter
      (fun rid len -> if len < min_len then Hashtbl.replace acc rid ())
      t.lengths;
    let out = Hashtbl.fold (fun rid () l -> rid :: l) acc [] |> List.sort Int.compare in
    Obs.add c_seed_candidates (List.length out);
    Some out
  end

(* exact containment for pure-ACGT pattern and text: Horspool for short
   records, a cached suffix array for long ones (section 6.5's index
   structures, via lib/seqindex). A cached array built from another
   payload under the same rid, say another handle's version of an
   updated row, is rebuilt. *)
let exact_contains t rid payload text ~pattern =
  Obs.add c_exact_verifies 1;
  if String.length text >= sa_threshold then begin
    let sa =
      match Hashtbl.find_opt t.sa_cache rid with
      | Some (built_from, sa) when built_from == payload -> sa
      | stale ->
          let sa = Suffix_array.build text in
          if Option.is_some stale || Hashtbl.length t.sa_cache < sa_cache_cap then
            Hashtbl.replace t.sa_cache rid (payload, sa);
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
                if exact_ok && not (Int_set.mem rid t.always) then
                  match t.support.Udt.index_text payload with
                  | `Text text ->
                      exact_contains t rid payload (String.uppercase_ascii text)
                        ~pattern:up
                  | `Always_candidate -> t.support.Udt.matches payload ~pattern
                else t.support.Udt.matches payload ~pattern)
          rids
      in
      Obs.add c_verified (List.length hits);
      Some hits
