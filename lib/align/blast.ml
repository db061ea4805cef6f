type entry = { id : string; letters : string }

type db = {
  k : int;
  entries : entry array;
  index : (string, (int * int) list ref) Hashtbl.t;
      (* k-mer -> (entry index, offset) occurrences *)
}

let db_size db = Array.length db.entries
let word_size db = db.k

let make_db ?(k = 11) entries =
  if k < 2 then invalid_arg "Blast.make_db: word size must be >= 2";
  let ids = List.map fst entries in
  if List.length (List.sort_uniq String.compare ids) <> List.length ids then
    invalid_arg "Blast.make_db: duplicate subject ids";
  let entries =
    Array.of_list
      (List.map (fun (id, letters) -> { id; letters = String.uppercase_ascii letters }) entries)
  in
  let index = Hashtbl.create 4096 in
  Array.iteri
    (fun ei e ->
      let n = String.length e.letters in
      for off = 0 to n - k do
        let word = String.sub e.letters off k in
        match Hashtbl.find_opt index word with
        | Some cell -> cell := (ei, off) :: !cell
        | None -> Hashtbl.add index word (ref [ (ei, off) ])
      done)
    entries;
  { k; entries; index }

type hit = {
  subject_id : string;
  score : int;
  query_start : int;
  query_end : int;
  subject_start : int;
  subject_end : int;
  gapped : Pairwise.t option;
}

(* Ungapped X-drop extension of a seed match of length k at
   (q_off, s_off). Returns (score, q_start, q_end_exclusive, s_start). *)
let extend ~matrix ~x_drop ~query ~subject ~k ~q_off ~s_off =
  let seed_score = ref 0 in
  for i = 0 to k - 1 do
    seed_score := !seed_score + Scoring.score matrix query.[q_off + i] subject.[s_off + i]
  done;
  (* extend right *)
  let best_right = ref 0 and run = ref 0 and right_len = ref 0 in
  let qi = ref (q_off + k) and si = ref (s_off + k) in
  (try
     while !qi < String.length query && !si < String.length subject do
       run := !run + Scoring.score matrix query.[!qi] subject.[!si];
       incr qi;
       incr si;
       if !run > !best_right then begin
         best_right := !run;
         right_len := !qi - (q_off + k)
       end
       else if !best_right - !run > x_drop then raise Exit
     done
   with Exit -> ());
  (* extend left *)
  let best_left = ref 0 and run = ref 0 and left_len = ref 0 in
  let qi = ref (q_off - 1) and si = ref (s_off - 1) in
  (try
     while !qi >= 0 && !si >= 0 do
       run := !run + Scoring.score matrix query.[!qi] subject.[!si];
       if !run > !best_left then begin
         best_left := !run;
         left_len := q_off - !qi
       end
       else if !best_left - !run > x_drop then raise Exit;
       decr qi;
       decr si
     done
   with Exit -> ());
  let score = !seed_score + !best_right + !best_left in
  let q_start = q_off - !left_len in
  let q_end = q_off + k + !right_len in
  (score, q_start, q_end, s_off - !left_len)

let search ?(matrix = Scoring.dna_default) ?(min_score = 16) ?(x_drop = 20)
    ?(gapped = false) db ~query =
  let query = String.uppercase_ascii query in
  let n = String.length query in
  let best : (int * int, hit) Hashtbl.t = Hashtbl.create 64 in
  (* band the diagonal so nearby seeds on the same diagonal collapse *)
  let band_width = Int.max db.k 16 in
  for q_off = 0 to n - db.k do
    let word = String.sub query q_off db.k in
    match Hashtbl.find_opt db.index word with
    | None -> ()
    | Some cell ->
        List.iter
          (fun (ei, s_off) ->
            let subject = db.entries.(ei).letters in
            let score, q_start, q_end, s_start =
              extend ~matrix ~x_drop ~query ~subject ~k:db.k ~q_off ~s_off
            in
            if score >= min_score then begin
              let diag = (s_off - q_off) / band_width in
              let key = (ei, diag) in
              let hit =
                {
                  subject_id = db.entries.(ei).id;
                  score;
                  query_start = q_start;
                  query_end = q_end;
                  subject_start = s_start;
                  subject_end = s_start + (q_end - q_start);
                  gapped = None;
                }
              in
              match Hashtbl.find_opt best key with
              | Some old when old.score >= score -> ()
              | Some _ | None -> Hashtbl.replace best key hit
            end)
          !cell
  done;
  let hits = Hashtbl.fold (fun _ h acc -> h :: acc) best [] in
  let hits =
    if not gapped then hits
    else
      List.map
        (fun h ->
          let entry =
            (* entries are few; linear lookup by id keeps the hit type simple *)
            Array.to_list db.entries |> List.find (fun e -> e.id = h.subject_id)
          in
          let margin = 2 * db.k in
          let s_lo = Int.max 0 (h.subject_start - margin) in
          let s_hi = Int.min (String.length entry.letters) (h.subject_end + margin) in
          let window = String.sub entry.letters s_lo (s_hi - s_lo) in
          let aln = Pairwise.align ~mode:Pairwise.Local ~matrix ~query ~subject:window () in
          {
            h with
            score = aln.Pairwise.score;
            query_start = aln.Pairwise.query_start;
            query_end = aln.Pairwise.query_end;
            subject_start = s_lo + aln.Pairwise.subject_start;
            subject_end = s_lo + aln.Pairwise.subject_end;
            gapped = Some aln;
          })
        hits
  in
  List.sort
    (fun a b ->
      let c = Int.compare b.score a.score in
      if c <> 0 then c else String.compare a.subject_id b.subject_id)
    hits

let best_hit ?matrix ?min_score db ~query =
  match search ?matrix ?min_score db ~query with
  | [] -> None
  | h :: _ -> Some h
