(* A reference for COUNT, SUM, AVG, MIN and MAX with GROUP BY and HAVING
   that shares no code with the engine: a table is a list of OCaml rows,
   groups are found by a list search in first-appearance order, and an
   integer sum is exact by adding the high and low halves of every value
   apart. Of the engine it uses only [Dtype.compare_value] (MIN, MAX,
   grouping and HAVING comparisons), and [Dtype.encode_row] to compare
   answers byte for byte. The executor at 1 and 4 jobs and a 4-shard
   cluster must answer fixed-seed random tables of ints (some above
   2^53, some near 2^61 so that sums overflow), floats and NULLs exactly
   as the reference does. *)

module D = Genalg_storage.Dtype
module Db = Genalg_storage.Database
module Exec = Genalg_sqlx.Exec
module Parser = Genalg_sqlx.Parser
module Ast = Genalg_sqlx.Ast
module Cluster = Genalg_shard.Cluster
module Par = Genalg_par.Par
module Rng = Genalg_synth.Rng

let actor = "etl"

(* ---- the reference ---------------------------------------------------- *)

(* one row: id, group key k, an int column i and a float column f that
   also holds integers, as the single node would store them *)
type row = { id : int; k : D.value; i : D.value; f : D.value }

let exact_sum ints =
  let hi, lo =
    List.fold_left
      (fun (hi, lo) v -> (hi + (v asr 31), lo + (v land 0x7fff_ffff)))
      (0, 0) ints
  in
  let hi = hi + (lo asr 31) and lo = lo land 0x7fff_ffff in
  if hi < min_int asr 31 || hi > max_int asr 31 then None
  else Some ((hi lsl 31) lor lo)

let non_null vs = List.filter (fun v -> v <> D.Null) vs

let float_sum vs =
  List.fold_left
    (fun acc v ->
      match v with
      | D.Int i -> acc +. float_of_int i
      | D.Float x -> acc +. x
      | _ -> acc)
    0. vs

let has_float vs = List.exists (function D.Float _ -> true | _ -> false) vs
let ints vs = List.filter_map (function D.Int i -> Some i | _ -> None) vs

let ref_sum vs =
  match non_null vs with
  | [] -> Ok D.Null
  | vs when has_float vs -> Ok (D.Float (float_sum vs))
  | vs -> (
      match exact_sum (ints vs) with
      | Some s -> Ok (D.Int s)
      | None -> Error "integer overflow in SUM")

let ref_avg vs =
  match non_null vs with
  | [] -> Ok D.Null
  | vs ->
      let n = float_of_int (List.length vs) in
      if has_float vs then Ok (D.Float (float_sum vs /. n))
      else (
        match exact_sum (ints vs) with
        | Some s -> Ok (D.Float (float_of_int s /. n))
        | None -> Error "integer overflow in AVG")

let ref_best better vs =
  match non_null vs with
  | [] -> Ok D.Null
  | first :: rest ->
      Ok (List.fold_left (fun b v -> if better (D.compare_value v b) then v else b) first rest)

type agg = Count_star | Count of string | Sum of string | Avg of string | Min of string | Max of string

let column name r =
  match name with "k" -> r.k | "i" -> r.i | "f" -> r.f | _ -> D.Int r.id

let ref_agg rows = function
  | Count_star -> Ok (D.Int (List.length rows))
  | Count c -> Ok (D.Int (List.length (non_null (List.map (column c) rows))))
  | Sum c -> ref_sum (List.map (column c) rows)
  | Avg c -> ref_avg (List.map (column c) rows)
  | Min c -> ref_best (fun c -> c < 0) (List.map (column c) rows)
  | Max c -> ref_best (fun c -> c > 0) (List.map (column c) rows)

let agg_sql = function
  | Count_star -> "count(*)"
  | Count c -> "count(" ^ c ^ ")"
  | Sum c -> "sum(" ^ c ^ ")"
  | Avg c -> "avg(" ^ c ^ ")"
  | Min c -> "min(" ^ c ^ ")"
  | Max c -> "max(" ^ c ^ ")"

(* groups in first-appearance order; no GROUP BY is one group over every
   row, also over none *)
let groups ~by rows =
  if not by then [ (D.Null, rows) ]
  else
    List.fold_left
      (fun acc r ->
        if List.exists (fun (k, _) -> D.compare_value k r.k = 0) acc then
          List.map
            (fun (k, rs) -> if D.compare_value k r.k = 0 then (k, rs @ [ r ]) else (k, rs))
            acc
        else acc @ [ (r.k, [ r ]) ])
      [] rows

(* the answer of
     SELECT [k,] aggs FROM t WHERE where [GROUP BY k] [HAVING having op lit]
   groups in order, HAVING before the items, the first error winning *)
let reference ~by ~aggs ~having rows =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (k, rs) :: rest -> (
        let keep =
          match having with
          | None -> Ok true
          | Some (a, op, lit) -> (
              match ref_agg rs a with
              | Error _ as e -> e
              | Ok D.Null -> Ok false
              | Ok v ->
                  let c = D.compare_value v (D.Int lit) in
                  Ok (match op with "<" -> c < 0 | ">" -> c > 0 | _ -> c >= 0))
        in
        match keep with
        | Error e -> Error e
        | Ok false -> go acc rest
        | Ok true -> (
            let rec items out = function
              | [] -> Ok (List.rev out)
              | a :: more -> (
                  match ref_agg rs a with
                  | Ok v -> items (v :: out) more
                  | Error e -> Error e)
            in
            match items [] aggs with
            | Error e -> Error e
            | Ok vs -> go (Array.of_list ((if by then [ k ] else []) @ vs) :: acc) rest))
  in
  go [] (groups ~by rows)

(* ---- random tables ---------------------------------------------------- *)

let random_rows rng ~huge =
  let n = Rng.int rng 300 in
  let two53 = 1 lsl 53 in
  List.init n (fun id ->
      let k = if Rng.bool rng 0.1 then D.Null else D.Int (Rng.int rng 5) in
      let i =
        let r = Rng.int rng 100 in
        let sign = if Rng.bool rng 0.5 then 1 else -1 in
        if r < 15 then D.Null
        else if r < 70 then D.Int (Rng.int rng 2000 - 1000)
        else if r >= 97 && huge then D.Int ((1 lsl 61) + Rng.int rng 1_000_000)
        else D.Int (sign * (two53 + Rng.int rng 1_000_000))
      in
      let f =
        let r = Rng.int rng 100 in
        if r < 15 then D.Null
        else if r < 30 then D.Int (Rng.int rng 200 - 100)
        else D.Float (float_of_int (Rng.int rng 200_000 - 100_000) /. 1000.)
      in
      { id; k; i; f })

(* a literal the SQL parser reads back as exactly this value *)
let literal = function
  | D.Null -> "NULL"
  | D.Int i -> string_of_int i
  | D.Float x -> Printf.sprintf "%.3f" x
  | v -> D.value_to_display v

let load run rows =
  ignore (run "CREATE TABLE t (id int, k int, i int, f float)");
  if rows <> [] then
    ignore
      (run
         ("INSERT INTO t VALUES "
         ^ String.concat ", "
             (List.map
                (fun r ->
                  Printf.sprintf "(%d, %s, %s, %s)" r.id (literal r.k) (literal r.i)
                    (literal r.f))
                rows)))

(* the float literal as the parser reads it, so the reference adds the
   same doubles *)
let as_parsed r =
  let f = match r.f with D.Float x -> D.Float (float_of_string (Printf.sprintf "%.3f" x)) | v -> v in
  { r with f }

(* ---- the comparison --------------------------------------------------- *)

let row_bytes rows =
  String.concat "|" (List.map (fun r -> Bytes.to_string (D.encode_row r)) rows)

let show = function
  | Ok rows ->
      String.concat "; "
        (List.map
           (fun r -> String.concat "," (Array.to_list (Array.map D.value_to_display r)))
           rows)
  | Error e -> "error: " ^ e

let same a b =
  match a, b with
  | Ok a, Ok b -> row_bytes a = row_bytes b
  | Error a, Error b -> a = b
  | _ -> false

let test_random_tables () =
  let rng = Rng.make 2505 in
  for table = 1 to 12 do
    let rows = List.map as_parsed (random_rows rng ~huge:(table mod 3 = 0)) in
    let single = Db.create () in
    load (fun sql -> Result.get_ok (Exec.query single ~actor sql)) rows;
    let cl = Result.get_ok (Cluster.create_local ~shards:4 ()) in
    load (fun sql -> Result.get_ok (Cluster.query cl ~actor sql)) rows;
    let c = Rng.int rng 6 in
    let matching = List.filter (fun r -> D.compare_value r.k (D.Int c) = 0) rows in
    let every = [ Count_star; Count "i"; Sum "i"; Avg "i"; Min "i"; Max "i";
                  Count "f"; Sum "f"; Avg "f"; Min "f"; Max "f" ] in
    let cases =
      [
        (true, every, None, rows, "");
        (false, every, None, matching, Printf.sprintf " WHERE k = %d" c);
        (false, [ Sum "i"; Avg "f" ], None, [], " WHERE id > 1000");
        (true, [ Sum "i"; Max "f" ], Some (Count "i", ">=", 2), rows, "");
        (true, [ Count_star; Min "f" ], Some (Sum "i", ">", 0), rows, "");
        (true, [ Avg "i"; Sum "f" ], Some (Min "f", "<", -90), rows, "");
      ]
    in
    List.iter
      (fun (by, aggs, having, input, where) ->
        let sql =
          Printf.sprintf "SELECT %s%s FROM t%s%s%s"
            (if by then "k, " else "")
            (String.concat ", " (List.map agg_sql aggs))
            where
            (if by then " GROUP BY k" else "")
            (match having with
            | None -> ""
            | Some (a, op, lit) -> Printf.sprintf " HAVING %s %s %d" (agg_sql a) op lit)
        in
        let expected = reference ~by ~aggs ~having input in
        let select =
          match Parser.parse sql with
          | Ok (Ast.Select s) -> s
          | _ -> Alcotest.failf "parse %s" sql
        in
        let at_jobs j =
          let prev = Par.jobs () in
          Par.set_jobs j;
          Fun.protect ~finally:(fun () -> Par.set_jobs prev) (fun () ->
              Result.map (fun rs -> rs.Exec.rows) (Exec.run_select single ~actor select))
        in
        let cluster =
          match Cluster.query cl ~actor sql with
          | Ok (Exec.Rows rs) -> Ok rs.Exec.rows
          | Ok _ -> Error "not rows"
          | Error e -> Error e
        in
        List.iter
          (fun (path, got) ->
            if not (same expected got) then
              Alcotest.failf "table %d, %s: %s\n  expected %s\n  got      %s" table path
                sql (show expected) (show got))
          [ ("jobs=1", at_jobs 1); ("jobs=4", at_jobs 4); ("4 shards", cluster) ])
      cases
  done

let suites =
  [
    ( "sqlx.oracle",
      [ Alcotest.test_case "aggregates match a list-based reference" `Quick test_random_tables ] );
  ]
