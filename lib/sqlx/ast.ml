type binop =
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or
  | Add | Sub | Mul | Div
  | Like

type expr =
  | Lit of Genalg_storage.Dtype.value
  | Col of string option * string
  | Fn of string * expr list
  | Not of expr
  | Neg of expr
  | Binop of binop * expr * expr
  | Count_star

type order_item = { key : expr; ascending : bool }

type projection =
  | Star
  | Exprs of (expr * string option) list

type select = {
  projection : projection;
  from : (string * string) list;
  where : expr option;
  group_by : expr list;
  having : expr option;
  order_by : order_item list;
  limit : int option;
}

type column_def = {
  col_name : string;
  col_type : Genalg_storage.Dtype.t;
  col_nullable : bool;
}

type stmt =
  | Select of select
  | Insert of { table : string; columns : string list; rows : expr list list }
  | Create_table of { table : string; defs : column_def list }
  | Create_index of { table : string; column : string }
  | Create_genomic_index of { table : string; column : string }
  | Delete of { table : string; where : expr option }
  | Analyze of string
  | Drop_table of string
  | Explain of { analyze : bool; select : select }

let binop_to_string = function
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | And -> "AND" | Or -> "OR"
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"
  | Like -> "LIKE"

let lit_to_string v =
  let module D = Genalg_storage.Dtype in
  match v with
  | D.Null -> "NULL"
  | D.Bool b -> if b then "TRUE" else "FALSE"
  | D.Int i -> string_of_int i
  | D.Float f ->
      (* must re-parse as a Float literal at full precision: bare %g
         drops the decimal point on integral values ("2.0" becomes "2",
         an Int after replay) and rounds past 6 significant digits —
         either would corrupt a replayed statement log *)
      let s = Printf.sprintf "%.15g" f in
      let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
      if
        String.contains s '.' || String.contains s 'e'
        || String.contains s 'n' (* nan *) || String.contains s 'i' (* inf *)
      then s
      else s ^ ".0"
  | D.Str s -> "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
  | D.Opaque (name, payload) ->
      Printf.sprintf "<%s:%d>" name (Bytes.length payload)

let rec expr_to_string = function
  | Lit v -> lit_to_string v
  | Col (None, c) -> c
  | Col (Some t, c) -> t ^ "." ^ c
  | Fn (name, args) ->
      Printf.sprintf "%s(%s)" name (String.concat ", " (List.map expr_to_string args))
  | Not e -> Printf.sprintf "NOT (%s)" (expr_to_string e)
  | Neg e -> Printf.sprintf "-(%s)" (expr_to_string e)
  | Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_to_string a) (binop_to_string op)
        (expr_to_string b)
  | Count_star -> "COUNT(*)"

let select_to_string s =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "SELECT ";
  (match s.projection with
  | Star -> Buffer.add_string buf "*"
  | Exprs items ->
      Buffer.add_string buf
        (String.concat ", "
           (List.map
              (fun (e, alias) ->
                match alias with
                | None -> expr_to_string e
                | Some a -> expr_to_string e ^ " AS " ^ a)
              items)));
  Buffer.add_string buf " FROM ";
  Buffer.add_string buf
    (String.concat ", "
       (List.map
          (fun (tbl, alias) -> if alias = tbl then tbl else tbl ^ " " ^ alias)
          s.from));
  (match s.where with
  | Some w -> Buffer.add_string buf (" WHERE " ^ expr_to_string w)
  | None -> ());
  (match s.group_by with
  | [] -> ()
  | keys ->
      Buffer.add_string buf
        (" GROUP BY " ^ String.concat ", " (List.map expr_to_string keys)));
  (match s.having with
  | Some h -> Buffer.add_string buf (" HAVING " ^ expr_to_string h)
  | None -> ());
  (match s.order_by with
  | [] -> ()
  | items ->
      Buffer.add_string buf
        (" ORDER BY "
        ^ String.concat ", "
            (List.map
               (fun { key; ascending } ->
                 expr_to_string key ^ if ascending then " ASC" else " DESC")
               items)));
  (match s.limit with
  | Some n -> Buffer.add_string buf (" LIMIT " ^ string_of_int n)
  | None -> ());
  Buffer.contents buf

let stmt_to_string = function
  | Select s -> select_to_string s
  | Insert { table; columns; rows } ->
      Printf.sprintf "INSERT INTO %s%s VALUES %s" table
        (match columns with
        | [] -> ""
        | cols -> " (" ^ String.concat ", " cols ^ ")")
        (String.concat ", "
           (List.map
              (fun row ->
                "(" ^ String.concat ", " (List.map expr_to_string row) ^ ")")
              rows))
  | Create_table { table; defs } ->
      Printf.sprintf "CREATE TABLE %s (%s)" table
        (String.concat ", "
           (List.map
              (fun d ->
                Printf.sprintf "%s %s%s" d.col_name
                  (Genalg_storage.Dtype.to_string d.col_type)
                  (if d.col_nullable then "" else " NOT NULL"))
              defs))
  | Create_index { table; column } ->
      Printf.sprintf "CREATE INDEX ON %s (%s)" table column
  | Create_genomic_index { table; column } ->
      Printf.sprintf "CREATE GENOMIC INDEX ON %s (%s)" table column
  | Delete { table; where } ->
      Printf.sprintf "DELETE FROM %s%s" table
        (match where with
        | None -> ""
        | Some w -> " WHERE " ^ expr_to_string w)
  | Analyze table -> Printf.sprintf "ANALYZE %s" table
  | Drop_table table -> Printf.sprintf "DROP TABLE %s" table
  | Explain { analyze; select } ->
      Printf.sprintf "EXPLAIN %s%s"
        (if analyze then "ANALYZE " else "")
        (select_to_string select)

let is_aggregate_fn name =
  match String.lowercase_ascii name with
  | "count" | "sum" | "avg" | "min" | "max" -> true
  | _ -> false

let rec contains_aggregate = function
  | Lit _ | Col _ -> false
  | Count_star -> true
  | Fn (name, args) -> is_aggregate_fn name || List.exists contains_aggregate args
  | Not e | Neg e -> contains_aggregate e
  | Binop (_, a, b) -> contains_aggregate a || contains_aggregate b

let item_name (e, alias) =
  match alias with Some a -> a | None -> expr_to_string e

let needs_grouping s =
  s.group_by <> [] || s.having <> None
  || (match s.projection with
     | Star -> false
     | Exprs items -> List.exists (fun (e, _) -> contains_aggregate e) items)

let rec conjuncts = function
  | Binop (And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let columns_of_expr e =
  let acc = ref [] in
  let add c = if not (List.mem c !acc) then acc := c :: !acc in
  let rec walk = function
    | Lit _ | Count_star -> ()
    | Col (t, c) -> add (t, String.lowercase_ascii c)
    | Fn (_, args) -> List.iter walk args
    | Not e | Neg e -> walk e
    | Binop (_, a, b) ->
        walk a;
        walk b
  in
  walk e;
  List.rev !acc

let equal_expr (a : expr) (b : expr) = a = b
