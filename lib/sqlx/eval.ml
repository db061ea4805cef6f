module D = Genalg_storage.Dtype
module Udt = Genalg_storage.Udt
module Schema = Genalg_storage.Schema

type binding = {
  alias : string;
  schema : Schema.t;
  offset : int;
}

type scope = binding list

let scope shapes =
  let rec lay offset = function
    | [] -> []
    | (alias, schema) :: rest ->
        { alias; schema; offset } :: lay (offset + Schema.arity schema) rest
  in
  lay 0 shapes

let width scope =
  List.fold_left (fun w b -> Int.max w (b.offset + Schema.arity b.schema)) 0 scope

let resolve scope qualifier name =
  let at b i = (b.offset + i, Schema.column b.schema i) in
  match qualifier with
  | Some q when scope <> [] -> (
      let lq = String.lowercase_ascii q in
      match List.find_opt (fun b -> String.lowercase_ascii b.alias = lq) scope with
      | None -> Error (Printf.sprintf "unknown table alias %s" q)
      | Some b -> (
          match Schema.column_index b.schema name with
          | Some i -> Ok (at b i)
          | None -> Error (Printf.sprintf "no column %s in %s" name q)))
  | Some _ | None -> (
      (* with no bindings (INSERT VALUES) a qualified reference is an
         unknown column too *)
      match
        List.filter_map
          (fun b -> Option.map (at b) (Schema.column_index b.schema name))
          scope
      with
      | [ hit ] -> Ok hit
      | [] -> Error (Printf.sprintf "unknown column %s" name)
      | _ -> Error (Printf.sprintf "ambiguous column %s" name))

let like_match ~pattern text =
  (* classic two-pointer LIKE matcher with backtracking on '%' *)
  let np = String.length pattern and nt = String.length text in
  let rec at pi ti star_p star_t =
    if ti = nt then
      (* consume trailing % *)
      let rec only_percent i = i = np || (pattern.[i] = '%' && only_percent (i + 1)) in
      if only_percent pi then true
      else if star_p >= 0 then false
      else false
    else if pi < np && pattern.[pi] = '%' then at (pi + 1) ti pi ti
    else if pi < np && (pattern.[pi] = '_' || pattern.[pi] = text.[ti]) then
      at (pi + 1) (ti + 1) star_p star_t
    else if star_p >= 0 then at (star_p + 1) (star_t + 1) star_p (star_t + 1)
    else false
  in
  at 0 0 (-1) (-1)

let builtin_functions =
  [ "upper"; "lower"; "strlen"; "abs"; "round"; "coalesce"; "substr" ]

(* Compiled nodes return the value and raise [Failed] with the error
   text; [compile] turns that back into a result at the root. Operands
   are evaluated left to right, so the first failing operand's error is
   the node's. *)
exception Failed of string

let fail msg = raise (Failed msg)
let failf fmt = Printf.ksprintf fail fmt
let v_true = D.Bool true
let v_false = D.Bool false
let of_bool b = if b then v_true else v_false

let arith name fi ff a b =
  match a, b with
  | D.Null, _ | _, D.Null -> D.Null
  | D.Int x, D.Int y -> D.Int (fi x y)
  | D.Int x, D.Float y -> D.Float (ff (float_of_int x) y)
  | D.Float x, D.Int y -> D.Float (ff x (float_of_int y))
  | D.Float x, D.Float y -> D.Float (ff x y)
  | _ ->
      failf "%s expects numbers, got %s and %s" name (D.value_to_display a)
        (D.value_to_display b)

let compare_op op a b =
  match a, b with
  | D.Null, _ | _, D.Null -> D.Null
  | _ ->
      let c = D.compare_value a b in
      of_bool
        (match op with
        | Ast.Eq -> c = 0
        | Ast.Ne -> c <> 0
        | Ast.Lt -> c < 0
        | Ast.Le -> c <= 0
        | Ast.Gt -> c > 0
        | Ast.Ge -> c >= 0
        | Ast.And | Ast.Or | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Like ->
            assert false)

let not_boolean name v =
  failf "%s expects booleans, got %s" name (D.value_to_display v)

(* a non-decisive AND/OR operand: is it NULL? *)
let is_null = function
  | D.Bool _ -> false
  | D.Null -> true
  | v -> not_boolean "AND/OR" v

(* The built-in a lowercased name denotes, matched once: it answers
   [Some v] for argument values it serves and [None] for the rest,
   which go on to the UDF registry. *)
let builtin = function
  | "upper" -> ( function [ D.Str s ] -> Some (D.Str (String.uppercase_ascii s)) | _ -> None)
  | "lower" -> ( function [ D.Str s ] -> Some (D.Str (String.lowercase_ascii s)) | _ -> None)
  | "strlen" -> ( function [ D.Str s ] -> Some (D.Int (String.length s)) | _ -> None)
  | "abs" -> (
      function
      | [ D.Int i ] -> Some (D.Int (abs i))
      | [ D.Float f ] -> Some (D.Float (Float.abs f))
      | _ -> None)
  | "round" -> (
      function
      | [ D.Float f ] -> Some (D.Int (int_of_float (Float.round f)))
      | [ D.Int i ] -> Some (D.Int i)
      | _ -> None)
  | "coalesce" -> ( function [ a; b ] -> Some (if a = D.Null then b else a) | _ -> None)
  | "substr" -> (
      function
      | [ D.Str s; D.Int pos; D.Int len ] ->
          if pos < 0 || len < 0 || pos + len > String.length s then
            fail "substr out of bounds"
          else Some (D.Str (String.sub s pos len))
      | _ -> None)
  | _ -> fun _ -> None

(* user-defined (genomic) function, resolved by the argument types *)
let call_udf udts name values =
  let arg_types =
    List.map (fun v -> Option.value (D.type_of_value v) ~default:D.TString) values
  in
  match Udt.resolve_function udts name arg_types with
  | Some udf -> ( match udf.Udt.code values with Ok v -> v | Error msg -> fail msg)
  | None ->
      failf "unknown function %s(%s)" name
        (String.concat ", " (List.map D.to_string arg_types))

let rec node ~aggregate udts scope expr : D.value array -> D.value =
  let sub = node ~aggregate udts scope in
  let aggregate_slot what e =
    match aggregate e with
    | Some slot -> fun row -> row.(slot)
    | None -> fun _ -> failf "%s outside an aggregate context" what
  in
  match expr with
  | Ast.Lit v -> fun _ -> v
  | Ast.Col (qualifier, name) -> (
      match resolve scope qualifier name with
      | Ok (slot, _) -> fun row -> row.(slot)
      | Error msg -> fun _ -> fail msg)
  | Ast.Count_star -> aggregate_slot "COUNT(*)" expr
  | Ast.Fn (name, _) when Ast.is_aggregate_fn name ->
      aggregate_slot ("aggregate " ^ name) expr
  | Ast.Not e ->
      let f = sub e in
      fun row ->
        (match f row with
        | D.Bool b -> of_bool (not b)
        | D.Null -> D.Null
        | v -> not_boolean "NOT" v)
  | Ast.Neg e -> (
      let f = sub e in
      fun row ->
        match f row with
        | D.Int i -> D.Int (-i)
        | D.Float x -> D.Float (-.x)
        | D.Null -> D.Null
        | v -> failf "cannot negate %s" (D.value_to_display v))
  | Ast.Binop (((Ast.And | Ast.Or) as op), a, b) ->
      (* AND stops at the first false, OR at the first true; otherwise a
         NULL operand makes the result NULL *)
      let decisive = op = Ast.Or in
      let fa = sub a and fb = sub b in
      fun row ->
        (match fa row with
        | D.Bool x when x = decisive -> of_bool decisive
        | va -> (
            let null_a = is_null va in
            match fb row with
            | D.Bool y when y = decisive -> of_bool decisive
            | vb -> if is_null vb || null_a then D.Null else of_bool (not decisive)))
  | Ast.Binop (op, a, b) -> (
      let fa = sub a and fb = sub b in
      let both f row =
        let va = fa row in
        f va (fb row)
      in
      match op with
      | Ast.Like ->
          both (fun va vb ->
              match va, vb with
              | D.Null, _ | _, D.Null -> D.Null
              | D.Str text, D.Str pattern -> of_bool (like_match ~pattern text)
              | _ ->
                  failf "LIKE expects strings, got %s and %s"
                    (D.value_to_display va) (D.value_to_display vb))
      | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> both (compare_op op)
      | Ast.Add -> both (arith "+" ( + ) ( +. ))
      | Ast.Sub -> both (arith "-" ( - ) ( -. ))
      | Ast.Mul -> both (arith "*" ( * ) ( *. ))
      | Ast.Div ->
          both (fun va vb ->
              match vb with
              | D.Int 0 -> fail "division by zero"
              | _ -> arith "/" ( / ) ( /. ) va vb)
      | Ast.And | Ast.Or -> assert false)
  | Ast.Fn (name, args) -> (
      let fs = List.map sub args in
      let serve = builtin (String.lowercase_ascii name) in
      fun row ->
        let values = List.map (fun f -> f row) fs in
        match serve values with Some v -> v | None -> call_udf udts name values)

type compiled = D.value array -> (D.value, string) result

let compile ?(aggregate = fun _ -> None) udts scope expr =
  let f = node ~aggregate udts scope expr in
  fun row -> match f row with v -> Ok v | exception Failed msg -> Error msg

let ok_true = Ok true
let ok_false = Ok false

let compile_predicate udts scope expr =
  let f = node ~aggregate:(fun _ -> None) udts scope expr in
  fun row ->
    match f row with
    | D.Bool b -> if b then ok_true else ok_false
    | D.Null -> ok_false
    | v -> Error (Printf.sprintf "predicate evaluated to %s" (D.value_to_display v))
    | exception Failed msg -> Error msg
