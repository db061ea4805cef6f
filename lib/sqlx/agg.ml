module D = Genalg_storage.Dtype

type kind = Count_star | Count | Sum | Avg | Min | Max

type call = {
  expr : Ast.expr;  (* as first written *)
  kind : kind;
  arg : Ast.expr;
}

type t = {
  calls : call array;
  reads_row : bool;  (* a column is read outside every call *)
}

let is_call = function
  | Ast.Count_star -> true
  | Ast.Fn (name, _) -> Ast.is_aggregate_fn name
  | _ -> false

let children = function
  | Ast.Fn (_, args) -> args
  | Ast.Not a | Ast.Neg a -> [ a ]
  | Ast.Binop (_, a, b) -> [ a; b ]
  | Ast.Lit _ | Ast.Col _ | Ast.Count_star -> []

let kind_of name =
  match String.lowercase_ascii name with
  | "count" -> Count
  | "sum" -> Sum
  | "avg" -> Avg
  | "min" -> Min
  | _ -> Max

let collect (select : Ast.select) =
  let exception Arity of string in
  let found = ref [] and reads_row = ref false in
  let rec walk e =
    if not (is_call e) then begin
      if match e with Ast.Col _ -> true | _ -> false then reads_row := true;
      List.iter walk (children e)
    end
    else if not (List.exists (fun c -> Ast.equal_expr c.expr e) !found) then
      let call =
        match e with
        | Ast.Fn (name, [ arg ]) -> { expr = e; kind = kind_of name; arg }
        | Ast.Fn (name, _) -> raise (Arity name)
        | _ -> { expr = e; kind = Count_star; arg = e }
      in
      found := call :: !found
  in
  match
    List.iter walk
      ((match select.Ast.projection with
       | Ast.Exprs items -> List.map fst items
       | Ast.Star -> [])
      @ Option.to_list select.Ast.having
      @ List.map (fun { Ast.key; _ } -> key) select.Ast.order_by
      @ [ Ast.Count_star ])
  with
  | () ->
      Ok { calls = Array.of_list (List.rev !found); reads_row = !reads_row }
  | exception Arity name ->
      Error (Printf.sprintf "aggregate %s expects exactly one argument" name)

let partial_items t =
  List.concat_map
    (fun c ->
      match c.kind with
      | Avg -> [ Ast.Fn ("sum", [ c.arg ]); Ast.Fn ("count", [ c.arg ]) ]
      | Count_star | Count | Sum | Min | Max -> [ c.expr ])
    (Array.to_list t.calls)

type acc = {
  mutable n : int;  (* non-NULL values: COUNT's answer, AVG's divisor *)
  mutable int_sum : int;  (* the integer sum modulo 2^63 *)
  mutable wraps : int;
      (* net times [int_sum] wrapped: the exact sum is
         [int_sum + wraps * 2^63], which fits the int range iff
         [wraps = 0], whatever the order of the additions *)
  mutable float_sum : float;  (* every value in feed order, from 0. *)
  mutable has_float : bool;
  mutable partials : int;  (* non-NULL SUM/AVG partials fed *)
  mutable best : D.value;  (* MIN/MAX so far; NULL before the first *)
  mutable error : string option;  (* the first, in row order *)
}

type group = {
  aggs : t;
  accs : acc array;
  mutable rows : int;
  env : Eval.env;
}

let group aggs env =
  let fresh _ =
    { n = 0; int_sum = 0; wraps = 0; float_sum = 0.; has_float = false;
      partials = 0; best = D.Null; error = None }
  in
  { aggs; accs = Array.map fresh aggs.calls; rows = 0; env }

let lacks_row g = g.rows = 0 && g.aggs.reads_row

let add_number c kind v =
  match v with
  | D.Int i ->
      let s = c.int_sum + i in
      (* same-signed operands whose sum changes sign wrapped around *)
      if (c.int_sum >= 0) = (i >= 0) && (s >= 0) <> (i >= 0) then
        c.wraps <- (c.wraps + if i >= 0 then 1 else -1);
      c.int_sum <- s;
      c.float_sum <- c.float_sum +. float_of_int i
  | D.Float f ->
      c.has_float <- true;
      c.float_sum <- c.float_sum +. f
  | v ->
      c.error <-
        Some
          (Printf.sprintf "%s over non-numeric value %s"
             (if kind = Sum then "SUM" else "AVG")
             (D.value_to_display v))

let feed_value c kind v =
  if v != D.Null then begin
    c.n <- c.n + 1;
    match kind, c.best with
    | (Count_star | Count), _ -> ()
    | (Sum | Avg), _ -> add_number c kind v
    | (Min | Max), D.Null -> c.best <- v
    | Min, best -> if D.compare_value v best < 0 then c.best <- v
    | Max, best -> if D.compare_value v best > 0 then c.best <- v
  end

let feed_row g env =
  g.rows <- g.rows + 1;
  for i = 0 to Array.length g.accs - 1 do
    let call = g.aggs.calls.(i) and c = g.accs.(i) in
    match call.kind, c.error with
    | Count_star, _ | _, Some _ -> ()
    | kind, None -> (
        match Eval.eval env call.arg with
        | Ok v -> feed_value c kind v
        | Error msg -> c.error <- Some msg)
  done

let feed_partials g (row : D.value array) pos =
  let count_at p = match row.(p) with D.Int k -> k | _ -> 0 in
  let pos = ref pos in
  for i = 0 to Array.length g.accs - 1 do
    let c = g.accs.(i) and p = !pos in
    (match g.aggs.calls.(i).kind with
    | Count_star -> g.rows <- g.rows + count_at p
    | Count -> c.n <- c.n + count_at p
    | (Min | Max) as kind -> feed_value c kind row.(p)
    | Sum ->
        if row.(p) != D.Null then c.partials <- c.partials + 1;
        feed_value c Sum row.(p)
    | Avg ->
        if row.(p) != D.Null then begin
          c.partials <- c.partials + 1;
          add_number c Avg row.(p)
        end;
        c.n <- c.n + count_at (p + 1);
        incr pos);
    incr pos
  done

let finish g i =
  let c = g.accs.(i) in
  match g.aggs.calls.(i).kind, c.error with
  | _, Some msg -> Error msg
  | Count_star, None -> Ok (D.Int g.rows)
  | Count, None -> Ok (D.Int c.n)
  | (Min | Max), None -> Ok c.best
  | (Sum | Avg), None when c.n = 0 -> Ok D.Null
  | ((Sum | Avg) as kind), None ->
      let avg total = D.Float (total /. float_of_int c.n) in
      if c.has_float then
        (* the single node adds every value in scan order; partial float
           sums added here could differ in the last bit *)
        if c.partials > 1 then Error "float SUM/AVG over partials of several shards"
        else Ok (if kind = Sum then D.Float c.float_sum else avg c.float_sum)
      else if c.wraps <> 0 then
        Error (if kind = Sum then "integer overflow in SUM" else "integer overflow in AVG")
      else Ok (if kind = Sum then D.Int c.int_sum else avg (float_of_int c.int_sum))

let eval g e =
  let exception Failed of string in
  let rec go e =
    if is_call e then
      match
        Array.find_index (fun c -> Ast.equal_expr c.expr e) g.aggs.calls
      with
      | None ->
          raise (Failed ("aggregate not collected: " ^ Ast.expr_to_string e))
      | Some i -> (
          match finish g i with
          | Ok v -> Ast.Lit v
          | Error msg -> raise (Failed msg))
    else
      match e with
      | Ast.Fn (name, args) -> Ast.Fn (name, List.map go args)
      | Ast.Not a -> Ast.Not (go a)
      | Ast.Neg a -> Ast.Neg (go a)
      | Ast.Binop (op, a, b) ->
          let a = go a in
          Ast.Binop (op, a, go b)
      | Ast.Lit _ | Ast.Col _ | Ast.Count_star -> e
  in
  match go e with e -> Eval.eval g.env e | exception Failed msg -> Error msg
