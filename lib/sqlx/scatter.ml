module D = Genalg_storage.Dtype

let grid_col = "__grid"

type plain = {
  p_shard : Ast.select;
  p_columns : string list;
  p_items : int;
  p_order : bool list;
  p_limit : int option;
}

type grouped = {
  g_shard : Ast.select;
  g_columns : string list;
  g_nkeys : int;
  g_aggs : Agg.t;
  g_items : (Ast.expr * string option) list;
  g_having : Ast.expr option;
  g_order : Ast.order_item list;
  g_limit : int option;
}

type t =
  | Plain of plain
  | Grouped of grouped
  | Not_shardable of string

exception Reject of string

(* ------------------------------------------------------------------ *)
(* Decomposition                                                       *)

(* the column a conjunct talks about, resolving the FROM alias *)
let col_of ~alias = function
  | Ast.Col (None, c) -> Some c
  | Ast.Col (Some q, c)
    when String.lowercase_ascii q = String.lowercase_ascii alias ->
      Some c
  | _ -> None

(* Would the single-node planner be allowed to answer a range conjunct
   from a B-tree?  Index_range emits in key order, not scan order, so
   the grid merge cannot reproduce it — such queries stay on the
   mirror.  (Whether the planner actually picks the index depends on
   its statistics, so the guard is deliberately static.) *)
let range_on_indexed ~alias ~has_index where =
  match where with
  | None -> false
  | Some w ->
      List.exists
        (fun c ->
          match c with
          | Ast.Binop ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), lhs, Ast.Lit _) -> (
              match col_of ~alias lhs with
              | Some col -> has_index col
              | None -> false)
          | _ -> false)
        (Ast.conjuncts w)

(* The merge evaluates over a group's keys alone: each subtree equal to
   the i-th group key becomes the column reference [i], which the merged
   group resolves to that key's value. A column reference left over would
   need a row of the group, which no shard can know globally. *)
let over_keys ~keys what e =
  let rec go e =
    match List.find_index (Ast.equal_expr e) keys with
    | Some i -> Ast.Col (None, string_of_int i)
    | None -> (
        match e with
        | Ast.Count_star | Ast.Lit _ -> e
        | Ast.Fn (name, _) when Ast.is_aggregate_fn name -> e
        | Ast.Col _ -> raise Exit
        | Ast.Fn (name, args) -> Ast.Fn (name, List.map go args)
        | Ast.Not a -> Ast.Not (go a)
        | Ast.Neg a -> Ast.Neg (go a)
        | Ast.Binop (op, a, b) -> Ast.Binop (op, go a, go b))
  in
  try go e
  with Exit ->
    raise
      (Reject
         (Printf.sprintf "%s depends on individual rows (%s)" what
            (Ast.expr_to_string e)))

let decompose ~star_columns ~has_index (select : Ast.select) : t =
  try
    let table_alias =
      match select.Ast.from with
      | [ (_, alias) ] -> alias
      | _ -> raise (Reject "multi-table join")
    in
    (match select.Ast.where with
    | Some w when Ast.contains_aggregate w -> raise (Reject "aggregate in WHERE")
    | _ -> ());
    if range_on_indexed ~alias:table_alias ~has_index select.Ast.where then
      raise (Reject "range predicate on an indexed column (key-ordered plan)");
    if not (Ast.needs_grouping select) then begin
      if
        List.exists
          (fun { Ast.key; _ } -> Ast.contains_aggregate key)
          select.Ast.order_by
      then raise (Reject "aggregate in ORDER BY without grouping");
      let items, columns =
        match select.Ast.projection with
        | Ast.Exprs items -> (items, List.map Ast.item_name items)
        | Ast.Star -> (
            match star_columns () with
            | Error msg -> raise (Reject msg)
            | Ok cols ->
                (List.map (fun c -> (Ast.Col (None, c), None)) cols, cols))
      in
      let shard_items =
        items
        @ List.map (fun { Ast.key; _ } -> (key, None)) select.Ast.order_by
        @ [ (Ast.Col (None, grid_col), None) ]
      in
      Plain
        {
          p_shard =
            {
              select with
              Ast.projection = Ast.Exprs shard_items;
              group_by = [];
              having = None;
              order_by = [];
              limit = None;
            };
          p_columns = columns;
          p_items = List.length items;
          p_order =
            List.map (fun { Ast.ascending; _ } -> ascending) select.Ast.order_by;
          p_limit = select.Ast.limit;
        }
    end
    else begin
      let items =
        match select.Ast.projection with
        | Ast.Exprs items -> items
        | Ast.Star -> raise (Reject "SELECT * with grouping")
      in
      if List.exists Ast.contains_aggregate select.Ast.group_by then
        raise (Reject "aggregate in GROUP BY");
      let keys = select.Ast.group_by in
      let aggs =
        match Agg.collect select with
        | Ok aggs -> aggs
        | Error msg -> raise (Reject msg)
      in
      let partials = Agg.partial_items aggs in
      if
        List.exists
          (function Ast.Fn (_, [ arg ]) -> Ast.contains_aggregate arg | _ -> false)
          partials
      then raise (Reject "nested aggregate");
      let merge_items =
        List.map (fun (e, alias) -> (over_keys ~keys "projection" e, alias)) items
      in
      let having = Option.map (over_keys ~keys "HAVING") select.Ast.having in
      let order =
        List.map
          (fun (o : Ast.order_item) ->
            { o with Ast.key = over_keys ~keys "ORDER BY" o.Ast.key })
          select.Ast.order_by
      in
      let shard_items =
        List.map (fun k -> (k, None)) keys
        @ List.map (fun e -> (e, None)) partials
        @ [ (Ast.Fn ("min", [ Ast.Col (None, grid_col) ]), None) ]
      in
      Grouped
        {
          g_shard =
            {
              select with
              Ast.projection = Ast.Exprs shard_items;
              having = None;
              order_by = [];
              limit = None;
            };
          g_columns = List.map Ast.item_name items;
          g_nkeys = List.length keys;
          g_aggs = aggs;
          g_items = merge_items;
          g_having = having;
          g_order = order;
          g_limit = select.Ast.limit;
        }
    end
  with Reject reason -> Not_shardable reason

(* ------------------------------------------------------------------ *)
(* Merging: feed the shards' partials into the executor's accumulators
   (Agg), then finish through its own tail (Exec.finish_groups,
   Exec.order_and_limit), so aggregates, HAVING, ORDER BY, LIMIT and
   the empty-input rule are its code                                    *)

let merge_plain p gathered =
  let n_items = p.p_items in
  let grid (row : D.value array) =
    match row.(Array.length row - 1) with D.Int g -> g | _ -> max_int
  in
  (* restore the global scan order; the tail sorts on top of it *)
  let in_grid_order =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (List.map (fun row -> (grid row, row)) gathered)
  in
  let decorated =
    List.map
      (fun (_, row) ->
        ( Array.sub row 0 n_items,
          List.mapi (fun i asc -> (row.(n_items + i), asc)) p.p_order ))
      in_grid_order
  in
  {
    Exec.columns = p.p_columns;
    rows = Exec.order_and_limit ~limit:p.p_limit decorated;
  }

type group = {
  gaggs : Agg.group;
  mutable gmin_grid : int;
}

let merge_grouped ~udts g gathered =
  let index = ref Exec.Group_keys.empty and order = ref [] in
  List.iter
    (fun (row : D.value array) ->
      let key = List.init g.g_nkeys (Array.get row) in
      let grp =
        match Exec.Group_keys.find_opt key !index with
        | Some grp -> grp
        | None ->
            let lookup _ name =
              match int_of_string_opt name with
              | Some i when i >= 0 && i < g.g_nkeys -> Ok (List.nth key i)
              | _ -> Error ("unknown column " ^ name)
            in
            let grp =
              { gaggs = Agg.group g.g_aggs { Eval.lookup; udts }; gmin_grid = max_int }
            in
            index := Exec.Group_keys.add key grp !index;
            order := grp :: !order;
            grp
      in
      Agg.feed_partials grp.gaggs row g.g_nkeys;
      match row.(Array.length row - 1) with
      | D.Int grid when grid < grp.gmin_grid -> grp.gmin_grid <- grid
      | _ -> ())
    gathered;
  (* global group order = first occurrence in the unpartitioned scan *)
  let ordered =
    List.stable_sort
      (fun a b -> Int.compare a.gmin_grid b.gmin_grid)
      (List.rev !order)
  in
  Result.map
    (fun rows ->
      { Exec.columns = g.g_columns; rows = Exec.order_and_limit ~limit:g.g_limit rows })
    (Exec.finish_groups ~items:g.g_items ~having:g.g_having ~order_by:g.g_order
       (List.map (fun grp -> grp.gaggs) ordered))
