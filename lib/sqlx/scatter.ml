module D = Genalg_storage.Dtype

let grid_col = "__grid"

type agg =
  | A_count_star
  | A_count of Ast.expr
  | A_sum of Ast.expr
  | A_min of Ast.expr
  | A_max of Ast.expr
  | A_avg of Ast.expr

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
  g_keys : Ast.expr list;
  g_aggs : agg list;
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

let same_agg a b =
  match a, b with
  | A_count_star, A_count_star -> true
  | A_count x, A_count y
  | A_sum x, A_sum y
  | A_min x, A_min y
  | A_max x, A_max y
  | A_avg x, A_avg y -> Ast.equal_expr x y
  | _ -> false

let agg_of_call name arg =
  match String.lowercase_ascii name with
  | "count" -> Some (A_count arg)
  | "sum" -> Some (A_sum arg)
  | "avg" -> Some (A_avg arg)
  | "min" -> Some (A_min arg)
  | "max" -> Some (A_max arg)
  | _ -> None

(* collect distinct aggregate occurrences (dedup by argument) *)
let register aggs a =
  if not (List.exists (same_agg a) !aggs) then aggs := !aggs @ [ a ]

let rec collect_aggs aggs e =
  match e with
  | Ast.Count_star -> register aggs A_count_star
  | Ast.Fn (name, [ arg ]) when Ast.is_aggregate_fn name -> (
      if Ast.contains_aggregate arg then raise (Reject "nested aggregate");
      match agg_of_call name arg with
      | Some a -> register aggs a
      | None -> raise (Reject (Printf.sprintf "unknown aggregate %s" name)))
  | Ast.Fn (name, _) when Ast.is_aggregate_fn name ->
      raise (Reject (Printf.sprintf "aggregate %s with wrong arity" name))
  | Ast.Fn (_, args) -> List.iter (collect_aggs aggs) args
  | Ast.Not e | Ast.Neg e -> collect_aggs aggs e
  | Ast.Binop (_, a, b) ->
      collect_aggs aggs a;
      collect_aggs aggs b
  | Ast.Lit _ | Ast.Col _ -> ()

(* After treating aggregates and group-key-equal subtrees as leaves, no
   bare column reference may remain: anything else would need a "first
   row of the group", which no shard can know globally. *)
let rec residual_ok ~keys e =
  if List.exists (Ast.equal_expr e) keys then true
  else
    match e with
    | Ast.Count_star -> true
    | Ast.Fn (name, [ _ ]) when Ast.is_aggregate_fn name -> true
    | Ast.Col _ -> false
    | Ast.Lit _ -> true
    | Ast.Fn (_, args) -> List.for_all (residual_ok ~keys) args
    | Ast.Not e | Ast.Neg e -> residual_ok ~keys e
    | Ast.Binop (_, a, b) -> residual_ok ~keys a && residual_ok ~keys b

let agg_partial_items = function
  | A_count_star -> [ (Ast.Count_star, None) ]
  | A_count e -> [ (Ast.Fn ("count", [ e ]), None) ]
  | A_sum e -> [ (Ast.Fn ("sum", [ e ]), None) ]
  | A_min e -> [ (Ast.Fn ("min", [ e ]), None) ]
  | A_max e -> [ (Ast.Fn ("max", [ e ]), None) ]
  | A_avg e -> [ (Ast.Fn ("sum", [ e ]), None); (Ast.Fn ("count", [ e ]), None) ]

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
      let aggs = ref [] in
      List.iter (fun (e, _) -> collect_aggs aggs e) items;
      Option.iter (collect_aggs aggs) select.Ast.having;
      List.iter
        (fun { Ast.key; _ } -> collect_aggs aggs key)
        select.Ast.order_by;
      let check_residual what e =
        if not (residual_ok ~keys e) then
          raise
            (Reject
               (Printf.sprintf "%s depends on individual rows (%s)" what
                  (Ast.expr_to_string e)))
      in
      List.iter (fun (e, _) -> check_residual "projection" e) items;
      Option.iter (check_residual "HAVING") select.Ast.having;
      List.iter
        (fun { Ast.key; _ } -> check_residual "ORDER BY" key)
        select.Ast.order_by;
      (* count-star doubles as the global-emptiness detector *)
      register aggs A_count_star;
      let aggs = !aggs in
      let shard_items =
        List.map (fun k -> (k, None)) keys
        @ List.concat_map agg_partial_items aggs
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
          g_keys = keys;
          g_aggs = aggs;
          g_items = items;
          g_having = select.Ast.having;
          g_order = select.Ast.order_by;
          g_limit = select.Ast.limit;
        }
    end
  with Reject reason -> Not_shardable reason

(* ------------------------------------------------------------------ *)
(* Merging: combine the shards' partials, then finish through the
   executor's own tail (Exec.finish_groups, Exec.order_and_limit), so
   HAVING, ORDER BY, LIMIT and the empty-input rule are its code       *)

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

(* partial-aggregate accumulators *)
type sum_acc = {
  mutable partials : int;  (* non-null partial sums fed *)
  mutable all_int : bool;
  mutable total : float;
}

type acc =
  | Acc_count of int ref                 (* count / count_star *)
  | Acc_sum of sum_acc
  | Acc_minmax of D.value option ref * int  (* dir: -1 min, +1 max *)
  | Acc_avg of sum_acc * int ref

let fresh_sum () = { partials = 0; all_int = true; total = 0. }

let fresh_acc = function
  | A_count_star | A_count _ -> Acc_count (ref 0)
  | A_sum _ -> Acc_sum (fresh_sum ())
  | A_min _ -> Acc_minmax (ref None, -1)
  | A_max _ -> Acc_minmax (ref None, 1)
  | A_avg _ -> Acc_avg (fresh_sum (), ref 0)

let sum_feed (s : sum_acc) = function
  | D.Int i ->
      s.partials <- s.partials + 1;
      s.total <- s.total +. float_of_int i
  | D.Float f ->
      s.partials <- s.partials + 1;
      s.all_int <- false;
      s.total <- s.total +. f
  | _ ->
      (* Null; a shard-side partial is otherwise always numeric, or the
         shard query itself errored and the caller already fell back *)
      ()

let feed acc (row : D.value array) pos =
  match acc with
  | Acc_count r ->
      (match row.(pos) with D.Int n -> r := !r + n | _ -> ());
      pos + 1
  | Acc_sum s ->
      sum_feed s row.(pos);
      pos + 1
  | Acc_minmax (best, dir) ->
      (match row.(pos), !best with
      | D.Null, _ -> ()
      | v, None -> best := Some v
      | v, Some m -> if D.compare_value v m * dir > 0 then best := Some v);
      pos + 1
  | Acc_avg (s, n) ->
      sum_feed s row.(pos);
      (match row.(pos + 1) with D.Int k -> n := !n + k | _ -> ());
      pos + 2

(* Float addition is not associative: the single node adds every value
   in scan order, so partial float sums from several shards cannot
   reproduce its bits. Such a group is refused, and the caller answers
   from the mirror. *)
let sum_total (s : sum_acc) =
  if s.all_int || s.partials < 2 then Ok s.total
  else Error "float SUM/AVG over partials of several shards"

let acc_value = function
  | Acc_count r -> Ok (D.Int !r)
  | Acc_sum s ->
      if s.partials = 0 then Ok D.Null
      else
        Result.map
          (fun t -> if s.all_int then D.Int (int_of_float t) else D.Float t)
          (sum_total s)
  | Acc_minmax (best, _) -> Ok (Option.value !best ~default:D.Null)
  | Acc_avg (s, n) ->
      if !n = 0 then Ok D.Null
      else Result.map (fun t -> D.Float (t /. float_of_int !n)) (sum_total s)

type group = {
  gkey : D.value list;
  gaccs : acc list;
  mutable gmin_grid : int;
}

let merge_grouped ~udts g gathered =
  let ( let* ) = Result.bind in
  let index = ref Exec.Group_keys.empty and order = ref [] in
  List.iter
    (fun (row : D.value array) ->
      let key = List.init g.g_nkeys (Array.get row) in
      let grp =
        match Exec.Group_keys.find_opt key !index with
        | Some grp -> grp
        | None ->
            let grp =
              { gkey = key; gaccs = List.map fresh_acc g.g_aggs; gmin_grid = max_int }
            in
            index := Exec.Group_keys.add key grp !index;
            order := grp :: !order;
            grp
      in
      ignore (List.fold_left (fun pos acc -> feed acc row pos) g.g_nkeys grp.gaccs);
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
  let env =
    { Eval.lookup = (fun _ n -> Error ("unknown column " ^ n)); udts }
  in
  (* replace group-key subtrees and aggregates with the group's merged
     values; the residue evaluates like the executor's in-group *)
  let to_group grp =
    let rec merge_values acc aggs accs =
      match aggs, accs with
      | a :: aggs, c :: accs ->
          let* v = acc_value c in
          merge_values ((a, v) :: acc) aggs accs
      | _ -> Ok acc
    in
    let* merged = merge_values [] g.g_aggs grp.gaccs in
    let merged_of a =
      match List.find_opt (fun (b, _) -> same_agg a b) merged with
      | Some (_, v) -> v
      | None -> D.Null
    in
    let keyed = List.combine g.g_keys grp.gkey in
    let rec subst e =
      match List.find_opt (fun (k, _) -> Ast.equal_expr e k) keyed with
      | Some (_, v) -> Ast.Lit v
      | None -> (
          match e with
          | Ast.Count_star -> Ast.Lit (merged_of A_count_star)
          | Ast.Fn (name, [ arg ]) when Ast.is_aggregate_fn name -> (
              match agg_of_call name arg with
              | Some a -> Ast.Lit (merged_of a)
              | None -> e)
          | Ast.Fn (name, args) -> Ast.Fn (name, List.map subst args)
          | Ast.Not e -> Ast.Not (subst e)
          | Ast.Neg e -> Ast.Neg (subst e)
          | Ast.Binop (op, a, b) -> Ast.Binop (op, subst a, subst b)
          | Ast.Lit _ | Ast.Col _ -> e)
    in
    (* count-star is always registered: a group counting no rows is the
       empty input of a query without GROUP BY *)
    Ok
      (match merged_of A_count_star with
      | D.Int 0 -> Exec.Empty_input
      | _ -> Exec.Group (fun e -> Eval.eval env (subst e)))
  in
  let rec to_groups acc = function
    | [] -> Ok (List.rev acc)
    | grp :: rest ->
        let* group = to_group grp in
        to_groups (group :: acc) rest
  in
  let* groups = to_groups [] ordered in
  let* rows =
    Exec.finish_groups ~items:g.g_items ~having:g.g_having ~order_by:g.g_order
      groups
  in
  Ok { Exec.columns = g.g_columns; rows = Exec.order_and_limit ~limit:g.g_limit rows }
