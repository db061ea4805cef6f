module D = Genalg_storage.Dtype
module Db = Genalg_storage.Database
module Table = Genalg_storage.Table
module Schema = Genalg_storage.Schema

type result_set = {
  columns : string list;
  rows : D.value array list;
}

type outcome =
  | Rows of result_set
  | Affected of int
  | Executed

let ( let* ) = Result.bind

module Obs = Genalg_obs.Obs
module Lru = Genalg_cache.Lru
module Par = Genalg_par.Par

let c_queries = Obs.counter "sqlx.queries"
let c_statements = Obs.counter "sqlx.statements"
let c_rows_out = Obs.counter "sqlx.rows_out"
let c_hash_steps = Obs.counter "sqlx.join.hash_steps"
let c_nested_steps = Obs.counter "sqlx.join.nested_steps"
let c_scan_partitions = Obs.counter "sqlx.scan.partitions"

type binding = {
  alias : string;
  schema : Schema.t;
  values : D.value array;
}

let lookup_in bindings qualifier name =
  let lname = String.lowercase_ascii name in
  match qualifier with
  | Some q ->
      let lq = String.lowercase_ascii q in
      (match List.find_opt (fun b -> String.lowercase_ascii b.alias = lq) bindings with
      | None -> Error (Printf.sprintf "unknown table alias %s" q)
      | Some b -> (
          match Schema.column_index b.schema lname with
          | Some i -> Ok b.values.(i)
          | None -> Error (Printf.sprintf "no column %s in %s" name q)))
  | None -> (
      let hits =
        List.filter_map
          (fun b ->
            Option.map (fun i -> b.values.(i)) (Schema.column_index b.schema lname))
          bindings
      in
      match hits with
      | [ v ] -> Ok v
      | [] -> Error (Printf.sprintf "unknown column %s" name)
      | _ -> Error (Printf.sprintf "ambiguous column %s" name))

let env_of db bindings =
  { Eval.lookup = (fun q n -> lookup_in bindings q n); udts = Db.udts db }

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

(* ------------------------------------------------------------------ *)
(* Parallel row filtering and join expansion.

   The heap already holds rows as immutable arrays; a scan gathers them
   sequentially and the binding arrays are then partitioned over the
   {!Par} pool. Each partition writes only its own slot and partitions
   are merged in input order, so results — including which error
   surfaces first — are identical for any jobs setting. *)

let par_row_threshold = 256

let apply_filters db filters row =
  let rec apply = function
    | [] -> Ok true
    | f :: fs -> (
        match Eval.eval_predicate (env_of db row) f with
        | Ok true -> apply fs
        | Ok false -> Ok false
        | Error _ as e -> e)
  in
  apply filters

(* [expand_ordered ~expand items] maps every item to the (ordered) list of
   rows it produces and concatenates in input order; the first error in
   input order wins. Parallel when worthwhile; returns the degree of
   parallelism used. *)
let expand_ordered ~expand items =
  let n = Array.length items in
  let j = Par.jobs () in
  let dop = if j > 1 && n >= par_row_threshold then j else 1 in
  let results = if dop > 1 then Par.parallel_map expand items else Array.map expand items in
  let rec merge acc i =
    if i = n then Ok (List.rev acc)
    else
      match results.(i) with
      | Ok rows -> merge (List.rev_append rows acc) (i + 1)
      | Error _ as e -> e
  in
  let* out = merge [] 0 in
  Ok (out, dop)

let filter_ordered db filters items =
  expand_ordered items ~expand:(fun row ->
      let* keep = apply_filters db filters row in
      Ok (if keep then [ row ] else []))

(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)

let scan_table db ~actor (tp : Plan.table_plan) =
  match Db.resolve db ~actor tp.Plan.table with
  | None -> Error (Printf.sprintf "unknown or unreadable table %s" tp.Plan.table)
  | Some (_, table) ->
      let schema = Table.schema table in
      let from_rids rids =
        List.filter_map (fun rid -> Table.get table rid) rids
      in
      let full_scan () =
        let acc = ref [] in
        Table.scan table (fun _ row -> acc := row :: !acc);
        List.rev !acc
      in
      (* when a genomic access path cannot serve the pattern, fall back
         to a scan and re-apply the containment predicate *)
      let fallback_filter = ref [] in
      let raw_rows =
        match tp.Plan.access with
        | Plan.Full_scan -> full_scan ()
        | Plan.Genomic_contains { column; pattern } -> (
            match Table.genomic_search table ~column ~pattern with
            | `Hits rids -> from_rids rids
            | `No_index | `Unsupported_pattern ->
                fallback_filter :=
                  [ Ast.Fn
                      ( "contains",
                        [ Ast.Col (None, column); Ast.Lit (D.Str pattern) ] ) ];
                full_scan ())
        | Plan.Genomic_seed { column; pattern; min_len; _ } -> (
            (* candidate superset only: the resembles conjunct is still in
               tp.filters, so falling back to a full scan — or candidates
               that over-approximate — never changes results *)
            match Table.genomic_seed table ~column ~pattern ~min_len with
            | `Hits rids -> from_rids rids
            | `No_index | `Unsupported_pattern -> full_scan ())
        | Plan.Index_eq { column; key } -> (
            match Table.index_lookup table ~column key with
            | Some rids -> from_rids rids
            | None -> full_scan ())
        | Plan.Index_range { column; lo; hi; lo_inclusive; hi_inclusive } -> (
            match
              Table.index_range table ~column ?lo ?hi ~lo_inclusive ~hi_inclusive ()
            with
            | Some rids -> from_rids rids
            | None -> full_scan ())
      in
      let bindings_of row = { alias = tp.Plan.alias; schema; values = row } in
      (* apply pushed-down filters in plan order, over parallel
         partitions of the decoded rows when worthwhile *)
      (match !fallback_filter @ tp.Plan.filters with
      | [] -> Ok (List.map bindings_of raw_rows, 1, None)
      | filters ->
          (* batch-at-a-time: columnar chunks with selection vectors,
             packed kernels where the classifier allows, the row
             evaluator otherwise (docs/EXECUTION.md) *)
          let rows = Array.of_list raw_rows in
          let dtype_of qualifier name =
            let qualifier_ok =
              match qualifier with
              | None -> true
              | Some q ->
                  String.lowercase_ascii q
                  = String.lowercase_ascii tp.Plan.alias
            in
            if not qualifier_ok then None
            else
              match Schema.column_index schema (String.lowercase_ascii name) with
              | Some i -> Some ((Schema.column schema i).Schema.dtype, i)
              | None -> None
          in
          let resolves name args =
            Genalg_storage.Udt.resolve_function (Db.udts db) name args <> None
          in
          let stages = Vec.compile ~dtype_of ~resolves filters in
          let eval_row values f =
            Eval.eval_predicate (env_of db [ bindings_of values ]) f
          in
          let* kept, report = Vec.run ~eval_row ~stages rows in
          if report.Vec.parts > 1 then Obs.add c_scan_partitions report.Vec.parts;
          Ok
            ( List.map (fun i -> bindings_of rows.(i)) kept,
              report.Vec.parts,
              Some report ))

(* When the index-eq access came from a conjunct that the planner removed,
   rows from a fallback full scan could violate it. To stay correct we
   re-check index-access conjuncts only when the index was missing; the
   scan above already handles that by falling back WITHOUT dropping the
   conjunct — the planner only removes it when the catalog reported an
   index, in which case the index path is taken. *)

(* ------------------------------------------------------------------ *)
(* Joins: one step per table after the first, strategy chosen by the
   planner. A hash step builds a table over the incoming rows keyed on
   the join column and probes it with each accumulated row; key equality
   follows SQL [=] (NULL keys never match; Int and Float keys compare
   numerically, so the hash normalizes Int to Float).                    *)

module JoinHash = Hashtbl.Make (struct
  type t = D.value

  let equal a b = D.compare_value a b = 0

  let hash v =
    Hashtbl.hash
      (match v with D.Int i -> D.Float (float_of_int i) | v -> v)
end)

let build_hash right_rows ~inner_col ~step_alias =
  let tbl = JoinHash.create (max 16 (2 * List.length right_rows)) in
  let* idx =
    match right_rows with
    | [] -> Ok (-1)
    | b :: _ -> (
        match Schema.column_index b.schema (String.lowercase_ascii inner_col) with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "no column %s in %s" inner_col step_alias))
  in
  List.iter
    (fun b ->
      let key = b.values.(idx) in
      if key <> D.Null then
        let prev = Option.value (JoinHash.find_opt tbl key) ~default:[] in
        JoinHash.replace tbl key (b :: prev))
    right_rows;
  (* per-key chains back into scan order so output matches a nested loop *)
  JoinHash.filter_map_inplace (fun _ l -> Some (List.rev l)) tbl;
  Ok tbl

(* Expand one accumulated row through the step: nested loop walks every
   incoming row; hash probes the build table. Both apply the step's
   residual filters per combined row and keep incoming-scan order. *)
let exec_join_step db (step : Plan.join_step) ~right_rows acc_rows =
  let* expand =
    match step.Plan.strategy with
    | Plan.Nested_loop ->
        Obs.add c_nested_steps 1;
        Ok
          (fun row ->
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | b :: rest ->
                  let combined = row @ [ b ] in
                  let* keep = apply_filters db step.Plan.step_filters combined in
                  go (if keep then combined :: acc else acc) rest
            in
            go [] right_rows)
    | Plan.Hash_join { outer_alias; outer_col; inner_col } ->
        Obs.add c_hash_steps 1;
        let* tbl =
          build_hash right_rows ~inner_col ~step_alias:step.Plan.step_alias
        in
        Ok
          (fun row ->
            let* key = lookup_in row (Some outer_alias) outer_col in
            if key = D.Null then Ok []
            else
              let matches =
                Option.value (JoinHash.find_opt tbl key) ~default:[]
              in
              let rec go acc = function
                | [] -> Ok (List.rev acc)
                | b :: rest ->
                    let combined = row @ [ b ] in
                    let* keep =
                      apply_filters db step.Plan.step_filters combined
                    in
                    go (if keep then combined :: acc else acc) rest
              in
              go [] matches)
  in
  expand_ordered ~expand (Array.of_list acc_rows)

(* ------------------------------------------------------------------ *)
(* Result cache (docs/CACHING.md): read-only SELECT results, one LRU per
   database, keyed on (actor, optimize flag, SELECT ast). Entries carry
   the version counters of every table they touched and are validated on
   lookup and swept on every miss, so invalidation is correct no matter
   which path wrote (sqlx, the ETL loader, or direct Table calls). *)

type query_key = {
  qk_actor : string; (* lowercased; resolution is case-insensitive *)
  qk_optimize : bool;
  qk_select : Ast.select;
}

type result_entry = {
  re_rs : result_set;
  re_catalog : int;
  re_deps : (string * int * int) list; (* table, data_version, schema_version *)
}

type Db.cache += Results of (query_key, result_entry) Lru.t

let value_weight = function
  | D.Null | D.Bool _ | D.Int _ | D.Float _ -> 16
  | D.Str s -> 24 + String.length s
  | D.Opaque (tag, payload) -> 32 + String.length tag + Bytes.length payload

let result_weight _ e =
  List.fold_left
    (fun acc row -> Array.fold_left (fun acc v -> acc + value_weight v) (acc + 24) row)
    (List.fold_left (fun acc c -> acc + 24 + String.length c) 0 e.re_rs.columns)
    e.re_rs.rows

(* created on first use, so snapshot clones that never SELECT pay nothing *)
let result_cache db =
  match Db.cache db with
  | Some (Results c) -> c
  | _ ->
      let c =
        Lru.create ~name:"result" ~max_entries:128 ~max_bytes:(4 * 1024 * 1024)
          ~weight:result_weight ()
      in
      Db.set_cache db (Results c);
      c

let dep_table db ~actor name =
  Option.map snd (Db.resolve db ~actor name)

let result_deps db ~actor (select : Ast.select) =
  (* only called after a successful execution, so every table resolves *)
  List.filter_map
    (fun (table, _alias) ->
      Option.map
        (fun t -> (table, Table.data_version t, Table.schema_version t))
        (dep_table db ~actor table))
    select.Ast.from

let result_fresh db ~actor e =
  e.re_catalog = Db.catalog_version db
  && List.for_all
       (fun (table, dv, sv) ->
         match dep_table db ~actor table with
         | Some t -> Table.data_version t = dv && Table.schema_version t = sv
         | None -> false)
       e.re_deps

(* what the planner knows about the actor's tables, read live *)
let catalog_of db ~actor =
  let resolve table f d =
    match Db.resolve db ~actor table with Some (_, t) -> f t | None -> d
  in
  {
    Plan.has_index = (fun ~table ~column -> resolve table (Table.has_index ~column) false);
    has_genomic_index =
      (fun ~table ~column -> resolve table (Table.has_genomic_index ~column) false);
    column_exists =
      (fun ~table ~column ->
        resolve table
          (fun t -> Schema.column_index (Table.schema t) column <> None)
          false);
    column_dtype =
      (fun ~table ~column ->
        resolve table
          (fun t ->
            let schema = Table.schema t in
            Option.map
              (fun i -> (Schema.column schema i).Schema.dtype)
              (Schema.column_index schema column))
          None);
    analyzed = (fun ~table -> resolve table Table.has_stats false);
    row_count = (fun ~table -> resolve table Table.row_count 0);
    stats_of = (fun ~table ~column -> resolve table (Table.column_stats ~column) None);
    genomic_k_of = (fun ~table ~column -> resolve table (Table.genomic_k ~column) None);
    genomic_mean_len_of =
      (fun ~table ~column -> resolve table (Table.genomic_mean_len ~column) None);
  }

let plan_of db ~actor ~optimize select =
  Plan.make ~optimize (catalog_of db ~actor) select

(* per-operator execution profile; [elapsed_s] is inclusive of children *)
type op_profile = {
  op : string;
  actual_rows : int;
  est_rows : int option;
      (* planner's cardinality estimate, when the plan carried one *)
  elapsed_s : float;
  children : op_profile list;
}

let est_of = Option.map (fun e -> int_of_float (Float.round e))

(* GROUP BY keys: two keys are one group when [D.compare_value] finds
   every pair of values equal, so NULLs form one group and Int 1 meets
   Float 1.0. *)
module Group_keys = Map.Make (struct
  type t = D.value list

  let compare = List.compare D.compare_value
end)

(* ------------------------------------------------------------------ *)
(* Query tail: HAVING, the per-group projection and ORDER BY keys, then
   the stable sort and LIMIT. The scatter merge finishes its merged
   groups through these same functions. *)

type keyed_row = D.value array * (D.value * bool) list

let order_keys eval order_by =
  map_result
    (fun { Ast.key; ascending } ->
      let* v = eval key in
      Ok (v, ascending))
    order_by

let finish_groups ~items ~having ~order_by groups =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | g :: rest when Agg.lacks_row g -> loop acc rest
    | g :: rest ->
        let eval = Agg.eval g in
        let* keep =
          match having with
          | None -> Ok true
          | Some h -> (
              let* v = eval h in
              match v with
              | D.Bool b -> Ok b
              | D.Null -> Ok false
              | v ->
                  Error (Printf.sprintf "HAVING evaluated to %s" (D.value_to_display v)))
        in
        if not keep then loop acc rest
        else
          let* vs = map_result (fun (e, _) -> eval e) items in
          let* ks = order_keys eval order_by in
          loop ((Array.of_list vs, ks) :: acc) rest
  in
  loop [] groups

let order_and_limit ?(on_sorted = ignore) ~limit (rows : keyed_row list) =
  let rec compare_keys ka kb =
    match ka, kb with
    | (va, asc) :: ra, (vb, _) :: rb ->
        let c = D.compare_value va vb in
        if c <> 0 then if asc then c else -c else compare_keys ra rb
    | _ -> 0
  in
  let sorted =
    match rows with
    | (_, _ :: _) :: _ ->
        List.stable_sort (fun (_, ka) (_, kb) -> compare_keys ka kb) rows
    | _ -> rows
  in
  on_sorted ();
  match limit with
  | None -> List.map fst sorted
  | Some n -> List.filteri (fun i _ -> i < n) sorted |> List.map fst

(* ORDER BY and LIMIT through the tail, wrapping the scan/join/group
   base in Sort, Limit and Select nodes; stage times are measured from
   [t_query0] so every node is inclusive *)
let finish_profiled ~(select : Ast.select) ~join_prof ~group_prof ~t_query0 decorated =
  let t_after_sort = ref t_query0 in
  let rows =
    order_and_limit
      ~on_sorted:(fun () -> t_after_sort := Obs.now_s ())
      ~limit:select.Ast.limit decorated
  in
  let t_after_limit = Obs.now_s () in
  let n_out = List.length rows in
  Obs.add c_rows_out n_out;
  let base = match group_prof with Some g -> g | None -> join_prof in
  let base =
    if select.Ast.order_by = [] then base
    else
      { op =
          Printf.sprintf "Sort [%s]"
            (String.concat "; "
               (List.map
                  (fun { Ast.key; ascending } ->
                    Ast.expr_to_string key ^ if ascending then "" else " DESC")
                  select.Ast.order_by));
        actual_rows = List.length decorated;
        est_rows = None;
        elapsed_s = !t_after_sort -. t_query0;
        children = [ base ] }
  in
  let base =
    match select.Ast.limit with
    | None -> base
    | Some n ->
        { op = Printf.sprintf "Limit %d" n; actual_rows = n_out;
          est_rows = None; elapsed_s = t_after_limit -. t_query0;
          children = [ base ] }
  in
  ( rows,
    { op = "Select"; actual_rows = n_out; est_rows = None;
      elapsed_s = Obs.now_s () -. t_query0; children = [ base ] } )

let run_select_profiled ?(optimize = true) db ~actor (select : Ast.select) =
  Obs.add c_queries 1;
  Obs.with_span "sqlx.select" @@ fun () ->
  let plan = plan_of db ~actor ~optimize select in
  let t_query0 = Obs.now_s () in
  let scan_profs = ref [] in
  let timed_scan (tp : Plan.table_plan) =
    let t0 = Obs.now_s () in
    let res =
      Obs.with_span ~attrs:[ ("table", tp.Plan.table) ] "sqlx.scan" (fun () ->
          scan_table db ~actor tp)
    in
    (match res with
    | Ok (rows, parts, vec) ->
        let label =
          Printf.sprintf "Scan %s%s via %s%s%s%s" tp.Plan.table
            (if tp.Plan.alias <> tp.Plan.table then " as " ^ tp.Plan.alias else "")
            (Plan.access_to_string tp.Plan.access)
            (if parts > 1 then Printf.sprintf " [partitions=%d]" parts else "")
            (match tp.Plan.filters with
            | [] -> ""
            | fs ->
                Printf.sprintf " filter [%s]"
                  (String.concat "; " (List.map Ast.expr_to_string fs)))
            (match vec with
            | Some r -> " " ^ Vec.report_to_string r
            | None -> "")
        in
        scan_profs :=
          { op = label; actual_rows = List.length rows;
            est_rows = est_of tp.Plan.est_rows;
            elapsed_s = Obs.now_s () -. t0; children = [] }
          :: !scan_profs
    | Error _ -> ());
    Result.map (fun (rows, _, _) -> rows) res
  in
  (* scan + join: one step per table after the first, following the
     planner's per-step strategy and filter assignment *)
  let* joined, join_prof =
    match plan.Plan.tables with
    | [] -> Error "SELECT requires a FROM clause"
    | first :: rest ->
        let* first_rows = timed_scan first in
        let first_rows = List.map (fun b -> [ b ]) first_rows in
        let join_dop = ref 1 in
        let rec join_loop acc_rows steps tps =
          match steps, tps with
          | [], [] -> Ok acc_rows
          | step :: steps_rest, tp :: tps_rest ->
              let* right_rows = timed_scan tp in
              let* out, dop = exec_join_step db step ~right_rows acc_rows in
              join_dop := max !join_dop dop;
              join_loop out steps_rest tps_rest
          | _ -> Error "internal error: join plan shape mismatch"
        in
        let* out = join_loop first_rows plan.Plan.joins rest in
        (* conjuncts no step could evaluate: apply last so the same
           evaluation error a nested loop would hit still surfaces *)
        let* out =
          match plan.Plan.tail_filters with
          | [] -> Ok out
          | fs ->
              let* kept, dop = filter_ordered db fs (Array.of_list out) in
              join_dop := max !join_dop dop;
              Ok kept
        in
        let scans = List.rev !scan_profs in
        let prof =
          match scans, plan.Plan.joins, plan.Plan.tail_filters with
          | [ s ], [], [] -> s
          | _ ->
              let describe (step : Plan.join_step) =
                Printf.sprintf "%s: %s%s" step.Plan.step_alias
                  (Plan.strategy_to_string step)
                  (match step.Plan.step_filters with
                  | [] -> ""
                  | fs ->
                      Printf.sprintf " filter [%s]"
                        (String.concat "; " (List.map Ast.expr_to_string fs)))
              in
              let op =
                (match plan.Plan.joins with
                | [] -> "Join"
                | steps ->
                    Printf.sprintf "Join [%s]"
                      (String.concat "; " (List.map describe steps)))
                ^ (match plan.Plan.tail_filters with
                  | [] -> ""
                  | fs ->
                      Printf.sprintf " filter [%s]"
                        (String.concat "; " (List.map Ast.expr_to_string fs)))
                ^
                if !join_dop > 1 then Printf.sprintf " (jobs=%d)" !join_dop
                else ""
              in
              { op; actual_rows = List.length out;
                est_rows = est_of plan.Plan.est_out;
                elapsed_s = Obs.now_s () -. t_query0; children = scans }
        in
        Ok (out, prof)
  in
  (* cost-based join reordering permutes execution order; bindings are
     restored to the written FROM order here so projection output
     (column order of SELECT *, column names) is plan-invariant *)
  let joined =
    let planned = List.map (fun (tp : Plan.table_plan) -> tp.Plan.alias) plan.Plan.tables in
    if planned = plan.Plan.output_order then joined
    else
      List.map
        (fun bindings ->
          List.filter_map
            (fun a ->
              List.find_opt
                (fun b -> String.lowercase_ascii b.alias = String.lowercase_ascii a)
                bindings)
            plan.Plan.output_order)
        joined
  in
  (* projection setup *)
  let column_names bindings =
    let multi = List.length bindings > 1 in
    List.concat_map
      (fun b ->
        List.map
          (fun (c : Schema.column) ->
            if multi then b.alias ^ "." ^ c.Schema.name else c.Schema.name)
          (Schema.columns b.schema))
      bindings
  in
  if not (Ast.needs_grouping select) then begin
    let* columns, rows =
      match select.Ast.projection with
      | Ast.Star ->
          let rows =
            List.map
              (fun bindings ->
                Array.concat (List.map (fun b -> Array.copy b.values) bindings))
              joined
          in
          let columns =
            match joined with
            | [] -> (
                (* derive names from the plan's tables, in FROM order *)
                match
                  List.filter_map
                    (fun a ->
                      List.find_opt
                        (fun (tp : Plan.table_plan) ->
                          String.lowercase_ascii tp.Plan.alias
                          = String.lowercase_ascii a)
                        plan.Plan.tables)
                    plan.Plan.output_order
                with
                | [] -> []
                | tps ->
                    let multi = List.length tps > 1 in
                    List.concat_map
                      (fun (tp : Plan.table_plan) ->
                        match Db.resolve db ~actor tp.Plan.table with
                        | Some (_, t) ->
                            List.map
                              (fun (c : Schema.column) ->
                                if multi then tp.Plan.alias ^ "." ^ c.Schema.name
                                else c.Schema.name)
                              (Schema.columns (Table.schema t))
                        | None -> [])
                      tps)
            | first :: _ -> column_names first
          in
          Ok (columns, rows)
      | Ast.Exprs items ->
          let columns = List.map Ast.item_name items in
          let rec per_row acc = function
            | [] -> Ok (List.rev acc)
            | bindings :: rest ->
                let env = env_of db bindings in
                let* vs = map_result (fun (e, _) -> Eval.eval env e) items in
                per_row (Array.of_list vs :: acc) rest
          in
          let* rows = per_row [] joined in
          Ok (columns, rows)
    in
    (* ORDER BY keys over source rows, once every row is projected: a
       projection error anywhere wins over a key error *)
    let* decorated =
      let rec deco acc rows ctxs =
        match rows, ctxs with
        | row :: rrest, ctx :: crest ->
            let* ks = order_keys (Eval.eval (env_of db ctx)) select.Ast.order_by in
            deco ((row, ks) :: acc) rrest crest
        | _ -> Ok (List.rev acc)
      in
      deco [] rows joined
    in
    let rows, prof =
      finish_profiled ~select ~join_prof ~group_prof:None ~t_query0 decorated
    in
    Ok ({ columns; rows }, prof)
  end
  else begin
    (* grouping path: one pass over the rows finds each row's group
       through a map on its key and feeds the group's accumulators, one
       per distinct aggregate call. Groups are listed newest first in
       first-appearance order, reversed once at the end. An aggregate
       query without GROUP BY is one group, one that saw no rows on
       empty input. *)
    let items =
      match select.Ast.projection with
      | Ast.Exprs items -> items
      | Ast.Star -> []
    in
    let* calls = Agg.collect select in
    let index = ref Group_keys.empty and order = ref [] in
    let rec key_rows = function
      | [] -> Ok ()
      | bindings :: rest ->
          let env = env_of db bindings in
          let* k = map_result (Eval.eval env) select.Ast.group_by in
          let g =
            match Group_keys.find_opt k !index with
            | Some g -> g
            | None ->
                let g = Agg.group calls env in
                index := Group_keys.add k g !index;
                order := g :: !order;
                g
          in
          Agg.feed_row g env;
          key_rows rest
    in
    let* () = key_rows joined in
    let groups =
      match !order, select.Ast.group_by with
      | [], [] -> [ Agg.group calls (env_of db []) ]
      | groups, _ -> List.rev groups
    in
    let* out_rows =
      finish_groups ~items ~having:select.Ast.having ~order_by:select.Ast.order_by
        groups
    in
    let group_prof =
      let op =
        (if select.Ast.group_by = [] then "Aggregate"
         else
           Printf.sprintf "Group by [%s]"
             (String.concat "; " (List.map Ast.expr_to_string select.Ast.group_by)))
        ^
        match select.Ast.having with
        | None -> ""
        | Some h -> Printf.sprintf " having [%s]" (Ast.expr_to_string h)
      in
      { op; actual_rows = List.length out_rows; est_rows = None;
        elapsed_s = Obs.now_s () -. t_query0; children = [ join_prof ] }
    in
    let rows, prof =
      finish_profiled ~select ~join_prof ~group_prof:(Some group_prof) ~t_query0
        out_rows
    in
    Ok ({ columns = List.map Ast.item_name items; rows }, prof)
  end

let run_select ?optimize db ~actor select =
  let* rs, _prof = run_select_profiled ?optimize db ~actor select in
  Ok rs

(* ------------------------------------------------------------------ *)
(* EXPLAIN                                                             *)

let render_profile prof =
  let fmt_t t =
    if t >= 1. then Printf.sprintf "%.3f s" t
    else if t >= 1e-3 then Printf.sprintf "%.3f ms" (t *. 1e3)
    else Printf.sprintf "%.1f us" (t *. 1e6)
  in
  let lines = ref [] in
  let rec go prefix child_prefix node =
    lines :=
      Printf.sprintf "%s%s  (rows=%d%s, time=%s)" prefix node.op node.actual_rows
        (match node.est_rows with
        | Some e -> Printf.sprintf ", est~%d" e
        | None -> "")
        (fmt_t node.elapsed_s)
      :: !lines;
    let n = List.length node.children in
    List.iteri
      (fun i c ->
        let last = i = n - 1 in
        go
          (child_prefix ^ if last then "└─ " else "├─ ")
          (child_prefix ^ if last then "   " else "│  ")
          c)
      node.children
  in
  go "" "" prof;
  List.rev !lines

let explain ?optimize db ~actor ~analyze select =
  if analyze then
    let* _rs, prof = run_select_profiled ?optimize db ~actor select in
    Ok { columns = [ "QUERY PLAN" ];
         rows = List.map (fun l -> [| D.Str l |]) (render_profile prof) }
  else
    let optimize = Option.value optimize ~default:true in
    let plan = plan_of db ~actor ~optimize select in
    Ok { columns = [ "QUERY PLAN" ];
         rows =
           List.map
             (fun l -> [| D.Str l |])
             (String.split_on_char '\n'
                (Plan.to_string ~jobs:(Par.jobs ()) plan)) }

(* ------------------------------------------------------------------ *)
(* DML / DDL                                                           *)

let target_space ~actor =
  if actor = Db.loader_actor then Db.Public else Db.User actor

let run ?optimize db ~actor stmt =
  Obs.add c_statements 1;
  match stmt with
  | Ast.Select s -> (
      (* read-only: served from the result cache when every dependency's
         version counters still match (see docs/CACHING.md) *)
      let key =
        { qk_actor = String.lowercase_ascii actor;
          qk_optimize = Option.value optimize ~default:true; qk_select = s }
      in
      let cache = result_cache db in
      match Lru.find_validated cache key ~validate:(result_fresh db ~actor) with
      | Some e ->
          Obs.add c_queries 1;
          Obs.add c_rows_out (List.length e.re_rs.rows);
          Ok (Rows e.re_rs)
      | None ->
          let* rs = run_select ?optimize db ~actor s in
          (* drop the entries writes have made stale, or they would sit
             until eviction and fill the bounds with dead results *)
          ignore
            (Lru.invalidate_where cache (fun k e ->
                 not (result_fresh db ~actor:k.qk_actor e)));
          Lru.put cache key
            { re_rs = rs; re_catalog = Db.catalog_version db;
              re_deps = result_deps db ~actor s };
          Ok (Rows rs))
  | Ast.Explain { analyze; select } ->
      let* rs = explain ?optimize db ~actor ~analyze select in
      Ok (Rows rs)
  | Ast.Create_table { table; defs } ->
      let cols =
        List.map
          (fun (d : Ast.column_def) ->
            {
              Schema.name = d.Ast.col_name;
              dtype = d.Ast.col_type;
              nullable = d.Ast.col_nullable;
            })
          defs
      in
      let* schema = Schema.make cols in
      let* _ = Db.create_table db ~actor ~space:(target_space ~actor) ~name:table schema in
      Ok Executed
  | Ast.Create_index { table; column } -> (
      match Db.resolve db ~actor table with
      | None -> Error (Printf.sprintf "unknown table %s" table)
      | Some (_, t) ->
          let* () = Table.create_index t ~column in
          Ok Executed)
  | Ast.Create_genomic_index { table; column } -> (
      match Db.resolve db ~actor table with
      | None -> Error (Printf.sprintf "unknown table %s" table)
      | Some (_, t) ->
          let* () = Table.create_genomic_index t ~column ~registry:(Db.udts db) in
          Ok Executed)
  | Ast.Insert { table; columns; rows } -> (
      let space = target_space ~actor in
      match Db.find_table db ~space table with
      | None -> Error (Printf.sprintf "no table %s in your writable space" table)
      | Some t ->
          let schema = Table.schema t in
          let arity = Schema.arity schema in
          let env = { Eval.lookup = (fun _ n -> Error ("unknown column " ^ n)); udts = Db.udts db } in
          let rec insert_rows n = function
            | [] -> Ok (Affected n)
            | exprs :: rest ->
                let* values =
                  let rec vals acc = function
                    | [] -> Ok (List.rev acc)
                    | e :: more ->
                        let* v = Eval.eval env e in
                        vals (v :: acc) more
                  in
                  vals [] exprs
                in
                let* row =
                  if columns = [] then
                    if List.length values <> arity then
                      Error
                        (Printf.sprintf "expected %d values, got %d" arity
                           (List.length values))
                    else Ok (Array.of_list values)
                  else begin
                    let row = Array.make arity D.Null in
                    let rec place cols vals =
                      match cols, vals with
                      | [], [] -> Ok row
                      | c :: cs, v :: vs -> (
                          match Schema.column_index schema c with
                          | Some i ->
                              row.(i) <- v;
                              place cs vs
                          | None -> Error (Printf.sprintf "no column %s" c))
                      | _ -> Error "column/value count mismatch"
                    in
                    place columns values
                  end
                in
                let* _rid = Db.insert db ~actor ~space ~table row in
                insert_rows (n + 1) rest
          in
          insert_rows 0 rows)
  | Ast.Analyze table -> (
      match Db.resolve db ~actor table with
      | None -> Error (Printf.sprintf "unknown table %s" table)
      | Some (_, t) ->
          Table.analyze t;
          Ok Executed)
  | Ast.Drop_table table ->
      let space = target_space ~actor in
      let* () = Db.drop_table db ~actor ~space ~name:table in
      Ok Executed
  | Ast.Delete { table; where } -> (
      let space = target_space ~actor in
      match Db.find_table db ~space table with
      | None -> Error (Printf.sprintf "no table %s in your writable space" table)
      | Some t ->
          let schema = Table.schema t in
          let victims = ref [] in
          let err = ref None in
          Table.scan t (fun rid row ->
              if !err = None then
                match where with
                | None -> victims := rid :: !victims
                | Some w -> (
                    let b = { alias = table; schema; values = row } in
                    match Eval.eval_predicate (env_of db [ b ]) w with
                    | Ok true -> victims := rid :: !victims
                    | Ok false -> ()
                    | Error msg -> err := Some msg));
          (match !err with
          | Some msg -> Error msg
          | None ->
              let n =
                List.fold_left
                  (fun n rid -> if Table.delete t rid then n + 1 else n)
                  0 !victims
              in
              Ok (Affected n)))

let query ?optimize db ~actor input =
  let* stmt = Parser.parse input in
  run ?optimize db ~actor stmt

(* column widths in code points, not bytes — EXPLAIN ANALYZE output
   contains multi-byte box-drawing characters *)
let display_width s =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xc0 <> 0x80 then incr n) s;
  !n

let render db rs =
  let registry = Db.udts db in
  let display v = Genalg_storage.Udt.display_value registry v in
  let header = rs.columns in
  let body = List.map (fun row -> List.map display (Array.to_list row)) rs.rows in
  let ncols = List.length header in
  let widths = Array.make (max 1 ncols) 0 in
  List.iteri (fun i h -> widths.(i) <- display_width h) header;
  List.iter
    (List.iteri (fun i cell -> if i < ncols then widths.(i) <- max widths.(i) (display_width cell)))
    body;
  let pad i s = s ^ String.make (max 0 (widths.(i) - display_width s)) ' ' in
  let line cells = "| " ^ String.concat " | " (List.mapi pad cells) ^ " |" in
  let sep =
    "+-"
    ^ String.concat "-+-" (Array.to_list (Array.map (fun w -> String.make w '-') (Array.sub widths 0 ncols)))
    ^ "-+"
  in
  String.concat "\n"
    ((if ncols = 0 then [] else [ sep; line header; sep ])
    @ List.map line body
    @ (if ncols = 0 then [] else [ sep ])
    @ [ Printf.sprintf "(%d row%s)" (List.length body)
          (if List.length body = 1 then "" else "s") ])
