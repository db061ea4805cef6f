module D = Genalg_storage.Dtype
module T = Genalg_storage.Table
module Obs = Genalg_obs.Obs

let c_cost_based = Obs.counter "sqlx.opt.cost_based_tables"
let c_index_paths = Obs.counter "sqlx.opt.index_paths"
let c_contains_paths = Obs.counter "sqlx.opt.genomic_contains_paths"
let c_seed_paths = Obs.counter "sqlx.opt.genomic_seed_paths"
let c_reordered = Obs.counter "sqlx.opt.reordered_joins"

type access =
  | Full_scan
  | Index_eq of { column : string; key : D.value }
  | Index_range of {
      column : string;
      lo : D.value option;
      hi : D.value option;
      lo_inclusive : bool;
      hi_inclusive : bool;
    }
  | Genomic_contains of { column : string; pattern : string }
  | Genomic_seed of {
      column : string;
      pattern : string;  (* uppercased, pure ACGT *)
      min_len : int;
      threshold : float;
    }

type table_plan = {
  table : string;
  alias : string;
  access : access;
  filters : Ast.expr list;
  est_rows : float option;
  vec_kernels : string list;
      (* packed-kernel labels the vectorized scan expects to use for
         the pushed-down filters; display-only (EXPLAIN) *)
}

type join_strategy =
  | Nested_loop
  | Hash_join of { outer_alias : string; outer_col : string; inner_col : string }

type join_step = {
  step_alias : string;
  strategy : join_strategy;
  step_filters : Ast.expr list;
  step_est : float option;
}

type t = {
  tables : table_plan list;
  join_filters : Ast.expr list;
  joins : join_step list;
  tail_filters : Ast.expr list;
  est_out : float option;
  output_order : string list;
}

(* What the planner knows about the tables; supplied by the executor
   from live [Table.t] handles so plans see current indexes and stats.
   Columns without ANALYZE statistics use the static selectivities
   below. *)
type catalog = {
  has_index : table:string -> column:string -> bool;
  has_genomic_index : table:string -> column:string -> bool;
  column_exists : table:string -> column:string -> bool;
  column_dtype : table:string -> column:string -> D.t option;
  analyzed : table:string -> bool;
  row_count : table:string -> int;
  stats_of : table:string -> column:string -> T.column_stats option;
  genomic_k_of : table:string -> column:string -> int option;
  genomic_mean_len_of : table:string -> column:string -> float option;
}

(* ------------------------------------------------------------------ *)
(* Vectorized-kernel awareness: which pushed-down filters the
   batch executor will serve with packed kernels. Classification here
   mirrors {!Vec.classify} against the catalog's declared column
   types; the executor re-checks against the live schema and the
   function registry, so this is a planning/display-level promise. *)

let vec_classify catalog ~table ~alias f =
  let dtype_of qualifier name =
    let qualifier_ok =
      match qualifier with
      | None -> true
      | Some q -> String.lowercase_ascii q = String.lowercase_ascii alias
    in
    if not qualifier_ok then None
    else
      Option.map
        (fun dt -> (dt, 0))
        (catalog.column_dtype ~table ~column:name)
  in
  Vec.classify ~dtype_of ~resolves:(fun _ _ -> true) f

let vec_kernels_of catalog ~table ~alias filters =
  List.filter_map
    (fun f -> Option.map Vec.kernel_label (vec_classify catalog ~table ~alias f))
    filters

(* ------------------------------------------------------------------ *)
(* Cost and selectivity models                                         *)

let fn_cost name =
  match String.lowercase_ascii name with
  | "resembles" | "identity" | "edit_distance" -> 5000.
  | "contains" | "find_motif" -> 200.
  | "decode" | "translate" | "find_orfs" | "digest" -> 500.
  | "gc_content" | "melting_temperature" | "reverse_complement" | "complement"
  | "length" | "subsequence" | "molecular_weight" | "gene_sequence"
  | "protein_sequence" | "mrna_sequence" | "transcribe" | "splice"
  | "transcribe_seq" | "gene_id" | "exon_count" ->
      50.
  | _ -> 5.

let rec predicate_cost = function
  | Ast.Lit _ | Ast.Col _ | Ast.Count_star -> 0.5
  | Ast.Not e | Ast.Neg e -> predicate_cost e
  | Ast.Binop (_, a, b) -> 1. +. predicate_cost a +. predicate_cost b
  | Ast.Fn (name, args) ->
      fn_cost name +. List.fold_left (fun acc a -> acc +. predicate_cost a) 0. args

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

(* Probability that a random DNA sequence of moderate length (~1 kb)
   contains a fixed pattern: ~ len * 4^-|pattern|. *)
let contains_selectivity pattern_len =
  clamp 1e-6 1.0 (1000. *. (0.25 ** float_of_int pattern_len))

let rec predicate_selectivity expr =
  match expr with
  | Ast.Fn (name, args) when String.lowercase_ascii name = "contains" -> (
      match args with
      | [ _; Ast.Lit (D.Str pattern) ] -> contains_selectivity (String.length pattern)
      | _ -> 0.1)
  | Ast.Binop (((Ast.Ge | Ast.Gt) as _op), Ast.Fn (name, _), Ast.Lit _)
    when String.lowercase_ascii name = "resembles" ->
      0.02
  | Ast.Binop ((Ast.Le | Ast.Lt), Ast.Lit _, Ast.Fn (name, _))
    when String.lowercase_ascii name = "resembles" ->
      0.02
  | Ast.Binop (Ast.Eq, _, _) -> 0.05
  | Ast.Binop (Ast.Ne, _, _) -> 0.95
  | Ast.Binop ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), _, _) -> 0.3
  | Ast.Binop (Ast.Like, _, _) -> 0.25
  | Ast.Binop (Ast.And, a, b) -> predicate_selectivity a *. predicate_selectivity b
  | Ast.Binop (Ast.Or, a, b) ->
      let sa = predicate_selectivity a and sb = predicate_selectivity b in
      clamp 0. 1. (sa +. sb -. (sa *. sb))
  | Ast.Not e -> clamp 0.001 1. (1. -. predicate_selectivity e)
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div), _, _) -> 0.5
  | Ast.Fn _ -> 0.5
  | Ast.Lit (D.Bool false) -> 0.001
  | Ast.Lit _ | Ast.Col _ | Ast.Count_star -> 0.5
  | Ast.Neg _ -> 0.5

let rank e =
  let s = predicate_selectivity e in
  predicate_cost e /. Float.max 1e-6 (1. -. s)

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)

(* Aliases a conjunct references; unqualified columns are attributed by
   probing the catalog across the FROM tables. *)
let aliases_of catalog from expr =
  let cols = Ast.columns_of_expr expr in
  let resolve (qualifier, col) =
    match qualifier with
    | Some q -> [ q ]
    | None ->
        List.filter_map
          (fun (table, alias) ->
            if catalog.column_exists ~table ~column:col then Some alias else None)
          from
  in
  List.sort_uniq String.compare (List.concat_map resolve cols)

(* The column a conjunct operand names on [alias], if any. *)
let col_of_expr ~alias = function
  | Ast.Col (Some q, c) when String.lowercase_ascii q = String.lowercase_ascii alias
    -> Some c
  | Ast.Col (None, c) -> Some c
  | _ -> None

(* Try to turn a conjunct into an index access for [alias]/[table]. *)
let index_access catalog ~table ~alias expr =
  let col_of = col_of_expr ~alias in
  let indexed c = catalog.has_index ~table ~column:c in
  match expr with
  | Ast.Binop (Ast.Eq, lhs, Ast.Lit v) -> (
      match col_of lhs with
      | Some c when indexed c -> Some (Index_eq { column = c; key = v })
      | _ -> None)
  | Ast.Binop (Ast.Eq, Ast.Lit v, rhs) -> (
      match col_of rhs with
      | Some c when indexed c -> Some (Index_eq { column = c; key = v })
      | _ -> None)
  | Ast.Binop (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), lhs, Ast.Lit v) -> (
      match col_of lhs with
      | Some c when indexed c ->
          let range =
            match op with
            | Ast.Lt ->
                Index_range
                  { column = c; lo = None; hi = Some v; lo_inclusive = true; hi_inclusive = false }
            | Ast.Le ->
                Index_range
                  { column = c; lo = None; hi = Some v; lo_inclusive = true; hi_inclusive = true }
            | Ast.Gt ->
                Index_range
                  { column = c; lo = Some v; hi = None; lo_inclusive = false; hi_inclusive = true }
            | Ast.Ge ->
                Index_range
                  { column = c; lo = Some v; hi = None; lo_inclusive = true; hi_inclusive = true }
            | _ -> assert false
          in
          Some range
      | _ -> None)
  | _ -> None

(* a contains(col, 'LIT') conjunct over a genomically-indexed column
   becomes an access path; the executor re-applies the predicate when it
   must fall back to scanning *)
let genomic_access catalog ~table ~alias expr =
  match expr with
  | Ast.Fn (name, [ col_e; Ast.Lit (D.Str pattern) ])
    when String.lowercase_ascii name = "contains" -> (
      match col_of_expr ~alias col_e with
      | Some c when catalog.has_genomic_index ~table ~column:c ->
          Some (Genomic_contains { column = c; pattern })
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Cost-based access selection: for every table, each candidate access
   path — full scan, each usable B-tree conjunct, the k-mer contains
   path, the resembles seed path — is costed with the [Cost] model and
   the cheapest wins. Selectivities come from ANALYZE statistics where
   they exist and from the static model above where they do not.      *)

let pure_acgt s =
  s <> ""
  && String.for_all (function 'A' | 'C' | 'G' | 'T' -> true | _ -> false) s

(* Selectivity of a single-table conjunct refined by the ANALYZE
   catalog: equality and comparison predicates against literals use the
   measured NDV / histogram; everything else, and every column without
   statistics, keeps the static model. *)
let rec stat_selectivity catalog ~table ~alias expr =
  let column c = catalog.stats_of ~table ~column:c in
  let via_stats col_e f =
    match Option.bind (col_of_expr ~alias col_e) column with
    | Some cs -> ( match f cs with Some s -> Some s | None -> None)
    | None -> None
  in
  let fallback () = predicate_selectivity expr in
  let cmp op col_e v =
    via_stats col_e (fun cs -> Stats.cmp_selectivity cs ~op v)
  in
  let tag = function
    | Ast.Lt -> `Lt | Ast.Le -> `Le | Ast.Gt -> `Gt | Ast.Ge -> `Ge
    | _ -> assert false
  in
  let flip = function `Lt -> `Gt | `Le -> `Ge | `Gt -> `Lt | `Ge -> `Le in
  let r =
    match expr with
    | Ast.Binop (Ast.Eq, col_e, Ast.Lit _) | Ast.Binop (Ast.Eq, Ast.Lit _, col_e)
      ->
        via_stats col_e Stats.eq_selectivity
    | Ast.Binop (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), col_e, Ast.Lit v)
      ->
        cmp (tag op) col_e v
    | Ast.Binop (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), Ast.Lit v, col_e)
      ->
        cmp (flip (tag op)) col_e v
    | Ast.Binop (Ast.And, a, b) ->
        Some
          (stat_selectivity catalog ~table ~alias a
          *. stat_selectivity catalog ~table ~alias b)
    | Ast.Binop (Ast.Or, a, b) ->
        let sa = stat_selectivity catalog ~table ~alias a in
        let sb = stat_selectivity catalog ~table ~alias b in
        Some (clamp 0. 1. (sa +. sb -. (sa *. sb)))
    | Ast.Not e ->
        Some (clamp 0.001 1. (1. -. stat_selectivity catalog ~table ~alias e))
    | _ -> None
  in
  match r with Some s -> clamp 1e-6 1. s | None -> fallback ()

let rank_stats catalog ~table ~alias e =
  let s = stat_selectivity catalog ~table ~alias e in
  predicate_cost e /. Float.max 1e-6 (1. -. s)

(* Recognize [resembles(col, dna('P')) >= t] (and mirrored/strict forms)
   as a seed-path candidate: DNA column with a genomic index, pure-ACGT
   pattern at least the safe minimum length for (k, t). The conjunct is
   NOT consumed — the real predicate still filters the candidates, so
   the path is an optimization, never a semantics change. *)
let seed_of catalog ~table ~alias expr =
  let pattern_of = function
    | Ast.Lit (D.Str p) -> Some p
    | Ast.Fn (name, [ Ast.Lit (D.Str p) ])
      when String.lowercase_ascii name = "dna" ->
        Some p
    | _ -> None
  in
  let threshold_of = function
    | Ast.Lit (D.Float f) -> Some f
    | Ast.Lit (D.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  let decomposed =
    match expr with
    | Ast.Binop ((Ast.Ge | Ast.Gt), Ast.Fn (name, args), lit)
      when String.lowercase_ascii name = "resembles" ->
        Option.map (fun t -> (args, t)) (threshold_of lit)
    | Ast.Binop ((Ast.Le | Ast.Lt), lit, Ast.Fn (name, args))
      when String.lowercase_ascii name = "resembles" ->
        Option.map (fun t -> (args, t)) (threshold_of lit)
    | _ -> None
  in
  match decomposed with
  | Some ([ a; b ], threshold) -> (
      let pick col_e pat_e =
        match (col_of_expr ~alias col_e, pattern_of pat_e) with
        | Some c, Some p -> Some (c, p)
        | _ -> None
      in
      match (match pick a b with Some x -> Some x | None -> pick b a) with
      | Some (column, pattern) -> (
          let pattern = String.uppercase_ascii pattern in
          if not (pure_acgt pattern) then None
          (* the seed bound is only valid for Scoring.dna_default *)
          else if catalog.column_dtype ~table ~column <> Some (D.TOpaque "dna")
          then None
          else
            match catalog.genomic_k_of ~table ~column with
            | None -> None
            | Some k -> (
                match Cost.resembles_min_len ~k ~threshold with
                | Some min_len when String.length pattern >= min_len ->
                    Some (column, pattern, min_len, threshold, k)
                | _ -> None))
      | None -> None)
  | _ -> None

(* Choose the cheapest access path for one table, with its residual
   filters in evaluation order and its row estimate. *)
let plan_table_cost_based catalog ~table ~alias mine =
  Obs.add c_cost_based 1;
  let rows = float_of_int (max 0 (catalog.row_count ~table)) in
  let sel e = stat_selectivity catalog ~table ~alias e in
  let order fs =
    List.stable_sort
      (fun a b ->
        Float.compare
          (rank_stats catalog ~table ~alias a)
          (rank_stats catalog ~table ~alias b))
      fs
  in
  (* per-conjunct evaluation cost: filters the vectorized scan serves
     with a packed kernel are far cheaper than the scalar fn model *)
  let conjunct_cost f =
    match vec_classify catalog ~table ~alias f with
    | Some k -> (
        match k.Vec.k_kind with
        | Vec.Gc_cmp _ -> Cost.vec_gc_row
        | Vec.Len_cmp _ -> Cost.vec_len_row
        | Vec.Contains _ -> Cost.vec_contains_row)
    | None -> predicate_cost f
  in
  let chain fs = List.map (fun f -> (conjunct_cost f, sel f)) fs in
  let without c = List.filter (fun x -> x != c) mine in
  let candidate_of c =
    match index_access catalog ~table ~alias c with
    | Some (Index_eq _ as a) ->
        let fs = order (without c) in
        Some (a, fs, Cost.index_eq ~rows ~eq_sel:(sel c) ~filters:(chain fs))
    | Some (Index_range _ as a) ->
        let fs = order (without c) in
        Some (a, fs, Cost.index_range ~rows ~range_sel:(sel c) ~filters:(chain fs))
    | Some _ | None -> (
        match genomic_access catalog ~table ~alias c with
        | Some (Genomic_contains { column; pattern } as a) -> (
            match
              ( catalog.genomic_k_of ~table ~column,
                catalog.genomic_mean_len_of ~table ~column )
            with
            | Some k, Some mean_len ->
                let fs = order (without c) in
                Some
                  ( a,
                    fs,
                    Cost.genomic_contains ~rows ~k ~mean_len
                      ~pattern_len:(String.length pattern)
                      ~verify_cost:(fn_cost "contains") ~filters:(chain fs) )
            | _ -> None)
        | Some _ | None -> (
            match seed_of catalog ~table ~alias c with
            | Some (column, pattern, min_len, threshold, k) -> (
                match catalog.genomic_mean_len_of ~table ~column with
                | Some mean_len ->
                    (* seed path keeps every conjunct, including the
                       resembles predicate itself *)
                    let fs = order mine in
                    Some
                      ( Genomic_seed { column; pattern; min_len; threshold },
                        fs,
                        Cost.genomic_seed ~rows ~k ~mean_len
                          ~pattern_len:(String.length pattern)
                          ~filters:(chain fs) )
                | None -> None)
            | None -> None))
  in
  let base =
    let fs = order mine in
    (Full_scan, fs, Cost.full_scan ~rows ~filters:(chain fs))
  in
  let best =
    List.fold_left
      (fun ((_, _, be) as acc) c ->
        match candidate_of c with
        | Some ((_, _, e) as cand) when e.Cost.est_cost < be.Cost.est_cost ->
            cand
        | _ -> acc)
      base mine
  in
  let access, filters, est = best in
  (match access with
  | Index_eq _ | Index_range _ -> Obs.add c_index_paths 1
  | Genomic_contains _ -> Obs.add c_contains_paths 1
  | Genomic_seed _ -> Obs.add c_seed_paths 1
  | Full_scan -> ());
  { table; alias; access; filters; est_rows = Some est.Cost.est_rows;
    vec_kernels = [] }

(* ------------------------------------------------------------------ *)
(* Join steps: each cross-table conjunct is applied exactly once, at the
   first join step where every alias it references is bound (fixes the
   deferred-filter double bookkeeping of the executor's old dynamic
   partitioning, which also mis-attributed unqualified columns of
   not-yet-bound tables). A step whose filters include a simple column
   equality between the incoming table and an already-bound one becomes a
   build/probe hash join; everything else stays a nested loop.           *)

(* Aliases a single column reference can belong to. *)
let resolve_col catalog from (qualifier, col) =
  match qualifier with
  | Some q -> [ String.lowercase_ascii q ]
  | None ->
      List.filter_map
        (fun (table, alias) ->
          if catalog.column_exists ~table ~column:col then
            Some (String.lowercase_ascii alias)
          else None)
        from

(* An equality conjunct usable as the hash key when joining [alias_k]
   against the aliases bound before it. Both sides must resolve to exactly
   one alias (so evaluation could not be ambiguous), to existing columns,
   and to opposite sides of the join frontier. *)
let hash_key_of catalog from ~bound ~alias_k expr =
  let table_of alias =
    let la = String.lowercase_ascii alias in
    List.find_map
      (fun (table, a) ->
        if String.lowercase_ascii a = la then Some table else None)
      from
  in
  let side (q, c) =
    let c = String.lowercase_ascii c in
    match resolve_col catalog from (q, c) with
    | [ a ] -> (
        match table_of a with
        | Some table when catalog.column_exists ~table ~column:c -> Some (a, c)
        | _ -> None)
    | _ -> None
  in
  match expr with
  | Ast.Binop (Ast.Eq, Ast.Col (qa, ca), Ast.Col (qb, cb)) -> (
      match side (qa, ca), side (qb, cb) with
      | Some (a1, c1), Some (a2, c2) ->
          let lk = String.lowercase_ascii alias_k in
          if a1 = lk && a2 <> lk && List.mem a2 bound then
            Some (Hash_join { outer_alias = a2; outer_col = c2; inner_col = c1 })
          else if a2 = lk && a1 <> lk && List.mem a1 bound then
            Some (Hash_join { outer_alias = a1; outer_col = c1; inner_col = c2 })
          else None
      | _ -> None)
  | _ -> None

(* Distribute [join_filters] (kept in their evaluation order) over the
   join steps; conjuncts no step can ever evaluate go to [tail_filters]
   so the executor surfaces the evaluation error exactly like a nested
   loop would. *)
let make_steps ~hash_join catalog (from : (string * string) list) classified
    join_filters =
  match from with
  | [] | [ _ ] -> ([], join_filters)
  | _ :: rest ->
      let aliases = List.map (fun (_, a) -> String.lowercase_ascii a) from in
      let alias_array = Array.of_list aliases in
      let bound_upto k =
        Array.to_list (Array.sub alias_array 0 (k + 1))
      in
      let step_of f =
        let af =
          match List.assoc_opt f classified with
          | Some al -> List.map String.lowercase_ascii al
          | None -> []
        in
        let rec find k =
          if k >= Array.length alias_array then None
          else if
            List.for_all (fun a -> List.mem a (bound_upto k)) af
          then Some (max 1 k)
          else find (k + 1)
        in
        find 0
      in
      let placed = List.map (fun f -> (f, step_of f)) join_filters in
      let tail = List.filter_map (fun (f, s) -> if s = None then Some f else None) placed in
      let steps =
        List.mapi
          (fun i (_, alias) ->
            let k = i + 1 in
            let mine =
              List.filter_map
                (fun (f, s) -> if s = Some k then Some f else None)
                placed
            in
            let bound = bound_upto (k - 1) in
            let strategy, residual =
              if not hash_join then (Nested_loop, mine)
              else
                let rec pick seen = function
                  | [] -> (Nested_loop, List.rev seen)
                  | f :: fs -> (
                      match hash_key_of catalog from ~bound ~alias_k:alias f with
                      | Some s -> (s, List.rev_append seen fs)
                      | None -> pick (f :: seen) fs)
                in
                pick [] mine
            in
            { step_alias = alias; strategy; step_filters = residual; step_est = None })
          rest
      in
      (steps, tail)

(* Join-graph edges for reordering and join estimates: column-equality
   conjuncts linking exactly two aliases, selectivity 1/max(NDV) from
   the stats catalog, 0.1 without statistics. *)
let join_edges catalog from classified =
  let table_of alias =
    List.find_map
      (fun (table, a) ->
        if String.lowercase_ascii a = alias then Some table else None)
      from
  in
  let ndv alias col =
    match table_of alias with
    | Some table -> (
        match catalog.stats_of ~table ~column:col with
        | Some cs when cs.T.distinct > 0 -> Some (float_of_int cs.T.distinct)
        | _ -> None)
    | None -> None
  in
  List.filter_map
    (fun (c, als) ->
      if List.length als <> 2 then None
      else
        match c with
        | Ast.Binop (Ast.Eq, Ast.Col (qa, ca), Ast.Col (qb, cb)) -> (
            match
              (resolve_col catalog from (qa, ca), resolve_col catalog from (qb, cb))
            with
            | [ a ], [ b ] when a <> b ->
                let sel =
                  match (ndv a ca, ndv b cb) with
                  | Some x, Some y -> 1. /. Float.max 1. (Float.max x y)
                  | Some x, None | None, Some x -> 1. /. Float.max 1. x
                  | None, None -> 0.1
                in
                Some { Cost.e_a = a; e_b = b; e_sel = sel }
            | _ -> None)
        | _ -> None)
    classified

(* Stamp each table plan with the kernel labels the vectorized scan is
   expected to use, so plain EXPLAIN shows them before execution. *)
let annotate_vec catalog t =
  {
    t with
    tables =
      List.map
        (fun tp ->
          {
            tp with
            vec_kernels =
              vec_kernels_of catalog ~table:tp.table ~alias:tp.alias tp.filters;
          })
        t.tables;
  }

let make ?(optimize = true) catalog (select : Ast.select) =
  let conjuncts =
    match select.Ast.where with None -> [] | Some w -> Ast.conjuncts w
  in
  let from = select.Ast.from in
  let output_order = List.map snd from in
  let classified =
    List.map (fun c -> (c, aliases_of catalog from c)) conjuncts
  in
  if not optimize then begin
    (* naive: all single-table conjuncts stay in source order, no indexes *)
    let tables =
      List.map
        (fun (table, alias) ->
          let filters =
            List.filter_map
              (fun (c, al) -> if al = [ alias ] then Some c else None)
              classified
          in
          { table; alias; access = Full_scan; filters; est_rows = None;
            vec_kernels = [] })
        from
    in
    let join_filters =
      List.filter_map
        (fun (c, al) -> if List.length al <> 1 then Some c else None)
        classified
    in
    let joins, tail_filters =
      make_steps ~hash_join:false catalog from classified join_filters
    in
    annotate_vec catalog
      { tables; join_filters; joins; tail_filters; est_out = None; output_order }
  end
  else begin
    let plan_table (table, alias) =
      let mine =
        List.filter_map
          (fun (c, al) -> if al = [ alias ] then Some c else None)
          classified
      in
      plan_table_cost_based catalog ~table ~alias mine
    in
    let tables = List.map plan_table from in
    let edges = join_edges catalog from classified in
    (* Join reordering: only when statistics cover every FROM table.
       Default statistics would reorder too, and that changes the row
       order of unordered joins over unanalyzed tables. *)
    let from, tables =
      match from with
      | _ :: _ :: _ when List.for_all (fun (t, _) -> catalog.analyzed ~table:t) from
        ->
          let rels =
            List.map
              (fun tp ->
                {
                  Cost.r_alias = String.lowercase_ascii tp.alias;
                  r_rows = Option.value tp.est_rows ~default:1.;
                })
              tables
          in
          let order = Cost.greedy_order rels edges in
          let find_tp a =
            List.find
              (fun tp -> String.lowercase_ascii tp.alias = a)
              tables
          in
          let tables' = List.map find_tp order in
          let from' =
            List.map
              (fun tp ->
                List.find
                  (fun (_, al) -> String.lowercase_ascii al
                                  = String.lowercase_ascii tp.alias)
                  from)
              tables'
          in
          if List.map snd from' <> List.map snd from then Obs.add c_reordered 1;
          (from', tables')
      | _ -> (from, tables)
    in
    let join_filters =
      List.filter_map
        (fun (c, al) -> if List.length al <> 1 then Some c else None)
        classified
      |> List.stable_sort (fun a b -> Float.compare (rank a) (rank b))
    in
    let joins, tail_filters =
      make_steps ~hash_join:true catalog from classified join_filters
    in
    (* Cumulative cardinality estimates along the (possibly reordered)
       join chain, when per-table estimates exist. *)
    let joins, est_out =
      match tables with
      | { est_rows = Some first; alias; _ } :: rest
        when List.for_all (fun tp -> tp.est_rows <> None) rest ->
          let bound = ref [ String.lowercase_ascii alias ] in
          let card = ref first in
          let joins =
            List.map2
              (fun step tp ->
                let a = String.lowercase_ascii tp.alias in
                let sel =
                  List.fold_left
                    (fun acc e ->
                      let touches x =
                        (e.Cost.e_a = x && e.Cost.e_b = a)
                        || (e.Cost.e_b = x && e.Cost.e_a = a)
                      in
                      if List.exists touches !bound then acc *. e.Cost.e_sel
                      else acc)
                    1. edges
                in
                card := !card *. Option.value tp.est_rows ~default:1. *. sel;
                bound := a :: !bound;
                { step with step_est = Some !card })
              joins rest
          in
          (joins, Some !card)
      | _ -> (joins, None)
    in
    annotate_vec catalog
      { tables; join_filters; joins; tail_filters; est_out; output_order }
  end

let access_to_string = function
  | Full_scan -> "full scan"
  | Index_eq { column; key } ->
      Printf.sprintf "index %s = %s" column (D.value_to_display key)
  | Index_range { column; lo; hi; _ } ->
      Printf.sprintf "index %s in [%s, %s]" column
        (match lo with Some v -> D.value_to_display v | None -> "-inf")
        (match hi with Some v -> D.value_to_display v | None -> "+inf")
  | Genomic_contains { column; pattern } ->
      Printf.sprintf "genomic index %s contains %S" column pattern
  | Genomic_seed { column; pattern; min_len; threshold } ->
      Printf.sprintf "genomic seed %s resembles %S >= %g (min_len=%d)" column
        pattern threshold min_len

let strategy_to_string step =
  match step.strategy with
  | Hash_join { outer_alias; outer_col; inner_col } ->
      Printf.sprintf "hash join on %s.%s = %s.%s" outer_alias outer_col
        step.step_alias inner_col
  | Nested_loop -> "nested-loop join"

let to_string ?(jobs = 1) t =
  let partitions =
    if jobs > 1 then Printf.sprintf " [partitions=%d]" jobs else ""
  in
  let est = function
    | None -> ""
    | Some e -> Printf.sprintf " (est~%.0f rows)" e
  in
  let lines =
    List.map
      (fun tp ->
        Printf.sprintf "scan %s as %s via %s%s%s%s" tp.table tp.alias
          (access_to_string tp.access)
          (match tp.access with Full_scan -> partitions | _ -> "")
          (match tp.filters with
          | [] -> ""
          | fs ->
              Printf.sprintf " filter [%s]"
                (String.concat "; " (List.map Ast.expr_to_string fs)))
          (est tp.est_rows
          ^ match tp.vec_kernels with
            | [] -> ""
            | ks -> Printf.sprintf " vec [%s]" (String.concat "; " ks)))
      t.tables
  in
  let join_lines =
    List.map
      (fun step ->
        Printf.sprintf "join %s via %s%s%s" step.step_alias
          (strategy_to_string step)
          (match step.step_filters with
          | [] -> ""
          | fs ->
              Printf.sprintf " filter [%s]"
                (String.concat "; " (List.map Ast.expr_to_string fs)))
          (est step.step_est))
      t.joins
  in
  let tail_line =
    match t.tail_filters with
    | [] -> []
    | fs ->
        [ Printf.sprintf "join filter [%s]"
            (String.concat "; " (List.map Ast.expr_to_string fs)) ]
  in
  String.concat "\n" (lines @ join_lines @ tail_line)
