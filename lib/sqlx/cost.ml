(* The planner's cost model (paper section 6.5: genomic access paths
   must be chosen by the optimizer, not bolted on). Units are abstract:
   1.0 ~ visiting one row in a full scan. Only relative magnitudes
   matter — every candidate access path for a table is costed with the
   same constants and the cheapest wins. *)

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

(* ---- unit costs --------------------------------------------------- *)

let seq_row = 1.0          (* decode one row during a heap scan *)
let fetch_row = 1.6        (* fetch + decode one row through a rid *)
let btree_probe = 12.0     (* search a column index, a balanced ordered map *)
let kmer_lookup = 4.0      (* one posting-list lookup *)
let hash_build_row = 1.4
let hash_probe_row = 0.9
let nested_probe_row = 1.0

(* Per-row costs of the packed scan kernels (docs/EXECUTION.md): the
   vectorized executor evaluates these predicates straight on the 2-bit
   payload — no decode, no env, no allocation — so their chain cost
   sits far below the scalar [Plan.fn_cost] model (length 50, gc 50,
   contains 200). Ratios roughly track the VEC bench. *)

let vec_len_row = 0.1      (* header read + integer compare *)
let vec_gc_row = 2.0       (* one LUT probe per 4 bases *)
let vec_contains_row = 20.0 (* rolling packed-word substring scan *)

(* ---- filter chains ------------------------------------------------ *)

(* Expected per-row cost of evaluating filters (cost, selectivity) in
   order with short-circuiting: later filters only run on survivors. *)
let chain_cost filters =
  let total, _ =
    List.fold_left
      (fun (acc, pass) (cost, sel) -> (acc +. (pass *. cost), pass *. sel))
      (0., 1.) filters
  in
  total

let chain_selectivity filters =
  List.fold_left (fun acc (_, sel) -> acc *. sel) 1. filters

(* ---- access paths ------------------------------------------------- *)

type access_est = {
  est_rows : float;  (* rows the access + its residual filters produce *)
  est_cost : float;  (* total cost of producing them *)
}

(* [rows]: live table cardinality. [filters]: residual (cost, sel) in
   evaluation order. [access_sel]: fraction of rows the access itself
   delivers. [probe]: fixed entry cost. [per_row]: fetching one
   delivered row. *)
let indexed_access ~rows ~probe ~access_sel ~per_row ~filters =
  let delivered = rows *. clamp 0. 1. access_sel in
  { est_rows = delivered *. chain_selectivity filters;
    est_cost = probe +. (delivered *. (per_row +. chain_cost filters)) }

let full_scan ~rows ~filters =
  { est_rows = rows *. chain_selectivity filters;
    est_cost = rows *. (seq_row +. chain_cost filters) }

let index_eq ~rows ~eq_sel ~filters =
  indexed_access ~rows ~probe:btree_probe ~access_sel:eq_sel
    ~per_row:fetch_row ~filters

let index_range ~rows ~range_sel ~filters =
  indexed_access ~rows ~probe:btree_probe ~access_sel:range_sel
    ~per_row:fetch_row ~filters

(* Fraction of indexed rows expected to share a specific k-mer with a
   pattern: each of the record's ~[mean_len] windows hits a given k-mer
   with probability 4^-k. *)
let kmer_hit_fraction ~k ~mean_len =
  clamp 0. 1. (mean_len *. (0.25 ** float_of_int k))

(* contains(): candidates from one posting list, each verified by exact
   substring search. *)
let genomic_contains ~rows ~k ~mean_len ~pattern_len ~verify_cost ~filters =
  let cand = kmer_hit_fraction ~k ~mean_len in
  let match_sel = clamp 1e-6 1. (mean_len *. (0.25 ** float_of_int pattern_len)) in
  let delivered = rows *. cand in
  { est_rows = rows *. match_sel *. chain_selectivity filters;
    est_cost =
      kmer_lookup
      +. (delivered *. (fetch_row +. verify_cost +. chain_cost filters)) }

(* resembles() seed path: the union of every pattern k-mer's postings,
   then the REAL predicate runs as a residual filter over the
   candidates, so [filters] must include it. *)
let genomic_seed ~rows ~k ~mean_len ~pattern_len ~filters =
  let windows = float_of_int (max 1 (pattern_len - k + 1)) in
  let cand = clamp 0. 1. (windows *. kmer_hit_fraction ~k ~mean_len) in
  let delivered = rows *. cand in
  { est_rows = delivered *. chain_selectivity filters;
    est_cost =
      (windows *. kmer_lookup) +. (delivered *. (fetch_row +. chain_cost filters)) }

(* ---- resembles seed-path safety bound ----------------------------- *)

(* [Ops.resembles] normalizes a Smith-Waterman local score by
   2*min(|a|,|b|) under Scoring.dna_default: match +2, mismatch -3,
   gap open 10 + 1/char (so any break between two match runs costs at
   least 3). For resembles(a,b) >= t with m = min(|a|,|b|):
     score 2M - P >= 2tm, matches M <= m, penalties P >= 3B over B
     breaks => B <= (2M - 2tm)/3, and the longest exact run
     L >= 3M/(2M - 2tm + 3) >= 3m/(2m(1-t) + 3)   (minimized at M = m
     whenever 2tm > 3, which holds for every m >= the bound below).
   L grows with m, so rows (and patterns) of length >= min_len are
   guaranteed to share a full k-mer with the pattern; shorter rows must
   stay unconditional candidates. Usable only when t > 1 - 3/(2k).
   THIS BOUND IS TIED TO Scoring.dna_default — test_optimizer pins the
   scoring constants so a change there fails loudly. *)
let resembles_min_len ~k ~threshold =
  let kf = float_of_int k in
  let denom = 3. -. (2. *. kf *. (1. -. threshold)) in
  if denom <= 0. then None
  else Some (int_of_float (ceil (3. *. kf /. denom)))

(* ---- join ordering ------------------------------------------------ *)

type rel = {
  r_alias : string;   (* lowercased *)
  r_rows : float;     (* estimated rows after local filters *)
}

type edge = {
  e_a : string;
  e_b : string;
  e_sel : float;
}

(* Cost of one join step given both input cardinalities; mirrors the
   executor's build/probe hash join (the planner may still fall back to
   a nested loop per step, but ordering by the cheaper model keeps small
   relations early either way). *)
let step_cost ~left ~right =
  Float.min
    ((right *. hash_build_row) +. (left *. hash_probe_row))
    (left *. right *. nested_probe_row)

(* Greedy join ordering: start from the smallest relation, then
   repeatedly take the relation that minimizes the next intermediate
   cardinality, preferring connected relations over cartesian products.
   Deterministic: ties keep the earliest relation in FROM order. *)
let greedy_order (rels : rel list) (edges : edge list) =
  match rels with
  | [] | [ _ ] -> List.map (fun r -> r.r_alias) rels
  | _ ->
      let remaining = ref rels in
      let pick best f =
        List.fold_left
          (fun acc r -> match acc with
            | Some (_, bv) when f r >= bv -> acc
            | _ when f r = infinity -> acc
            | _ -> Some (r, f r))
          best !remaining
      in
      let start =
        match pick None (fun r -> r.r_rows) with
        | Some (r, _) -> r
        | None -> List.hd rels
      in
      let bound = ref [ start.r_alias ] in
      let order = ref [ start ] in
      remaining := List.filter (fun r -> r != start) !remaining;
      let card = ref start.r_rows in
      while !remaining <> [] do
        let join_sel r =
          List.fold_left
            (fun (sel, connected) e ->
              let touches x y = (e.e_a = x && e.e_b = y) || (e.e_a = y && e.e_b = x) in
              if List.exists (fun b -> touches b r.r_alias) !bound then
                (sel *. e.e_sel, true)
              else (sel, connected))
            (1., false) edges
        in
        let score connected_only r =
          let sel, connected = join_sel r in
          if connected_only && not connected then infinity
          else !card *. r.r_rows *. sel
        in
        let chosen =
          match pick None (score true) with
          | Some (r, _) -> r
          | None -> (
              (* no connected relation left: cheapest cartesian *)
              match pick None (score false) with
              | Some (r, _) -> r
              | None -> List.hd !remaining)
        in
        let sel, _ = join_sel chosen in
        card := Float.max 1. (!card *. chosen.r_rows *. sel);
        bound := chosen.r_alias :: !bound;
        order := chosen :: !order;
        remaining := List.filter (fun r -> r != chosen) !remaining
      done;
      List.rev_map (fun r -> r.r_alias) !order
