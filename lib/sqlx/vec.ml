(* Batch-at-a-time scan execution (docs/EXECUTION.md).

   Scans hand the filter pipeline columnar chunks of ~1k rows with a
   selection vector instead of evaluating predicates row by row.
   Predicates the classifier recognizes run as word-level kernels
   straight on the 2-bit/4-bit packed sequence payload ({!Sequence}'s
   framed kernels) — no [Bytes.sub], no decode to text, no row
   evaluator call. Everything else (and every row a kernel cannot serve:
   NULLs, corrupt frames, mismatched alphabets, unregistered
   functions) is decided by the stage's compiled predicate
   ([Eval.compile_predicate]) for that row, so results — including which error surfaces, and in
   which input order — are those of evaluating the filters row by row. *)

module D = Genalg_storage.Dtype
module Obs = Genalg_obs.Obs
module Par = Genalg_par.Par
module Sequence = Genalg_gdt.Sequence

let c_batches = Obs.counter "sqlx.vec.batches"
let c_rows = Obs.counter "sqlx.vec.rows"
let c_kernel_rows = Obs.counter "sqlx.vec.kernel_rows"
let c_fallback_rows = Obs.counter "sqlx.vec.fallback_rows"

(* Chunk size: small enough that a chunk's selection vector and its
   rows stay cache-resident, large enough to amortize per-chunk
   bookkeeping. *)
let chunk_rows = 1024

(* ------------------------------------------------------------------ *)
(* Kernel classification                                               *)

type kind =
  | Gc_cmp of Ast.binop * D.value * bool (* lit_first *)
  | Len_cmp of Ast.binop * D.value * bool
  | Contains of string

type kernel = {
  k_col : int; (* resolver token: schema column index in the executor *)
  k_col_name : string;
  k_udt : string; (* dna | rna | proteinseq *)
  k_kind : kind;
}

let kernel_label k =
  let name =
    match k.k_kind with
    | Gc_cmp _ -> "packed-gc"
    | Len_cmp _ -> "packed-len"
    | Contains _ -> "packed-contains"
  in
  Printf.sprintf "%s(%s)" name k.k_col_name

let sequence_udts = [ "dna"; "rna"; "proteinseq" ]
let nucleotide_udts = [ "dna"; "rna" ]

let is_cmp = function
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> true
  | Ast.And | Ast.Or | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Like -> false

(* [classify ~dtype_of ~resolves expr] recognizes the predicate shapes
   the packed kernels serve:

     contains(col, 'LITERAL')
     gc_content(col) <cmp> literal      (and the mirrored literal <cmp> fn)
     length(col)     <cmp> literal

   [dtype_of qualifier name] resolves a column reference to its
   declared dtype plus an opaque token handed back in [k_col];
   [resolves name args] must confirm the genomic function is actually
   registered for those argument types — when it is not, the row
   evaluator raises "unknown function", and the kernel must not mask
   that. Anything unrecognized is left to the row evaluator. *)
let classify ~dtype_of ~resolves expr =
  let seq_col allowed_udts qualifier name =
    match dtype_of qualifier name with
    | Some (D.TOpaque u, token) when List.mem (String.lowercase_ascii u) allowed_udts ->
        Some (u, token)
    | _ -> None
  in
  let fn_operand allowed fname = function
    | Ast.Fn (name, [ Ast.Col (q, col) ]) when String.lowercase_ascii name = fname -> (
        match seq_col allowed q col with
        | Some (u, token) when resolves name [ D.TOpaque u ] -> Some (u, token, col)
        | _ -> None)
    | _ -> None
  in
  let stat_kernel op lhs rhs ~lit_first =
    let of_fn fname allowed mk =
      match fn_operand allowed fname lhs with
      | Some (u, token, col) ->
          Some { k_col = token; k_col_name = col; k_udt = u; k_kind = mk }
      | None -> None
    in
    match rhs with
    | Ast.Lit v -> (
        match of_fn "gc_content" nucleotide_udts (Gc_cmp (op, v, lit_first)) with
        | Some _ as r -> r
        | None -> of_fn "length" sequence_udts (Len_cmp (op, v, lit_first)))
    | _ -> None
  in
  match expr with
  | Ast.Fn (name, [ Ast.Col (q, col); Ast.Lit (D.Str pattern) ])
    when String.lowercase_ascii name = "contains" -> (
      match seq_col sequence_udts q col with
      | Some (u, token) when resolves name [ D.TOpaque u; D.TString ] ->
          Some { k_col = token; k_col_name = col; k_udt = u; k_kind = Contains pattern }
      | _ -> None)
  | Ast.Binop (op, lhs, (Ast.Lit _ as rhs)) when is_cmp op ->
      stat_kernel op lhs rhs ~lit_first:false
  | Ast.Binop (op, (Ast.Lit _ as lhs), rhs) when is_cmp op ->
      stat_kernel op rhs lhs ~lit_first:true
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Kernel application                                                  *)

(* Replica of [Eval.compare_op] ∘ [Eval.compile_predicate] for the
   kernel-computed operand: a NULL literal compares to SQL NULL, which
   the predicate context reads as false; otherwise [D.compare_value]
   is total (numeric Int/Float, cross-type via rank), so no error
   branch exists on this path. *)
let cmp_value op ~lit_first lit actual =
  if lit = D.Null then false
  else begin
    let a, b = if lit_first then (lit, actual) else (actual, lit) in
    let c = D.compare_value a b in
    match op with
    | Ast.Eq -> c = 0
    | Ast.Ne -> c <> 0
    | Ast.Lt -> c < 0
    | Ast.Le -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Ge -> c >= 0
    | Ast.And | Ast.Or | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Like ->
        assert false
  end

let expected_alphabet = function
  | "dna" -> Some Sequence.Dna
  | "rna" -> Some Sequence.Rna
  | "proteinseq" -> Some Sequence.Protein
  | _ -> None

(* [Some verdict] when the kernel can decide this row from the packed
   frame alone; [None] sends the row to the row evaluator, which
   reproduces the exact scalar behaviour (type errors for NULL or
   non-sequence values, decode errors for corrupt frames, the
   wrong-alphabet error for mismatched payloads). *)
let apply_of k =
  let expect = expected_alphabet (String.lowercase_ascii k.k_udt) in
  fun (values : D.value array) ->
    match values.(k.k_col) with
    | D.Opaque (tag, data) when tag = k.k_udt -> (
        match Sequence.framed_info data, expect with
        | Some (alpha, len), Some want when alpha = want -> (
            match k.k_kind with
            | Len_cmp (op, lit, lit_first) ->
                Some (cmp_value op ~lit_first lit (D.Int len))
            | Gc_cmp (op, lit, lit_first) -> (
                match Sequence.framed_gc_count data with
                | Some gc ->
                    let v =
                      if len = 0 then 0.
                      else float_of_int gc /. float_of_int len
                    in
                    Some (cmp_value op ~lit_first lit (D.Float v))
                | None -> None)
            | Contains pattern -> Sequence.framed_contains ~pattern data)
        | _ -> None)
    | _ -> None

(* ------------------------------------------------------------------ *)
(* The fused filter pipeline                                           *)

type stage = {
  st_kernel : (kernel * (D.value array -> bool option)) option;
  st_eval : D.value array -> (bool, string) result;
}

let compile ~dtype_of ~resolves ~predicate filters =
  List.map
    (fun f ->
      { st_kernel = Option.map (fun k -> (k, apply_of k)) (classify ~dtype_of ~resolves f);
        st_eval = predicate f })
    filters

let kernel_labels stages =
  List.filter_map
    (fun st -> Option.map (fun (k, _) -> kernel_label k) st.st_kernel)
    stages

type report = {
  batches : int;
  rows_in : int;
  rows_out : int;
  kernel_rows : int; (* row×stage decisions served by a packed kernel *)
  fallback_rows : int; (* row×stage decisions by the row evaluator *)
  parts : int; (* degree of parallelism used for the chunks *)
  kernels : string list;
}

(* Same threshold as the executor's row-partitioned join expansion. *)
let par_row_threshold = 256

(* Run the fused pipeline over [rows]. Returns the indices of the
   surviving rows, ascending.

   Semantics contract (the QCheck property in test/test_vec.ml pins
   this): identical to evaluating the predicates left to right on each
   row with short-circuit on false — a row reaches stage [s] only if
   every earlier stage accepted it, and when any row errors, the error
   of the smallest row index surfaces (first error in input order).
   Chunks are processed predicate-
   major for locality, which cannot change any of that: stage order
   per row is preserved by the shrinking selection vector, and errors
   are recorded with their row index and minimized at the merge. *)
let run ~stages rows =
  let n = Array.length rows in
  let nchunks = max 1 ((n + chunk_rows - 1) / chunk_rows) in
  let do_chunk ci =
    let lo = ci * chunk_rows in
    let hi = min n (lo + chunk_rows) in
    let sel = Array.init (hi - lo) (fun i -> lo + i) in
    let live = ref (hi - lo) in
    let first_err = ref None in
    let kr = ref 0 and fr = ref 0 in
    let record_err r msg =
      match !first_err with
      | Some (r0, _) when r0 <= r -> ()
      | _ -> first_err := Some (r, msg)
    in
    List.iter
      (fun st ->
        let m = !live in
        let w = ref 0 in
        for i = 0 to m - 1 do
          let r = Array.unsafe_get sel i in
          let scalar () =
            incr fr;
            match st.st_eval rows.(r) with
            | Ok b -> b
            | Error msg ->
                record_err r msg;
                false
          in
          let keep =
            match st.st_kernel with
            | Some (_, apply) -> (
                match apply rows.(r) with
                | Some b ->
                    incr kr;
                    b
                | None -> scalar ())
            | None -> scalar ()
          in
          if keep then begin
            Array.unsafe_set sel !w r;
            incr w
          end
        done;
        live := !w)
      stages;
    (Array.sub sel 0 !live, !first_err, !kr, !fr)
  in
  let jobs = Par.jobs () in
  let parts = if jobs > 1 && n >= par_row_threshold then jobs else 1 in
  let chunk_ids = Array.init nchunks Fun.id in
  let results =
    if parts > 1 then Par.parallel_map ~chunk:1 do_chunk chunk_ids
    else Array.map do_chunk chunk_ids
  in
  (* chunks cover ascending row ranges, so the first chunk carrying an
     error holds the globally smallest erroring row *)
  let rec merge acc kr fr ci =
    if ci = nchunks then Ok (List.concat (List.rev acc), kr, fr)
    else
      let kept, err, ckr, cfr = results.(ci) in
      match err with
      | Some (_, msg) -> Error msg
      | None ->
          merge (Array.to_list kept :: acc) (kr + ckr) (fr + cfr) (ci + 1)
  in
  match merge [] 0 0 0 with
  | Error _ as e -> e
  | Ok (kept, kernel_rows, fallback_rows) ->
      Obs.add c_batches nchunks;
      Obs.add c_rows n;
      if kernel_rows > 0 then Obs.add c_kernel_rows kernel_rows;
      if fallback_rows > 0 then Obs.add c_fallback_rows fallback_rows;
      Ok
        ( kept,
          {
            batches = nchunks;
            rows_in = n;
            rows_out = List.length kept;
            kernel_rows;
            fallback_rows;
            parts;
            kernels = kernel_labels stages;
          } )

let report_to_string r =
  Printf.sprintf "[vec batches=%d rows=%d->%d%s%s%s]" r.batches r.rows_in
    r.rows_out
    (match r.kernels with
    | [] -> ""
    | ks -> Printf.sprintf " kernels=[%s]" (String.concat "; " ks))
    (if r.kernel_rows > 0 then Printf.sprintf " kernel_rows=%d" r.kernel_rows
     else "")
    (if r.fallback_rows > 0 then Printf.sprintf " fallback_rows=%d" r.fallback_rows
     else "")
