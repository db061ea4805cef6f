type mode = Global | Local | Semiglobal

type op = Match | Mismatch | Insert | Delete

type t = {
  score : int;
  query_start : int;
  query_end : int;
  subject_start : int;
  subject_end : int;
  ops : op list;
  aligned_query : string;
  aligned_subject : string;
}

let neg_inf = min_int / 4

(* Int-annotated, so each comparison is an inline integer test;
   without flambda [Stdlib.max] calls the polymorphic comparison. *)
let imax (a : int) b = if a >= b then a else b
let imin (a : int) b = if a <= b then a else b

(* The query profile: [(profile ...).(Char.code c).(j)] is
   [Scoring.score matrix c subject.[j]]. One row is built for each
   distinct query letter, so the fill loops read one int per cell. *)
let profile matrix ~query ~subject =
  let m = String.length subject in
  let rows = Array.make 256 [||] in
  String.iter
    (fun c ->
      let k = Char.code c in
      if Array.length rows.(k) <> m then
        rows.(k) <- Array.init m (fun j -> Scoring.score matrix c subject.[j]))
    query;
  rows

(* Cell states for Gotoh's three-matrix recurrence. *)
let st_m = 0 (* diagonal: letters aligned *)
let st_x = 1 (* gap in subject: query letter consumed *)
let st_y = 2 (* gap in query: subject letter consumed *)

(* Traceback codes. For M: where the diagonal step came from (or local
   start). For X/Y: whether the gap opens (from M or the other gap state)
   or extends. *)
let tb_start = 0
let tb_from_m = 1
let tb_from_x = 2
let tb_from_y = 3

let align ?(mode = Local) ?(matrix = Scoring.dna_default) ?(gap = Scoring.default_gap)
    ~query ~subject () =
  let n = String.length query and m = String.length subject in
  let open_cost = gap.Scoring.open_penalty + gap.Scoring.extend_penalty in
  let ext_cost = gap.Scoring.extend_penalty in
  let local = mode = Local in
  let prof = profile matrix ~query ~subject in
  let mm = Array.make_matrix (n + 1) (m + 1) neg_inf in
  let mx = Array.make_matrix (n + 1) (m + 1) neg_inf in
  let my = Array.make_matrix (n + 1) (m + 1) neg_inf in
  let tbm = Array.make_matrix (n + 1) (m + 1) tb_start in
  let tbx = Array.make_matrix (n + 1) (m + 1) tb_start in
  let tby = Array.make_matrix (n + 1) (m + 1) tb_start in
  (* Initialisation *)
  mm.(0).(0) <- 0;
  for i = 1 to n do
    if local then mm.(i).(0) <- 0
    else begin
      mx.(i).(0) <- -(open_cost + ((i - 1) * ext_cost));
      tbx.(i).(0) <- (if i = 1 then tb_from_m else tb_from_x)
    end
  done;
  for j = 1 to m do
    match mode with
    | Global ->
        my.(0).(j) <- -(open_cost + ((j - 1) * ext_cost));
        tby.(0).(j) <- (if j = 1 then tb_from_m else tb_from_y)
    | Semiglobal | Local -> mm.(0).(j) <- 0
  done;
  (* Fill *)
  for i = 1 to n do
    let row = prof.(Char.code query.[i - 1]) in
    let mm_prev = mm.(i - 1) and mx_prev = mx.(i - 1) and my_prev = my.(i - 1) in
    let mm_row = mm.(i) and mx_row = mx.(i) and my_row = my.(i) in
    let tbm_row = tbm.(i) and tbx_row = tbx.(i) and tby_row = tby.(i) in
    for j = 1 to m do
      (* M: diagonal *)
      let dm = mm_prev.(j - 1) and dx = mx_prev.(j - 1) and dy = my_prev.(j - 1) in
      let best_diag, src =
        if dm >= dx && dm >= dy then (dm, tb_from_m)
        else if dx >= dy then (dx, tb_from_x)
        else (dy, tb_from_y)
      in
      let mval = best_diag + row.(j - 1) in
      if local && mval < 0 then begin
        mm_row.(j) <- 0;
        tbm_row.(j) <- tb_start
      end
      else begin
        mm_row.(j) <- mval;
        tbm_row.(j) <- src
      end;
      (* X: gap in subject (vertical move, consumes query letter) *)
      let open_from = imax mm_prev.(j) my_prev.(j) in
      let open_src = if mm_prev.(j) >= my_prev.(j) then tb_from_m else tb_from_y in
      let xv_open = open_from - open_cost in
      let xv_ext = mx_prev.(j) - ext_cost in
      if xv_open >= xv_ext then begin
        mx_row.(j) <- xv_open;
        tbx_row.(j) <- open_src
      end
      else begin
        mx_row.(j) <- xv_ext;
        tbx_row.(j) <- tb_from_x
      end;
      (* Y: gap in query (horizontal move, consumes subject letter) *)
      let open_from = imax mm_row.(j - 1) mx_row.(j - 1) in
      let open_src = if mm_row.(j - 1) >= mx_row.(j - 1) then tb_from_m else tb_from_x in
      let yv_open = open_from - open_cost in
      let yv_ext = my_row.(j - 1) - ext_cost in
      if yv_open >= yv_ext then begin
        my_row.(j) <- yv_open;
        tby_row.(j) <- open_src
      end
      else begin
        my_row.(j) <- yv_ext;
        tby_row.(j) <- tb_from_y
      end
    done
  done;
  (* Locate the answer cell *)
  let best_of_cell i j =
    let a = mm.(i).(j) and b = mx.(i).(j) and c = my.(i).(j) in
    if a >= b && a >= c then (a, st_m) else if b >= c then (b, st_x) else (c, st_y)
  in
  let end_i, end_j, end_state, score =
    match mode with
    | Global ->
        let v, st = best_of_cell n m in
        (n, m, st, v)
    | Semiglobal ->
        let best = ref (neg_inf, m, st_m) in
        for j = 0 to m do
          let v, st = best_of_cell n j in
          let bv, _, _ = !best in
          if v > bv then best := (v, j, st)
        done;
        let v, j, st = !best in
        (n, j, st, v)
    | Local ->
        let best = ref (0, 0, 0) in
        let best_v = ref 0 in
        for i = 0 to n do
          for j = 0 to m do
            if mm.(i).(j) > !best_v then begin
              best_v := mm.(i).(j);
              best := (i, j, st_m)
            end
          done
        done;
        let i, j, st = !best in
        (i, j, st, !best_v)
  in
  (* Traceback *)
  let ops = ref [] in
  let qa = Buffer.create 64 and sa = Buffer.create 64 in
  let i = ref end_i and j = ref end_j and state = ref end_state in
  let continue = ref true in
  while !continue do
    if !state = st_m then begin
      if !i = 0 && !j = 0 then continue := false
      else if local && tbm.(!i).(!j) = tb_start then continue := false
      else if mode = Semiglobal && !i = 0 then continue := false
      else if !i > 0 && !j > 0 then begin
        let qc = query.[!i - 1] and sc = subject.[!j - 1] in
        ops := (if Char.uppercase_ascii qc = Char.uppercase_ascii sc then Match else Mismatch) :: !ops;
        Buffer.add_char qa qc;
        Buffer.add_char sa sc;
        let src = tbm.(!i).(!j) in
        decr i;
        decr j;
        state := (if src = tb_from_m then st_m else if src = tb_from_x then st_x else st_y)
      end
      else continue := false
    end
    else if !state = st_x then begin
      (* consumed a query letter against a gap *)
      ops := Insert :: !ops;
      Buffer.add_char qa query.[!i - 1];
      Buffer.add_char sa '-';
      let src = tbx.(!i).(!j) in
      decr i;
      state := (if src = tb_from_x then st_x else if src = tb_from_y then st_y else st_m)
    end
    else begin
      ops := Delete :: !ops;
      Buffer.add_char qa '-';
      Buffer.add_char sa subject.[!j - 1];
      let src = tby.(!i).(!j) in
      decr j;
      state := (if src = tb_from_y then st_y else if src = tb_from_x then st_x else st_m)
    end
  done;
  let rev_string buf =
    let s = Buffer.contents buf in
    String.init (String.length s) (fun k -> s.[String.length s - 1 - k])
  in
  {
    score;
    query_start = !i;
    query_end = end_i;
    subject_start = !j;
    subject_end = end_j;
    ops = !ops;
    aligned_query = rev_string qa;
    aligned_subject = rev_string sa;
  }

let align_seq ?mode ?matrix ?gap ~query ~subject () =
  let module Seq = Genalg_gdt.Sequence in
  let matrix =
    match matrix with
    | Some m -> m
    | None ->
        if Seq.alphabet query = Seq.Protein && Seq.alphabet subject = Seq.Protein then
          Scoring.blosum62
        else Scoring.dna_default
  in
  align ?mode ~matrix ?gap ~query:(Seq.to_string query) ~subject:(Seq.to_string subject) ()

(* Score-only variant: two rows per state, swapped after each row, so
   O(m) memory. Every [unsafe_get]/[unsafe_set] index below lies in
   [0, m], the length of each row array, or in [0, m - 1], the length of
   a profile row. *)
let score_only ?(mode = Local) ?(matrix = Scoring.dna_default)
    ?(gap = Scoring.default_gap) ~query ~subject () =
  let n = String.length query and m = String.length subject in
  let open_cost = gap.Scoring.open_penalty + gap.Scoring.extend_penalty in
  let ext_cost = gap.Scoring.extend_penalty in
  let local = mode = Local in
  let prof = profile matrix ~query ~subject in
  let mm_prev = ref (Array.make (m + 1) neg_inf) and mm_cur = ref (Array.make (m + 1) neg_inf) in
  let mx_prev = ref (Array.make (m + 1) neg_inf) and mx_cur = ref (Array.make (m + 1) neg_inf) in
  let my_prev = ref (Array.make (m + 1) neg_inf) and my_cur = ref (Array.make (m + 1) neg_inf) in
  !mm_prev.(0) <- 0;
  for j = 1 to m do
    match mode with
    | Global -> !my_prev.(j) <- -(open_cost + ((j - 1) * ext_cost))
    | Semiglobal | Local -> !mm_prev.(j) <- 0
  done;
  let best_local = ref 0 in
  for i = 1 to n do
    let row = prof.(Char.code query.[i - 1]) in
    let mp = !mm_prev and xp = !mx_prev and yp = !my_prev in
    let mc = !mm_cur and xc = !mx_cur and yc = !my_cur in
    mc.(0) <- (if local then 0 else neg_inf);
    xc.(0) <- (if local then neg_inf else -(open_cost + ((i - 1) * ext_cost)));
    yc.(0) <- neg_inf;
    for j = 1 to m do
      let diag =
        imax (Array.unsafe_get mp (j - 1))
          (imax (Array.unsafe_get xp (j - 1)) (Array.unsafe_get yp (j - 1)))
      in
      let mval = diag + Array.unsafe_get row (j - 1) in
      let mval = if local && mval < 0 then 0 else mval in
      Array.unsafe_set mc j mval;
      if local && mval > !best_local then best_local := mval;
      Array.unsafe_set xc j
        (imax
           (imax (Array.unsafe_get mp j) (Array.unsafe_get yp j) - open_cost)
           (Array.unsafe_get xp j - ext_cost));
      Array.unsafe_set yc j
        (imax
           (imax (Array.unsafe_get mc (j - 1)) (Array.unsafe_get xc (j - 1)) - open_cost)
           (Array.unsafe_get yc (j - 1) - ext_cost))
    done;
    mm_prev := mc; mm_cur := mp;
    mx_prev := xc; mx_cur := xp;
    my_prev := yc; my_cur := yp
  done;
  let mp = !mm_prev and xp = !mx_prev and yp = !my_prev in
  match mode with
  | Global -> imax mp.(m) (imax xp.(m) yp.(m))
  | Semiglobal ->
      let best = ref neg_inf in
      for j = 0 to m do
        best := imax !best (imax mp.(j) (imax xp.(j) yp.(j)))
      done;
      !best
  | Local -> !best_local

(* Banded global Gotoh: only cells with |i - j| <= band are computed;
   everything outside the band stays at neg_inf. Rows are swapped as in
   [score_only]; a cell of the row two back that the band has left is
   never read again, and one it has not reached yet still holds neg_inf,
   because [hi] never decreases. Indices lie in [lo - 1, hi], a subset of
   [0, m]. *)
let banded_score ~band ?(matrix = Scoring.dna_default) ?(gap = Scoring.default_gap)
    ~query ~subject () =
  let n = String.length query and m = String.length subject in
  if band < 0 then invalid_arg "Pairwise.banded_score: negative band";
  if band < abs (n - m) then
    invalid_arg "Pairwise.banded_score: band narrower than the length difference";
  let open_cost = gap.Scoring.open_penalty + gap.Scoring.extend_penalty in
  let ext_cost = gap.Scoring.extend_penalty in
  let prof = profile matrix ~query ~subject in
  let mm_prev = ref (Array.make (m + 1) neg_inf) and mm_cur = ref (Array.make (m + 1) neg_inf) in
  let mx_prev = ref (Array.make (m + 1) neg_inf) and mx_cur = ref (Array.make (m + 1) neg_inf) in
  let my_prev = ref (Array.make (m + 1) neg_inf) and my_cur = ref (Array.make (m + 1) neg_inf) in
  !mm_prev.(0) <- 0;
  for j = 1 to imin m band do
    !my_prev.(j) <- -(open_cost + ((j - 1) * ext_cost))
  done;
  for i = 1 to n do
    let row = prof.(Char.code query.[i - 1]) in
    let mp = !mm_prev and xp = !mx_prev and yp = !my_prev in
    let mc = !mm_cur and xc = !mx_cur and yc = !my_cur in
    let lo = imax 1 (i - band) and hi = imin m (i + band) in
    (* reset the row inside (and just around) the band *)
    for j = lo - 1 to hi do
      Array.unsafe_set mc j neg_inf;
      Array.unsafe_set xc j neg_inf;
      Array.unsafe_set yc j neg_inf
    done;
    if i - band <= 0 then
      xc.(0) <- -(open_cost + ((i - 1) * ext_cost));
    for j = lo to hi do
      let diag =
        imax (Array.unsafe_get mp (j - 1))
          (imax (Array.unsafe_get xp (j - 1)) (Array.unsafe_get yp (j - 1)))
      in
      if diag > neg_inf then Array.unsafe_set mc j (diag + Array.unsafe_get row (j - 1));
      let x_open = imax (Array.unsafe_get mp j) (Array.unsafe_get yp j) in
      let x_ext = Array.unsafe_get xp j in
      Array.unsafe_set xc j
        (imax
           (if x_open > neg_inf then x_open - open_cost else neg_inf)
           (if x_ext > neg_inf then x_ext - ext_cost else neg_inf));
      let y_open = imax (Array.unsafe_get mc (j - 1)) (Array.unsafe_get xc (j - 1)) in
      let y_ext = Array.unsafe_get yc (j - 1) in
      Array.unsafe_set yc j
        (imax
           (if y_open > neg_inf then y_open - open_cost else neg_inf)
           (if y_ext > neg_inf then y_ext - ext_cost else neg_inf))
    done;
    mm_prev := mc; mm_cur := mp;
    mx_prev := xc; mx_cur := xp;
    my_prev := yc; my_cur := yp
  done;
  imax !mm_prev.(m) (imax !mx_prev.(m) !my_prev.(m))

let identity t =
  match t.ops with
  | [] -> 0.
  | ops ->
      let matches = List.length (List.filter (fun o -> o = Match) ops) in
      float_of_int matches /. float_of_int (List.length ops)

let pp ppf t =
  let midline =
    String.init (String.length t.aligned_query) (fun k ->
        let q = t.aligned_query.[k] and s = t.aligned_subject.[k] in
        if q = '-' || s = '-' then ' '
        else if Char.uppercase_ascii q = Char.uppercase_ascii s then '|'
        else '.')
  in
  Format.fprintf ppf "score %d, identity %.1f%%@.Q %4d %s %d@.       %s@.S %4d %s %d"
    t.score (100. *. identity t) (t.query_start + 1) t.aligned_query t.query_end midline
    (t.subject_start + 1) t.aligned_subject t.subject_end
