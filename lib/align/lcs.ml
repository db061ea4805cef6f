(* Int-annotated, so the comparison is an inline integer test;
   without flambda [Stdlib.max] calls the polymorphic comparison. *)
let imax (a : int) b = if a >= b then a else b

let length ~equal a b =
  (* Keep the shorter array as the DP row, overwritten in place: before
     cell [i] is written, [row.(i)] still holds the previous row's value
     and [diag] the previous row's value at [i - 1]. *)
  let a, b = if Array.length a < Array.length b then (a, b) else (b, a) in
  let n = Array.length a in
  let row = Array.make (n + 1) 0 in
  Array.iter
    (fun bj ->
      let diag = ref 0 in
      for i = 1 to n do
        let up = row.(i) in
        row.(i) <- (if equal a.(i - 1) bj then !diag + 1 else imax up row.(i - 1));
        diag := up
      done)
    b;
  row.(n)

type 'a edit = Keep of 'a | Remove of 'a | Add of 'a

(* Myers' O(ND) diff with a trace of V arrays for backtracking. *)
let diff ~equal a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 then Array.to_list (Array.map (fun x -> Add x) b)
  else if m = 0 then Array.to_list (Array.map (fun x -> Remove x) a)
  else begin
    let max_d = n + m in
    let offset = max_d in
    let v = Array.make ((2 * max_d) + 1) 0 in
    let trace = ref [] in
    let found = ref None in
    let d = ref 0 in
    while !found = None && !d <= max_d do
      let dd = !d in
      trace := Array.copy v :: !trace;
      let k = ref (-dd) in
      while !found = None && !k <= dd do
        let kk = !k in
        let x =
          if kk = -dd || (kk <> dd && v.(offset + kk - 1) < v.(offset + kk + 1)) then
            v.(offset + kk + 1)
          else v.(offset + kk - 1) + 1
        in
        let x = ref x in
        let y () = !x - kk in
        while !x < n && y () < m && equal a.(!x) b.(y ()) do
          incr x
        done;
        v.(offset + kk) <- !x;
        if !x >= n && y () >= m then found := Some dd;
        k := !k + 2
      done;
      incr d
    done;
    (* Backtrack through the stored V arrays. *)
    let script = ref [] in
    let x = ref n and y = ref m in
    let trace = Array.of_list (List.rev !trace) in
    let d = ref (match !found with Some d -> d | None -> assert false) in
    while !d > 0 do
      let v = trace.(!d) in
      let k = !x - !y in
      let prev_k =
        if k = - !d || (k <> !d && v.(offset + k - 1) < v.(offset + k + 1)) then k + 1
        else k - 1
      in
      let prev_x = v.(offset + prev_k) in
      let prev_y = prev_x - prev_k in
      (* snake *)
      while !x > prev_x && !y > prev_y do
        decr x;
        decr y;
        script := Keep a.(!x) :: !script
      done;
      if !x = prev_x then begin
        (* came from k+1: a downward move = insertion of b.(prev_y) *)
        decr y;
        script := Add b.(!y) :: !script
      end
      else begin
        decr x;
        script := Remove a.(!x) :: !script
      end;
      decr d
    done;
    (* d = 0: leading snake *)
    while !x > 0 && !y > 0 do
      decr x;
      decr y;
      script := Keep a.(!x) :: !script
    done;
    !script
  end

let lcs ~equal a b =
  List.filter_map (function Keep x -> Some x | Remove _ | Add _ -> None) (diff ~equal a b)

let apply script old =
  let out = ref [] in
  let i = ref 0 in
  let ok = ref true in
  List.iter
    (fun e ->
      if !ok then
        match e with
        | Keep x ->
            if !i < Array.length old && old.(!i) = x then begin
              out := x :: !out;
              incr i
            end
            else ok := false
        | Remove x ->
            if !i < Array.length old && old.(!i) = x then incr i else ok := false
        | Add x -> out := x :: !out)
    script;
  if !ok && !i = Array.length old then Some (Array.of_list (List.rev !out)) else None

let edit_distance_of script =
  List.fold_left
    (fun acc -> function Keep _ -> acc | Remove _ | Add _ -> acc + 1)
    0 script
