(* Int-annotated, so the comparison is an inline integer test;
   without flambda [Stdlib.min] calls the polymorphic comparison. *)
let imin (a : int) b = if a <= b then a else b

(* One DP row, overwritten in place: before cell [i] is written, [row.(i)]
   still holds the previous row's value and [diag] the previous row's
   value at [i - 1]. Indices lie in [0, n]. *)
let levenshtein a b =
  let a, b = if String.length a < String.length b then (a, b) else (b, a) in
  let n = String.length a in
  let row = Array.init (n + 1) Fun.id in
  String.iteri
    (fun j bj ->
      let diag = ref row.(0) in
      row.(0) <- j + 1;
      for i = 1 to n do
        let up = Array.unsafe_get row i in
        let cost = if String.unsafe_get a (i - 1) = bj then 0 else 1 in
        Array.unsafe_set row i
          (imin (imin (up + 1) (Array.unsafe_get row (i - 1) + 1)) (!diag + cost));
        diag := up
      done)
    b;
  row.(n)

let hamming a b =
  if String.length a <> String.length b then None
  else begin
    let d = ref 0 in
    String.iteri (fun i c -> if c <> b.[i] then incr d) a;
    Some !d
  end

let similarity a b =
  let n = Int.max (String.length a) (String.length b) in
  if n = 0 then 1.
  else 1. -. (float_of_int (levenshtein a b) /. float_of_int n)
