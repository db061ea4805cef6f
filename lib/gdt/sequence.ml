type alphabet = Dna | Rna | Protein
type encoding = Packed2 | Packed4 | Byte

type t = {
  alphabet : alphabet;
  encoding : encoding;
  len : int;
  payload : Bytes.t; (* packed data; layout depends on [encoding] *)
}

let alphabet t = t.alphabet
let encoding t = t.encoding
let length t = t.len

(* ------------------------------------------------------------------ *)
(* Encoding tables                                                     *)

(* Packed2: A=0 C=1 G=2 T/U=3, four bases per byte, little-end first.   *)

let packed2_code = function
  | 'A' -> 0
  | 'C' -> 1
  | 'G' -> 2
  | 'T' | 'U' -> 3
  | _ -> -1

let packed2_char_dna = [| 'A'; 'C'; 'G'; 'T' |]
let packed2_char_rna = [| 'A'; 'C'; 'G'; 'U' |]

(* Packed4: IUPAC bit sets A=1 C=2 G=4 T=8, two bases per byte,
   low nibble first. *)

let packed4_code c =
  match c with
  | 'A' -> 1
  | 'C' -> 2
  | 'G' -> 4
  | 'T' | 'U' -> 8
  | 'R' -> 5
  | 'Y' -> 10
  | 'S' -> 6
  | 'W' -> 9
  | 'K' -> 12
  | 'M' -> 3
  | 'B' -> 14
  | 'D' -> 13
  | 'H' -> 11
  | 'V' -> 7
  | 'N' -> 15
  | _ -> -1

let packed4_char_dna =
  (* index = bit set; 0 is unused *)
  [| '?'; 'A'; 'C'; 'M'; 'G'; 'R'; 'S'; 'V'; 'T'; 'W'; 'Y'; 'H'; 'K'; 'D'; 'B'; 'N' |]

let packed4_char_rna =
  [| '?'; 'A'; 'C'; 'M'; 'G'; 'R'; 'S'; 'V'; 'U'; 'W'; 'Y'; 'H'; 'K'; 'D'; 'B'; 'N' |]

let valid_protein c = Amino_acid.of_char c <> None

let valid_nucleotide alpha c =
  match Nucleotide.of_char c with
  | None -> false
  | Some b -> (
      match alpha, b with
      | Dna, Nucleotide.U -> false
      | Rna, Nucleotide.T -> false
      | (Dna | Rna), _ -> true
      | Protein, _ -> false)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let pack2 s =
  let n = String.length s in
  let buf = Bytes.make ((n + 3) / 4) '\000' in
  for i = 0 to n - 1 do
    let code = packed2_code s.[i] in
    let byte = i / 4 and off = (i mod 4) * 2 in
    Bytes.unsafe_set buf byte
      (Char.chr (Char.code (Bytes.unsafe_get buf byte) lor (code lsl off)))
  done;
  buf

let pack4 s =
  let n = String.length s in
  let buf = Bytes.make ((n + 1) / 2) '\000' in
  for i = 0 to n - 1 do
    let code = packed4_code s.[i] in
    let byte = i / 2 and off = (i mod 2) * 4 in
    Bytes.unsafe_set buf byte
      (Char.chr (Char.code (Bytes.unsafe_get buf byte) lor (code lsl off)))
  done;
  buf

let of_string alpha s =
  let n = String.length s in
  let s = String.uppercase_ascii s in
  match alpha with
  | Protein ->
      let bad = ref None in
      String.iteri (fun i c -> if !bad = None && not (valid_protein c) then bad := Some (i, c)) s;
      (match !bad with
      | Some (i, c) ->
          Error (Printf.sprintf "invalid amino-acid code %C at position %d" c i)
      | None -> Ok { alphabet = Protein; encoding = Byte; len = n; payload = Bytes.of_string s })
  | Dna | Rna ->
      let bad = ref None and canonical = ref true in
      String.iteri
        (fun i c ->
          if !bad = None then
            if not (valid_nucleotide alpha c) then bad := Some (i, c)
            else if packed2_code c < 0 then canonical := false)
        s;
      (match !bad with
      | Some (i, c) ->
          Error (Printf.sprintf "invalid nucleotide code %C at position %d" c i)
      | None ->
          if !canonical then
            Ok { alphabet = alpha; encoding = Packed2; len = n; payload = pack2 s }
          else Ok { alphabet = alpha; encoding = Packed4; len = n; payload = pack4 s })

let of_string_exn alpha s =
  match of_string alpha s with
  | Ok t -> t
  | Error msg -> invalid_arg ("Sequence.of_string_exn: " ^ msg)

let dna s = of_string_exn Dna s
let rna s = of_string_exn Rna s
let protein s = of_string_exn Protein s
let empty alpha = of_string_exn alpha ""

(* ------------------------------------------------------------------ *)
(* Access                                                              *)

(* Positional code reads parameterized by a byte offset so the same
   accessors serve both an owned payload (off = 0) and a framed
   serialized buffer (off = 9, see {!to_bytes}) without copying. *)

let get2 buf off i =
  (Char.code (Bytes.unsafe_get buf (off + (i / 4))) lsr ((i mod 4) * 2)) land 3

let get4 buf off i =
  (Char.code (Bytes.unsafe_get buf (off + (i / 2))) lsr ((i mod 2) * 4)) land 15

let char_at alphabet encoding buf off i =
  match encoding with
  | Byte -> Bytes.unsafe_get buf (off + i)
  | Packed2 -> (
      let code = get2 buf off i in
      match alphabet with
      | Rna -> Array.unsafe_get packed2_char_rna code
      | Dna | Protein -> Array.unsafe_get packed2_char_dna code)
  | Packed4 -> (
      let code = get4 buf off i in
      match alphabet with
      | Rna -> Array.unsafe_get packed4_char_rna code
      | Dna | Protein -> Array.unsafe_get packed4_char_dna code)

let unsafe_get t i = char_at t.alphabet t.encoding t.payload 0 i

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Sequence.get: index out of bounds";
  unsafe_get t i

let get_base t i =
  match t.alphabet with
  | Protein -> invalid_arg "Sequence.get_base: protein sequence"
  | Dna | Rna -> Nucleotide.of_char_exn (get t i)

let get_residue t i =
  match t.alphabet with
  | Protein -> Amino_acid.of_char_exn (get t i)
  | Dna | Rna -> invalid_arg "Sequence.get_residue: nucleotide sequence"

let to_string t =
  String.init t.len (fun i -> unsafe_get t i)

let iter f t =
  for i = 0 to t.len - 1 do
    f (unsafe_get t i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i (unsafe_get t i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc (unsafe_get t i)
  done;
  !acc

let count pred t =
  fold_left (fun n c -> if pred c then n + 1 else n) 0 t

let gc_count t =
  match t.alphabet with
  | Protein -> invalid_arg "Sequence.gc_count: protein sequence"
  | Dna | Rna -> count (function 'G' | 'C' | 'S' -> true | _ -> false) t

(* ------------------------------------------------------------------ *)
(* Slicing and assembly                                                *)

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Sequence.sub: bounds";
  of_string_exn t.alphabet (String.init len (fun i -> unsafe_get t (pos + i)))

let concat = function
  | [] -> empty Dna
  | first :: _ as parts ->
      let alpha = first.alphabet in
      let ok = List.for_all (fun p -> p.alphabet = alpha) parts in
      if not ok then invalid_arg "Sequence.concat: mixed alphabets";
      of_string_exn alpha (String.concat "" (List.map to_string parts))

let append a b = concat [ a; b ]

let rev t =
  of_string_exn t.alphabet (String.init t.len (fun i -> unsafe_get t (t.len - 1 - i)))

let complement t =
  match t.alphabet with
  | Protein -> invalid_arg "Sequence.complement: protein sequence"
  | Dna | Rna ->
      let comp c =
        let b = Nucleotide.complement (Nucleotide.of_char_exn c) in
        let b = if t.alphabet = Rna then Nucleotide.to_rna b else b in
        Nucleotide.to_char b
      in
      of_string_exn t.alphabet (String.init t.len (fun i -> comp (unsafe_get t i)))

let reverse_complement t = rev (complement t)

let to_rna t =
  match t.alphabet with
  | Rna -> t
  | Protein -> invalid_arg "Sequence.to_rna: protein sequence"
  | Dna ->
      let conv c = if c = 'T' then 'U' else c in
      of_string_exn Rna (String.init t.len (fun i -> conv (unsafe_get t i)))

let to_dna t =
  match t.alphabet with
  | Dna -> t
  | Protein -> invalid_arg "Sequence.to_dna: protein sequence"
  | Rna ->
      let conv c = if c = 'U' then 'T' else c in
      of_string_exn Dna (String.init t.len (fun i -> conv (unsafe_get t i)))

(* ------------------------------------------------------------------ *)
(* Search                                                              *)

let char_matches alpha a b =
  if a = b then true
  else
    match alpha with
    | Protein -> false
    | Dna | Rna -> (
        match Nucleotide.of_char a, Nucleotide.of_char b with
        | Some x, Some y -> Nucleotide.matches x y
        | _ -> false)

(* Generic matcher: decode one subject char at a time and compare via
   [char_matches]. Works for every alphabet/encoding pair. *)
let find_chars alphabet encoding buf off len ~start ~pattern =
  let m = String.length pattern in
  let limit = len - m in
  let rec at i j =
    if j = m then true
    else if char_matches alphabet (char_at alphabet encoding buf off (i + j)) pattern.[j]
    then at i (j + 1)
    else false
  in
  let rec loop i =
    if i > limit then None else if at i 0 then Some i else loop (i + 1)
  in
  loop (max 0 start)

(* Packed2 fast path. Canonical bases have exactly one 2-bit code each
   and T/U share code 3, so for a canonical pattern [char_matches]
   degenerates to code equality: a window of up to 31 subject codes
   packs into one 62-bit word (code j at bits 2j..2j+1) compared
   against a precomputed pattern word, advancing by one shift+or per
   position instead of per-char decode. Patterns longer than 31 verify
   the remaining codes only on a window hit. *)
let find_packed2 buf off len ~start ~pattern =
  let m = String.length pattern in
  let start = max 0 start in
  let limit = len - m in
  if limit < start then None
  else begin
    let mm = min m 31 in
    let pat = ref 0 in
    for j = mm - 1 downto 0 do
      pat := (!pat lsl 2) lor packed2_code pattern.[j]
    done;
    let pat = !pat in
    let verify_tail i =
      let rec go j =
        j >= m || (get2 buf off (i + j) = packed2_code pattern.[j] && go (j + 1))
      in
      go mm
    in
    let w = ref 0 in
    for j = mm - 1 downto 0 do
      w := (!w lsl 2) lor get2 buf off (start + j)
    done;
    let rec loop i =
      if !w = pat && (mm = m || verify_tail i) then Some i
      else if i >= limit then None
      else begin
        w := (!w lsr 2) lor (get2 buf off (i + mm) lsl (2 * (mm - 1)));
        loop (i + 1)
      end
    in
    loop start
  end

let all_packed2 pattern =
  let m = String.length pattern in
  let rec go i = i >= m || (packed2_code pattern.[i] >= 0 && go (i + 1)) in
  go 0

let find_in alphabet encoding buf off len ~start ~pattern =
  let m = String.length pattern in
  let pattern = String.uppercase_ascii pattern in
  if m = 0 then if start <= len then Some start else None
  else if encoding = Packed2 && all_packed2 pattern then
    find_packed2 buf off len ~start ~pattern
  else find_chars alphabet encoding buf off len ~start ~pattern

let find ?(start = 0) ~pattern t =
  find_in t.alphabet t.encoding t.payload 0 t.len ~start ~pattern

let find_all ~pattern t =
  let rec loop start acc =
    match find ~start ~pattern t with
    | None -> List.rev acc
    | Some i -> loop (i + 1) (i :: acc)
  in
  if String.length pattern = 0 then []
  else loop 0 []

let contains ~pattern t = find ~pattern t <> None

(* ------------------------------------------------------------------ *)
(* Packed word-level kernels                                           *)

(* GC counting one payload byte at a time via 256-entry tables: each
   Packed2 byte holds four 2-bit codes (G=2, C=1), each Packed4 byte two
   IUPAC nibbles (G=4, C=2, S=6 — the exact set [gc_count] accepts). *)

let gc2_byte_lut =
  Array.init 256 (fun b ->
      let n = ref 0 in
      for s = 0 to 3 do
        match (b lsr (s * 2)) land 3 with 1 | 2 -> incr n | _ -> ()
      done;
      !n)

let gc4_byte_lut =
  Array.init 256 (fun b ->
      let nib = function 2 | 4 | 6 -> 1 | _ -> 0 in
      nib (b land 15) + nib (b lsr 4))

(* The bases of a partial trailing byte are counted individually:
   [of_bytes] does not validate padding bits, so a crafted final byte
   must not leak into the count. *)
let gc_packed encoding buf off len =
  match encoding with
  | Packed2 ->
      let full = len / 4 in
      let n = ref 0 in
      for b = 0 to full - 1 do
        n := !n + Array.unsafe_get gc2_byte_lut (Char.code (Bytes.unsafe_get buf (off + b)))
      done;
      for i = full * 4 to len - 1 do
        match get2 buf off i with 1 | 2 -> incr n | _ -> ()
      done;
      !n
  | Packed4 ->
      let full = len / 2 in
      let n = ref 0 in
      for b = 0 to full - 1 do
        n := !n + Array.unsafe_get gc4_byte_lut (Char.code (Bytes.unsafe_get buf (off + b)))
      done;
      if len land 1 = 1 then begin
        match get4 buf off (len - 1) with 2 | 4 | 6 -> incr n | _ -> ()
      end;
      !n
  | Byte ->
      let n = ref 0 in
      for i = 0 to len - 1 do
        match Bytes.unsafe_get buf (off + i) with 'G' | 'C' | 'S' -> incr n | _ -> ()
      done;
      !n

(* Rolling k-mer extraction straight off the packed codes, using the
   same big-endian hash convention as [Kmer_index] (A=0 C=1 G=2 T=3;
   U shares T's code). The valid counter resets on any base without a
   canonical 2-bit code, so ambiguity codes never produce a k-mer. *)
let fold_kmers ~k f init t =
  if k < 1 || k > 31 then invalid_arg "Sequence.fold_kmers: k must be in [1, 31]";
  let mask = (1 lsl (2 * k)) - 1 in
  let code_at =
    match t.encoding with
    | Packed2 -> fun i -> get2 t.payload 0 i
    | Packed4 | Byte -> fun i -> packed2_code (Char.uppercase_ascii (unsafe_get t i))
  in
  let acc = ref init in
  let hash = ref 0 and valid = ref 0 in
  for i = 0 to t.len - 1 do
    let c = code_at i in
    if c < 0 then begin
      valid := 0;
      hash := 0
    end
    else begin
      hash := ((!hash lsl 2) lor c) land mask;
      incr valid;
      if !valid >= k then acc := f !acc (i - k + 1) !hash
    end
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)

let equal a b =
  a.alphabet = b.alphabet && a.len = b.len
  &&
  let rec loop i =
    i >= a.len || (unsafe_get a i = unsafe_get b i && loop (i + 1))
  in
  loop 0

let compare a b =
  let c = Stdlib.compare a.alphabet b.alphabet in
  if c <> 0 then c
  else
    let n = min a.len b.len in
    let rec loop i =
      if i = n then Stdlib.compare a.len b.len
      else
        let c = Char.compare (unsafe_get a i) (unsafe_get b i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0

let hash t = Hashtbl.hash (t.alphabet, to_string t)

let memory_bytes t = Bytes.length t.payload

(* ------------------------------------------------------------------ *)
(* Binary serialization (the "compact storage area" of section 4.4)    *)

let tag_of t =
  let a = match t.alphabet with Dna -> 0 | Rna -> 1 | Protein -> 2 in
  let e = match t.encoding with Packed2 -> 0 | Packed4 -> 1 | Byte -> 2 in
  (a lsl 2) lor e

let to_bytes t =
  let payload_len = Bytes.length t.payload in
  let buf = Bytes.create (1 + 8 + payload_len) in
  Bytes.set buf 0 (Char.chr (tag_of t));
  Bytes.set_int64_le buf 1 (Int64.of_int t.len);
  Bytes.blit t.payload 0 buf 9 payload_len;
  buf

(* ------------------------------------------------------------------ *)
(* Framed kernels: operate on a [to_bytes] buffer in place              *)

(* Validates a frame but keeps the payload where it is (offset 9):
   [of_bytes] copies it out, the scan kernels below read it in place, so
   rows never need a per-row [Bytes.sub]. *)
let frame_info buf =
  if Bytes.length buf < 9 then None
  else
    let tag = Char.code (Bytes.get buf 0) in
    let alpha =
      match tag lsr 2 with 0 -> Some Dna | 1 -> Some Rna | 2 -> Some Protein | _ -> None
    in
    let enc =
      match tag land 3 with 0 -> Some Packed2 | 1 -> Some Packed4 | 2 -> Some Byte | _ -> None
    in
    match alpha, enc with
    | Some alphabet, Some encoding ->
        let len = Int64.to_int (Bytes.get_int64_le buf 1) in
        let expected =
          match encoding with
          | Packed2 -> (len + 3) / 4
          | Packed4 -> (len + 1) / 2
          | Byte -> len
        in
        if len < 0 || Bytes.length buf <> 9 + expected then None
        else Some (alphabet, encoding, len)
    | _ -> None

let of_bytes buf =
  match frame_info buf with
  | Some (alphabet, encoding, len) ->
      Ok { alphabet; encoding; len; payload = Bytes.sub buf 9 (Bytes.length buf - 9) }
  | None -> Error "Sequence.of_bytes: invalid frame"

let framed_info buf =
  match frame_info buf with
  | Some (alphabet, _, len) -> Some (alphabet, len)
  | None -> None

let framed_gc_count buf =
  match frame_info buf with
  | Some ((Dna | Rna), encoding, len) -> Some (gc_packed encoding buf 9 len)
  | Some (Protein, _, _) | None -> None

let framed_find ?(start = 0) ~pattern buf =
  match frame_info buf with
  | Some (alphabet, encoding, len) ->
      Some (find_in alphabet encoding buf 9 len ~start ~pattern)
  | None -> None

let framed_contains ~pattern buf =
  match framed_find ~pattern buf with
  | Some r -> Some (r <> None)
  | None -> None

let pp ppf t =
  let n = min t.len 60 in
  let prefix = String.init n (fun i -> unsafe_get t i) in
  if t.len <= 60 then Format.fprintf ppf "%s" prefix
  else Format.fprintf ppf "%s… (%d)" prefix t.len
