type t =
  | TBool
  | TInt
  | TFloat
  | TString
  | TOpaque of string

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Opaque of string * bytes

let type_of_value = function
  | Null -> None
  | Bool _ -> Some TBool
  | Int _ -> Some TInt
  | Float _ -> Some TFloat
  | Str _ -> Some TString
  | Opaque (name, _) -> Some (TOpaque name)

let conforms ty v =
  match ty, v with
  | _, Null -> true
  | TBool, Bool _ -> true
  | TInt, Int _ -> true
  | TFloat, (Float _ | Int _) -> true
  | TString, Str _ -> true
  | TOpaque name, Opaque (n, _) -> name = n
  | (TBool | TInt | TFloat | TString | TOpaque _), _ -> false

let to_string = function
  | TBool -> "bool"
  | TInt -> "int"
  | TFloat -> "float"
  | TString -> "string"
  | TOpaque name -> name

let of_string s =
  match String.lowercase_ascii s with
  | "bool" | "boolean" -> Some TBool
  | "int" | "integer" -> Some TInt
  | "float" | "real" | "double" -> Some TFloat
  | "string" | "text" | "varchar" -> Some TString
  | "" -> None
  | other -> Some (TOpaque other)

let value_to_display = function
  | Null -> "NULL"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s
  | Opaque (name, payload) -> Printf.sprintf "<%s:%d bytes>" name (Bytes.length payload)

let equal_value a b =
  match a, b with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Int x, Float y | Float y, Int x -> Float.equal (float_of_int x) y
  | Str x, Str y -> x = y
  | Opaque (nx, px), Opaque (ny, py) -> nx = ny && Bytes.equal px py
  | _ -> false

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3
  | Opaque _ -> 4

let compare_value a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Opaque (nx, px), Opaque (ny, py) ->
      let c = String.compare nx ny in
      if c <> 0 then c else Bytes.compare px py
  | _ -> Int.compare (rank a) (rank b)

module Value_map = Map.Make (struct
  type t = value

  let compare = compare_value
end)

(* --------------------------------------------------------------- *)
(* Binary encoding: 1 tag byte, then a type-specific payload.       *)

let add_int64 buf i = Buffer.add_int64_le buf (Int64.of_int i)

let add_sized buf s =
  add_int64 buf (String.length s);
  Buffer.add_string buf s

let encode_value buf = function
  | Null -> Buffer.add_char buf '\000'
  | Bool b ->
      Buffer.add_char buf '\001';
      Buffer.add_char buf (if b then '\001' else '\000')
  | Int i ->
      Buffer.add_char buf '\002';
      add_int64 buf i
  | Float f ->
      Buffer.add_char buf '\003';
      Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Str s ->
      Buffer.add_char buf '\004';
      add_sized buf s
  | Opaque (name, payload) ->
      Buffer.add_char buf '\005';
      add_sized buf name;
      add_int64 buf (Bytes.length payload);
      Buffer.add_bytes buf payload

let read_int64 buf off =
  if off + 8 > Bytes.length buf then invalid_arg "Dtype.decode_value: truncated";
  (Int64.to_int (Bytes.get_int64_le buf off), off + 8)

let read_sized buf off =
  let len, off = read_int64 buf off in
  if len < 0 || off + len > Bytes.length buf then
    invalid_arg "Dtype.decode_value: truncated string";
  (Bytes.sub_string buf off len, off + len)

let decode_value buf off =
  if off >= Bytes.length buf then invalid_arg "Dtype.decode_value: empty";
  match Bytes.get buf off with
  | '\000' -> (Null, off + 1)
  | '\001' ->
      if off + 2 > Bytes.length buf then invalid_arg "Dtype.decode_value: truncated";
      (Bool (Bytes.get buf (off + 1) <> '\000'), off + 2)
  | '\002' ->
      let i, off = read_int64 buf (off + 1) in
      (Int i, off)
  | '\003' ->
      if off + 9 > Bytes.length buf then invalid_arg "Dtype.decode_value: truncated";
      (Float (Int64.float_of_bits (Bytes.get_int64_le buf (off + 1))), off + 9)
  | '\004' ->
      let s, off = read_sized buf (off + 1) in
      (Str s, off)
  | '\005' ->
      let name, off = read_sized buf (off + 1) in
      let len, off = read_int64 buf off in
      if len < 0 || off + len > Bytes.length buf then
        invalid_arg "Dtype.decode_value: truncated opaque";
      (Opaque (name, Bytes.sub buf off len), off + len)
  | _ -> invalid_arg "Dtype.decode_value: unknown tag"

let encode_row row =
  let buf = Buffer.create 64 in
  add_int64 buf (Array.length row);
  Array.iter (encode_value buf) row;
  Buffer.to_bytes buf

let decode_row buf =
  try
    let n, off = read_int64 buf 0 in
    (* every value takes at least one tag byte, so the arity cannot exceed
       the remaining payload — guards against huge corrupted headers *)
    if n < 0 || n > Bytes.length buf - off then
      invalid_arg "Dtype.decode_row: corrupt arity";
    let off = ref off in
    Ok
      (Array.init n (fun _ ->
           let v, next = decode_value buf !off in
           off := next;
           v))
  with Invalid_argument msg -> Error msg

let pp ppf ty = Format.pp_print_string ppf (to_string ty)
let pp_value ppf v = Format.pp_print_string ppf (value_to_display v)
