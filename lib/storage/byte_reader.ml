type t = { data : bytes; mutable pos : int; limit : int }

exception Rejected of string

let fail msg = raise (Rejected msg)

let run data f =
  match f { data; pos = 0; limit = Bytes.length data } with
  | v -> Ok v
  | exception Rejected msg -> Error msg

let run_string s f = run (Bytes.unsafe_of_string s) f
let remaining r = r.limit - r.pos

(* [n > limit - pos], not [pos + n > limit]: a length near [max_int]
   would wrap the sum negative and pass *)
let need r n = if n < 0 || n > r.limit - r.pos then fail "truncated"

let int64 r =
  need r 8;
  let v = Bytes.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let int r =
  let v = Int64.to_int (int64 r) in
  if v < 0 then fail "negative length";
  v

let count r =
  let n = int r in
  if n > remaining r then fail "implausible count";
  n

let char r =
  need r 1;
  let c = Bytes.get r.data r.pos in
  r.pos <- r.pos + 1;
  c

let raw r n =
  need r n;
  let s = Bytes.sub_string r.data r.pos n in
  r.pos <- r.pos + n;
  s

let bytes r n =
  need r n;
  let b = Bytes.sub r.data r.pos n in
  r.pos <- r.pos + n;
  b

let string r = raw r (int r)

let sub r n =
  need r n;
  let c = { data = r.data; pos = r.pos; limit = r.pos + n } in
  r.pos <- r.pos + n;
  c

let crc r n =
  need r n;
  Checksum.sub r.data ~pos:r.pos ~len:n

let expect_end r = if r.pos <> r.limit then fail "trailing bytes"
