(* Table-driven reflected CRC-32 (polynomial 0xEDB88320). *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           if Int32.logand !c 1l <> 0l then
             c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
           else c := Int32.shift_right_logical !c 1
         done;
         !c))

let update crc byte =
  let t = Lazy.force table in
  let idx = Int32.to_int (Int32.logand (Int32.logxor crc (Int32.of_int byte)) 0xffl) in
  Int32.logxor t.(idx) (Int32.shift_right_logical crc 8)

let finish crc = Int32.logxor crc 0xffffffffl

let sub b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Checksum.sub";
  let crc = ref 0xffffffffl in
  for i = pos to pos + len - 1 do
    crc := update !crc (Char.code (Bytes.unsafe_get b i))
  done;
  finish !crc

let bytes b = sub b ~pos:0 ~len:(Bytes.length b)

let string s =
  let crc = ref 0xffffffffl in
  String.iter (fun ch -> crc := update !crc (Char.code ch)) s;
  finish !crc
