module D = Genalg_storage.Dtype

let version = 3
let min_version = 1
let supported v = v >= min_version && v <= version
let max_frame = 16 * 1024 * 1024

type request =
  | Hello of { actor : string; client_version : int }
  | Query of { sql : string }
  | Fenced_query of { epoch : int; lsn : int option; sql : string }
  | Resync of { epoch : int }
  | Begin
  | Commit
  | Rollback
  | Stats
  | Ping
  | Goodbye
  | Shutdown of { dirty : bool }

type error_code =
  | PROTO
  | ADMISSION
  | QUERY
  | TXN_STATE
  | CONFLICT
  | LIMIT
  | SHUTDOWN
  | VERSION
  | FENCED

type reply =
  | Welcome of { session : int; server_version : int; topology : string }
  | Ok_reply of { info : string }
  | Rows of { columns : string list; rows : D.value array list }
  | Affected of int
  | Error_reply of { code : error_code; message : string }
  | Pong
  | Stats_text of string
  | Resync_state of { epoch : int; applied_lsn : int }
  | Bye

let error_code_to_string = function
  | PROTO -> "PROTO"
  | ADMISSION -> "ADMISSION"
  | QUERY -> "QUERY"
  | TXN_STATE -> "TXN_STATE"
  | CONFLICT -> "CONFLICT"
  | LIMIT -> "LIMIT"
  | SHUTDOWN -> "SHUTDOWN"
  | VERSION -> "VERSION"
  | FENCED -> "FENCED"

let error_code_to_int = function
  | PROTO -> 1
  | ADMISSION -> 2
  | QUERY -> 3
  | TXN_STATE -> 4
  | CONFLICT -> 5
  | LIMIT -> 6
  | SHUTDOWN -> 7
  | VERSION -> 8
  | FENCED -> 9

let error_code_of_int = function
  | 1 -> Some PROTO
  | 2 -> Some ADMISSION
  | 3 -> Some QUERY
  | 4 -> Some TXN_STATE
  | 5 -> Some CONFLICT
  | 6 -> Some LIMIT
  | 7 -> Some SHUTDOWN
  | 8 -> Some VERSION
  | 9 -> Some FENCED
  | _ -> None

let request_tag = function
  | Hello _ -> 'H'
  | Query _ -> 'Q'
  | Fenced_query _ -> 'F'
  | Resync _ -> 'N'
  | Begin -> 'B'
  | Commit -> 'C'
  | Rollback -> 'R'
  | Stats -> 'S'
  | Ping -> 'P'
  | Goodbye -> 'G'
  | Shutdown _ -> 'X'

let reply_tag = function
  | Welcome _ -> 'W'
  | Ok_reply _ -> 'K'
  | Rows _ -> 'T'
  | Affected _ -> 'A'
  | Error_reply _ -> 'E'
  | Pong -> 'O'
  | Stats_text _ -> 'Z'
  | Resync_state _ -> 'U'
  | Bye -> 'Y'

(* ---- body primitives: i64le ints and length-prefixed strings ---- *)

let add_int buf n = Buffer.add_int64_le buf (Int64.of_int n)

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

module R = Genalg_storage.Byte_reader

(* ---- requests ---- *)

let encode_request r =
  let buf = Buffer.create 64 in
  Buffer.add_char buf (request_tag r);
  (match r with
  | Hello { actor; client_version } ->
      add_int buf client_version;
      add_str buf actor
  | Query { sql } -> add_str buf sql
  | Fenced_query { epoch; lsn; sql } ->
      add_int buf epoch;
      (* the codec rejects negative ints, so the optional LSN ships
         shifted: 0 = none, n+1 = Some n *)
      add_int buf (match lsn with None -> 0 | Some l -> l + 1);
      add_str buf sql
  | Resync { epoch } -> add_int buf epoch
  | Shutdown { dirty } -> Buffer.add_char buf (if dirty then '\001' else '\000')
  | Begin | Commit | Rollback | Stats | Ping | Goodbye -> ());
  Buffer.contents buf

let decode_request s =
  R.run_string s (fun c ->
      let r =
        match R.char c with
        | 'H' ->
            let client_version = R.int c in
            let actor = R.string c in
            Hello { actor; client_version }
        | 'Q' -> Query { sql = R.string c }
        | 'F' ->
            let epoch = R.int c in
            let shifted = R.int c in
            let lsn = if shifted = 0 then None else Some (shifted - 1) in
            let sql = R.string c in
            Fenced_query { epoch; lsn; sql }
        | 'N' -> Resync { epoch = R.int c }
        | 'B' -> Begin
        | 'C' -> Commit
        | 'R' -> Rollback
        | 'S' -> Stats
        | 'P' -> Ping
        | 'G' -> Goodbye
        | 'X' -> Shutdown { dirty = R.char c <> '\000' }
        | t -> R.fail (Printf.sprintf "unknown request tag %C" t)
      in
      (* HELLO tolerates trailing bytes: a future-version client may
         append fields we don't know, and the server must still be able
         to read the version number and answer with a typed VERSION
         error rather than a framing failure *)
      (match r with Hello _ -> () | _ -> R.expect_end c);
      r)

(* ---- replies ---- *)

let encode_reply r =
  let buf = Buffer.create 256 in
  Buffer.add_char buf (reply_tag r);
  (match r with
  | Welcome { session; server_version; topology } ->
      add_int buf server_version;
      add_int buf session;
      (* v2 appends the shard topology; omitted (v1 wire shape) when
         empty so v1 clients still decode the welcome *)
      if topology <> "" then add_str buf topology
  | Ok_reply { info } -> add_str buf info
  | Rows { columns; rows } ->
      add_int buf (List.length columns);
      List.iter (add_str buf) columns;
      add_int buf (List.length rows);
      List.iter
        (fun row ->
          let enc = D.encode_row row in
          add_int buf (Bytes.length enc);
          Buffer.add_bytes buf enc)
        rows
  | Affected n -> add_int buf n
  | Error_reply { code; message } ->
      add_int buf (error_code_to_int code);
      add_str buf message
  | Pong -> ()
  | Stats_text text -> add_str buf text
  | Resync_state { epoch; applied_lsn } ->
      add_int buf epoch;
      add_int buf applied_lsn
  | Bye -> ());
  Buffer.contents buf

let decode_reply s =
  R.run_string s (fun c ->
      let r =
        match R.char c with
        | 'W' ->
            let server_version = R.int c in
            let session = R.int c in
            let topology = if R.remaining c > 0 then R.string c else "" in
            Welcome { session; server_version; topology }
        | 'K' -> Ok_reply { info = R.string c }
        | 'T' ->
            let columns = List.init (R.count c) (fun _ -> R.string c) in
            (* each row decodes in place, from a cursor over its bytes *)
            let rows =
              List.init (R.count c) (fun _ -> D.read_row (R.sub c (R.int c)))
            in
            Rows { columns; rows }
        | 'A' -> Affected (R.int c)
        | 'E' ->
            let code =
              match error_code_of_int (R.int c) with
              | Some code -> code
              | None -> R.fail "unknown error code"
            in
            let message = R.string c in
            Error_reply { code; message }
        | 'O' -> Pong
        | 'Z' -> Stats_text (R.string c)
        | 'U' ->
            let epoch = R.int c in
            let applied_lsn = R.int c in
            Resync_state { epoch; applied_lsn }
        | 'Y' -> Bye
        | t -> R.fail (Printf.sprintf "unknown reply tag %C" t)
      in
      R.expect_end c;
      r)

(* ---- framing ---- *)

let write_frame fd payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff);
  Bytes.blit_string payload 0 b 4 n;
  let written = ref 0 in
  while !written < Bytes.length b do
    written :=
      !written + Unix.write fd b !written (Bytes.length b - !written)
  done

let read_exactly fd n =
  let b = Bytes.create n in
  let got = ref 0 in
  (try
     while !got < n do
       let k = Unix.read fd b !got (n - !got) in
       if k = 0 then raise Exit;
       got := !got + k
     done
   with
  | Exit -> ()
  | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ());
  if !got = n then Some b else None

let read_frame fd =
  match read_exactly fd 4 with
  | None -> Error "connection closed"
  | Some hdr ->
      let n =
        (Bytes.get_uint8 hdr 0 lsl 24)
        lor (Bytes.get_uint8 hdr 1 lsl 16)
        lor (Bytes.get_uint8 hdr 2 lsl 8)
        lor Bytes.get_uint8 hdr 3
      in
      if n > max_frame then Error "oversized frame"
      else (
        match read_exactly fd n with
        | None -> Error "truncated frame"
        | Some b -> Ok (Bytes.to_string b))

module Framing = struct
  type t = { buf : Buffer.t }

  let create () = { buf = Buffer.create 1024 }
  let feed t b n = Buffer.add_subbytes t.buf b 0 n

  let next t =
    let len = Buffer.length t.buf in
    if len < 4 then Ok None
    else begin
      let s = Buffer.contents t.buf in
      let n =
        (Char.code s.[0] lsl 24)
        lor (Char.code s.[1] lsl 16)
        lor (Char.code s.[2] lsl 8)
        lor Char.code s.[3]
      in
      if n > max_frame then Error "oversized frame"
      else if len < 4 + n then Ok None
      else begin
        let frame = String.sub s 4 n in
        Buffer.clear t.buf;
        Buffer.add_substring t.buf s (4 + n) (len - 4 - n);
        Ok (Some frame)
      end
    end
end
