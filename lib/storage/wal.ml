module Fault = Genalg_fault.Fault
module Obs = Genalg_obs.Obs

let c_appends = Obs.counter "storage.wal.appends"
let c_flushes = Obs.counter "storage.wal.flushes"
let c_flushed_bytes = Obs.counter "storage.wal.flushed_bytes"
let c_truncations = Obs.counter "storage.wal.truncations"
let c_replay_committed = Obs.counter "storage.wal.replay.committed"
let c_replay_discarded = Obs.counter "storage.wal.replay.discarded"

let magic = "GENALGWL1"

let crash_points = [ "storage.wal.flush_partial"; "storage.wal.flush" ]
let () = List.iter Fault.register_crash_point crash_points

let wal_path db_path = db_path ^ ".wal"

type t = {
  wal_file : string;
  mutable fd : Unix.file_descr;
  pending : Buffer.t; (* records appended but not yet flushed *)
}

let path t = t.wal_file
let pending_bytes t = Buffer.length t.pending

let open_ file =
  match
    let exists = Sys.file_exists file in
    let fd = Unix.openfile file [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
    if exists then begin
      let m = Bytes.create (String.length magic) in
      let n = Unix.read fd m 0 (Bytes.length m) in
      if n <> Bytes.length m || Bytes.to_string m <> magic then begin
        Unix.close fd;
        failwith (file ^ ": not a genalg WAL (bad magic)")
      end;
      ignore (Unix.lseek fd 0 Unix.SEEK_END)
    end
    else begin
      let b = Bytes.of_string magic in
      ignore (Unix.write fd b 0 (Bytes.length b));
      Unix.fsync fd;
      (* the file's directory entry must also survive power loss *)
      Fsutil.fsync_dir (Fsutil.parent file)
    end;
    { wal_file = file; fd; pending = Buffer.create 512 }
  with
  | t -> Ok t
  | exception Failure msg -> Error msg
  | exception Unix.Unix_error (e, _, _) ->
      Error (file ^ ": " ^ Unix.error_message e)

(* ---- record encoding ---- *)

let add_record t payload =
  let buf = t.pending in
  Buffer.add_int64_le buf (Int64.of_int (String.length payload));
  Buffer.add_int64_le buf (Int64.of_int32 (Checksum.string payload));
  Buffer.add_string buf payload;
  Obs.add c_appends 1

let payload ~txn kind rest =
  let b = Buffer.create (16 + String.length rest) in
  Buffer.add_int64_le b (Int64.of_int txn);
  Buffer.add_char b kind;
  Buffer.add_string b rest;
  Buffer.contents b

let append_begin t ~txn = add_record t (payload ~txn 'B' "")
let append_commit t ~txn = add_record t (payload ~txn 'C' "")

let append_stmt t ~txn ~actor ~sql =
  let rest = Buffer.create (9 + String.length actor + String.length sql) in
  Buffer.add_int64_le rest (Int64.of_int (String.length actor));
  Buffer.add_string rest actor;
  Buffer.add_string rest sql;
  add_record t (payload ~txn 'S' (Buffer.contents rest))

let append_marker t ~txn ~lsn =
  let rest = Buffer.create 8 in
  Buffer.add_int64_le rest (Int64.of_int lsn);
  add_record t (payload ~txn 'M' (Buffer.contents rest))

let write_all fd s pos len =
  let b = Bytes.of_string s in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write fd b (pos + !written) (len - !written)
  done

let flush t =
  if Buffer.length t.pending = 0 then Ok ()
  else
    match
      let image = Buffer.contents t.pending in
      (* written in two halves around a crash point so fault specs can
         manufacture a genuinely torn tail *)
      let mid = String.length image / 2 in
      write_all t.fd image 0 mid;
      Fault.crash "storage.wal.flush_partial";
      write_all t.fd image mid (String.length image - mid);
      Unix.fsync t.fd;
      Fault.crash "storage.wal.flush";
      Buffer.clear t.pending;
      Obs.add c_flushes 1;
      Obs.add c_flushed_bytes (String.length image)
    with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
        Error (t.wal_file ^ ": " ^ Unix.error_message e)

let drop_pending t = Buffer.clear t.pending

let truncate t =
  match
    Buffer.clear t.pending;
    Unix.ftruncate t.fd (String.length magic);
    ignore (Unix.lseek t.fd 0 Unix.SEEK_END);
    Unix.fsync t.fd;
    Obs.add c_truncations 1
  with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
      Error (t.wal_file ^ ": " ^ Unix.error_message e)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* ---- recovery scan ---- *)

type replay_stmt = { rp_txn : int; rp_actor : string; rp_sql : string }

type replay = {
  committed : replay_stmt list;
  discarded : int;
  torn : bool;
  last_lsn : int option;
}

module R = Byte_reader

let scan ?from file =
  if not (Sys.file_exists file) then
    Ok { committed = []; discarded = 0; torn = false; last_lsn = None }
  else
    match
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error msg -> Error msg
    | contents ->
        if not (String.starts_with ~prefix:magic contents) then
          Error (file ^ ": not a genalg WAL (bad magic)")
        else begin
          (* per-txn pending statements, in append order; txns emit into
             [out] when their commit record is reached *)
          let open_txns : (int, replay_stmt list ref) Hashtbl.t =
            Hashtbl.create 7
          in
          (* per-txn applied-LSN markers; honoured only at commit *)
          let markers : (int, int) Hashtbl.t = Hashtbl.create 7 in
          let out = ref [] in
          let discarded = ref 0 in
          let last_lsn = ref None in
          let note_lsn lsn =
            match !last_lsn with
            | Some prev when prev >= lsn -> ()
            | _ -> last_lsn := Some lsn
          in
          let wanted txn =
            match from with None -> true | Some cut -> txn > cut
          in
          (* a record: len | crc | payload, the payload txn | kind | rest;
             the first record that fails to read ends the scan as a torn
             tail *)
          let read_record r =
            let len = R.int r in
            let crc = Int64.to_int32 (R.int64 r) in
            if R.crc r len <> crc then R.fail "checksum mismatch";
            let p = R.sub r len in
            let txn = Int64.to_int (R.int64 p) in
            match R.char p with
            | 'B' -> Hashtbl.replace open_txns txn (ref [])
            | 'S' ->
                let actor = R.string p in
                let sql = R.raw p (R.remaining p) in
                let stmts =
                  match Hashtbl.find_opt open_txns txn with
                  | Some l -> l
                  | None ->
                      let l = ref [] in
                      Hashtbl.replace open_txns txn l;
                      l
                in
                stmts := { rp_txn = txn; rp_actor = actor; rp_sql = sql } :: !stmts
            | 'M' -> (
                let lsn = R.int p in
                match Hashtbl.find_opt markers txn with
                | Some prev when prev >= lsn -> ()
                | _ -> Hashtbl.replace markers txn lsn)
            | 'C' -> (
                (match Hashtbl.find_opt markers txn with
                | Some lsn -> note_lsn lsn
                | None -> ());
                Hashtbl.remove markers txn;
                match Hashtbl.find_opt open_txns txn with
                | Some stmts ->
                    (* [!stmts] is newest-first and [out] is kept
                       newest-first overall, so plain prepend keeps the
                       final [List.rev] correct within a txn *)
                    if wanted txn then out := !stmts @ !out;
                    Hashtbl.remove open_txns txn
                | None -> () (* commit of an empty txn *))
            | _ -> R.fail "unknown record kind"
          in
          let torn =
            R.run_string contents (fun r ->
                ignore (R.raw r (String.length magic));
                while R.remaining r > 0 do
                  read_record r
                done)
            |> Result.is_error
          in
          (* whatever is still open never committed: its records are
             discarded (an unacknowledged in-flight transaction) *)
          Hashtbl.iter
            (fun _ stmts -> discarded := !discarded + List.length !stmts)
            open_txns;
          let committed = List.rev !out in
          Obs.add c_replay_committed (List.length committed);
          Obs.add c_replay_discarded !discarded;
          Ok { committed; discarded = !discarded; torn; last_lsn = !last_lsn }
        end

let replay file = scan file
let replay_from file ~lsn = scan ~from:lsn file
