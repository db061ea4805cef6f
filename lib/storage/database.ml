type space =
  | Public
  | User of string

type entry = {
  space : space;
  table : Table.t;
  mutable grantees : string list; (* read grants, user tables only *)
}

type cache = ..

type t = {
  mutable entries : entry list;
  mutable catalog_version : int;
  udts : Udt.t;
  mutable cache : cache option;
      (* filled by a layer above storage (the sqlx result cache); never
         copied, so clones and loaded images start empty *)
}

let loader_actor = "etl"

let create () =
  { entries = []; catalog_version = 0; udts = Udt.create (); cache = None }

let cache t = t.cache
let set_cache t c = t.cache <- Some c
let catalog_version t = t.catalog_version
let udts t = t.udts

let space_key = function
  | Public -> "!public"
  | User u -> "user:" ^ String.lowercase_ascii u

let entry_key space name = space_key space ^ "/" ^ String.lowercase_ascii name

let find_entry t space name =
  let k = entry_key space name in
  List.find_opt (fun e -> entry_key e.space (Table.name e.table) = k) t.entries

let can_write _t ~actor = function
  | Public -> actor = loader_actor
  | User u -> String.lowercase_ascii actor = String.lowercase_ascii u

let can_read_entry ~actor e =
  match e.space with
  | Public -> true
  | User u ->
      String.lowercase_ascii actor = String.lowercase_ascii u
      || List.exists
           (fun g -> String.lowercase_ascii g = String.lowercase_ascii actor)
           e.grantees

(* Space-level readability; per-table grants are honoured by [resolve]. *)
let can_read _t ~actor = function
  | Public -> true
  | User u -> String.lowercase_ascii actor = String.lowercase_ascii u

let create_table t ~actor ~space ~name schema =
  if name = "" then Error "empty table name"
  else if not (can_write t ~actor space) then
    Error (Printf.sprintf "actor %s may not create tables in this space" actor)
  else if find_entry t space name <> None then
    Error (Printf.sprintf "table %s already exists" name)
  else begin
    let table = Table.create ~name schema in
    t.entries <- t.entries @ [ { space; table; grantees = [] } ];
    t.catalog_version <- t.catalog_version + 1;
    Ok table
  end

let drop_table t ~actor ~space ~name =
  if not (can_write t ~actor space) then
    Error (Printf.sprintf "actor %s may not drop tables in this space" actor)
  else
    match find_entry t space name with
    | None -> Error (Printf.sprintf "no table %s" name)
    | Some e ->
        t.entries <- List.filter (fun e' -> e' != e) t.entries;
        t.catalog_version <- t.catalog_version + 1;
        Ok ()

let find_table t ~space name =
  Option.map (fun e -> e.table) (find_entry t space name)

let resolve t ~actor name =
  let own = find_entry t (User actor) name in
  let entry =
    match own with
    | Some _ -> own
    | None -> (
        match find_entry t Public name with
        | Some _ as r -> r
        | None ->
            (* granted tables in other user spaces *)
            List.find_opt
              (fun e ->
                String.lowercase_ascii (Table.name e.table) = String.lowercase_ascii name
                && can_read_entry ~actor e)
              t.entries)
  in
  match entry with
  | Some e when can_read_entry ~actor e -> Some (e.space, e.table)
  | Some _ | None -> None

let grant_read t ~owner ~grantee ~table =
  match find_entry t (User owner) table with
  | None -> Error (Printf.sprintf "no table %s owned by %s" table owner)
  | Some e ->
      if not (List.mem grantee e.grantees) then begin
        e.grantees <- grantee :: e.grantees;
        t.catalog_version <- t.catalog_version + 1
      end;
      Ok ()

let insert t ~actor ~space ~table row =
  if not (can_write t ~actor space) then
    Error (Printf.sprintf "actor %s may not write this space" actor)
  else
    match find_entry t space table with
    | None -> Error (Printf.sprintf "no table %s" table)
    | Some e ->
        let rec validate i =
          if i = Array.length row then Ok ()
          else
            match Udt.validate_value t.udts row.(i) with
            | Ok () -> validate (i + 1)
            | Error _ as err -> err
        in
        (match validate 0 with
        | Error _ as err -> err
        | Ok () -> Table.insert e.table row)

let tables t =
  let rank = function Public -> (0, "") | User u -> (1, String.lowercase_ascii u) in
  List.map (fun e -> (e.space, e.table)) t.entries
  |> List.sort (fun (s1, t1) (s2, t2) ->
         let c = compare (rank s1) (rank s2) in
         if c <> 0 then c else String.compare (Table.name t1) (Table.name t2))

let table_count t = List.length t.entries

(* --------------------------------------------------------------- *)
(* Persistence: crash-safe, checksummed snapshots.

   On-disk format (v2, magic GENALGDB2):
     magic | n_chunks:i64 | payload_len:i64
     then per chunk: len:i64 | crc32:i64 | bytes
   The concatenated chunk bytes are the v1 body (magic GENALGDB1 ...),
   which loads unchanged for pre-v2 files. Per-chunk CRCs turn torn
   writes and bit flips into clean load errors instead of silent
   corruption.

   Saves follow a write-ahead intent protocol, punctuated by registered
   fault crash points so the whole sequence is testable:

     serialize -> write <path>.journal (CRC + length of the complete
     new image) -> write <path>.tmp -> rename over <path> -> clear
     journal.

   [recover] (run by every [load]) looks at the journal: a tmp matching
   the journaled CRC is rolled forward (the save is completed); anything
   else is rolled back to the previous snapshot. Either way the database
   opens to exactly the pre-save or post-save state, never a mix. *)

module Fault = Genalg_fault.Fault
module Obs = Genalg_obs.Obs

let c_roll_forward = Obs.counter "storage.recovery.roll_forward"
let c_roll_back = Obs.counter "storage.recovery.roll_back"
let c_journal_cleared = Obs.counter "storage.recovery.journal_cleared"
let c_checksum_failures = Obs.counter "storage.recovery.checksum_failures"
let c_clean_open = Obs.counter "storage.recovery.clean_open"

let crash_points =
  [ "storage.save.serialize"; "storage.save.stats"; "storage.save.journal";
    "storage.save.tmp_partial"; "storage.save.tmp"; "storage.save.rename";
    "storage.save.dir_sync" ]

let () = List.iter Fault.register_crash_point crash_points

let magic = "GENALGDB1"
let magic_v2 = "GENALGDB2"
let magic_v3 = "GENALGDB3"
let journal_magic = "GENALGJL1"

let add_sized buf s =
  Buffer.add_int64_le buf (Int64.of_int (String.length s));
  Buffer.add_string buf s

let encode_schema buf schema =
  let cols = Schema.columns schema in
  Buffer.add_int64_le buf (Int64.of_int (List.length cols));
  List.iter
    (fun (c : Schema.column) ->
      add_sized buf c.Schema.name;
      add_sized buf (Dtype.to_string c.Schema.dtype);
      Buffer.add_char buf (if c.Schema.nullable then '\001' else '\000'))
    cols

let encode_stats buf table =
  let stats = Table.stats_snapshot table in
  Buffer.add_int64_le buf (Int64.of_int (List.length stats));
  List.iter
    (fun (col, (cs : Table.column_stats)) ->
      add_sized buf col;
      Buffer.add_int64_le buf (Int64.of_int cs.Table.rows);
      Buffer.add_int64_le buf (Int64.of_int cs.Table.distinct);
      Buffer.add_int64_le buf (Int64.of_int cs.Table.nulls);
      let add_opt = function
        | None -> Buffer.add_char buf '\000'
        | Some v ->
            Buffer.add_char buf '\001';
            Dtype.encode_value buf v
      in
      add_opt cs.Table.min_value;
      add_opt cs.Table.max_value;
      match cs.Table.histogram with
      | None -> Buffer.add_int64_le buf 0L
      | Some h ->
          Buffer.add_int64_le buf (Int64.of_int (Array.length h.Table.bounds));
          Array.iteri
            (fun i b ->
              Dtype.encode_value buf b;
              Buffer.add_int64_le buf (Int64.of_int h.Table.counts.(i)))
            h.Table.bounds)
    stats

let serialize t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic_v3;
  Buffer.add_int64_le buf (Int64.of_int (List.length t.entries));
  List.iter
    (fun e ->
      (match e.space with
      | Public -> add_sized buf "!public"
      | User u -> add_sized buf ("user:" ^ u));
      add_sized buf (Table.name e.table);
      encode_schema buf (Table.schema e.table);
      let indexed = Table.indexed_columns e.table in
      Buffer.add_int64_le buf (Int64.of_int (List.length indexed));
      List.iter (add_sized buf) indexed;
      Buffer.add_int64_le buf (Int64.of_int (List.length e.grantees));
      List.iter (add_sized buf) e.grantees;
      (* rows re-encoded from the heap; tombstones drop out *)
      let rows = Table.fold e.table ~init:[] ~f:(fun acc _ row -> row :: acc) in
      let rows = List.rev rows in
      Buffer.add_int64_le buf (Int64.of_int (List.length rows));
      List.iter
        (fun row ->
          let enc = Dtype.encode_row row in
          Buffer.add_int64_le buf (Int64.of_int (Bytes.length enc));
          Buffer.add_bytes buf enc)
        rows;
      (* ANALYZE statistics ride in the image (v3 bodies only) *)
      encode_stats buf e.table;
      (* genomic index specs (column, k): the index itself is rebuilt
         when an adapter attaches a UDT registry (v3 bodies only) *)
      let genomic = Table.genomic_specs e.table in
      Buffer.add_int64_le buf (Int64.of_int (List.length genomic));
      List.iter
        (fun (col, k) ->
          add_sized buf col;
          Buffer.add_int64_le buf (Int64.of_int k))
        genomic)
    t.entries;
  Buffer.contents buf

let chunk_size = 8192

(* Wrap a v1 body in the v2 chunk-checksummed envelope. *)
let encode_v2 body =
  let nbytes = String.length body in
  let n_chunks = (nbytes + chunk_size - 1) / chunk_size in
  let buf = Buffer.create (nbytes + 32 + (16 * n_chunks)) in
  Buffer.add_string buf magic_v2;
  Buffer.add_int64_le buf (Int64.of_int n_chunks);
  Buffer.add_int64_le buf (Int64.of_int nbytes);
  for i = 0 to n_chunks - 1 do
    let pos = i * chunk_size in
    let len = min chunk_size (nbytes - pos) in
    Buffer.add_int64_le buf (Int64.of_int len);
    Buffer.add_int64_le buf
      (Int64.of_int32 (Checksum.string (String.sub body pos len)));
    Buffer.add_substring buf body pos len
  done;
  Buffer.contents buf

module R = Byte_reader

(* Unwrap a v2 envelope after its magic, verifying every chunk CRC. *)
let decode_v2 r =
  let n_chunks = R.count r in
  let payload_len = R.count r in
  let buf = Buffer.create payload_len in
  for _ = 1 to n_chunks do
    let len = R.int r in
    if len > chunk_size then R.fail "oversized chunk";
    let crc = Int64.to_int32 (R.int64 r) in
    if R.crc r len <> crc then begin
      Obs.add c_checksum_failures 1;
      R.fail "chunk checksum mismatch (torn or corrupt write)"
    end;
    Buffer.add_string buf (R.raw r len)
  done;
  if Buffer.length buf <> payload_len then R.fail "payload length mismatch";
  Buffer.contents buf

(* ---- write-ahead intent journal ---- *)

let journal_path path = path ^ ".journal"
let tmp_path path = path ^ ".tmp"

let encode_journal image =
  let buf = Buffer.create 32 in
  Buffer.add_string buf journal_magic;
  Buffer.add_int64_le buf (Int64.of_int32 (Checksum.string image));
  Buffer.add_int64_le buf (Int64.of_int (String.length image));
  Buffer.contents buf

let parse_journal s =
  R.run_string s (fun r ->
      if R.raw r (String.length journal_magic) <> journal_magic then
        R.fail "bad magic";
      let crc = Int64.to_int32 (R.int64 r) in
      let len = R.int r in
      R.expect_end r;
      (crc, len))
  |> Result.to_option

let write_file file contents =
  let oc = open_out_bin file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc contents)

let read_file_opt file =
  if Sys.file_exists file then
    Some
      (let ic = open_in_bin file in
       Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
           really_input_string ic (in_channel_length ic)))
  else None

let remove_if_exists file = if Sys.file_exists file then Sys.remove file

type recovery = No_journal | Rolled_forward | Rolled_back | Completed

let recovery_to_string = function
  | No_journal -> "no-journal"
  | Rolled_forward -> "rolled-forward"
  | Rolled_back -> "rolled-back"
  | Completed -> "completed"

let recover path =
  let journal = journal_path path and tmp = tmp_path path in
  match read_file_opt journal with
  | None ->
      (* no interrupted save; a stray tmp is leftover garbage *)
      remove_if_exists tmp;
      No_journal
  | Some jbytes ->
      let matches file (crc, len) =
        match read_file_opt file with
        | Some img -> String.length img = len && Checksum.string img = crc
        | None -> false
      in
      let outcome =
        match parse_journal jbytes with
        | Some intent when matches tmp intent ->
            (* complete new image made it to tmp: finish the save *)
            Sys.rename tmp path;
            Obs.add c_roll_forward 1;
            Rolled_forward
        | Some intent when matches path intent ->
            (* rename happened; only the journal clear was lost *)
            remove_if_exists tmp;
            Completed
        | Some _ | None ->
            (* torn/absent tmp (or unreadable journal): keep the old
               snapshot *)
            remove_if_exists tmp;
            Obs.add c_roll_back 1;
            Rolled_back
      in
      Sys.remove journal;
      Obs.add c_journal_cleared 1;
      outcome

let save t path =
  match
    let body = serialize t in
    (* statistics are serialized into the body; nothing durable yet, so a
       crash here must recover to the pre-ANALYZE image *)
    Fault.crash "storage.save.stats";
    Fault.crash "storage.save.serialize";
    let image = encode_v2 body in
    let journal = journal_path path and tmp = tmp_path path in
    write_file journal (encode_journal image);
    (* harden the journal itself: its bytes, then its directory entry
       (a freshly created file is not power-loss durable until the
       parent directory is fsynced) *)
    Fsutil.fsync_file journal;
    Fsutil.fsync_dir (Fsutil.parent journal);
    Fault.crash "storage.save.journal";
    (* the tmp image is written in two halves around a crash point, so
       fault specs can manufacture a genuinely torn file *)
    let mid = String.length image / 2 in
    let oc = open_out_bin tmp in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        output_substring oc image 0 mid;
        flush oc;
        Fault.crash "storage.save.tmp_partial";
        output_substring oc image mid (String.length image - mid));
    Fsutil.fsync_file tmp;
    Fault.crash "storage.save.tmp";
    Sys.rename tmp path;
    Fault.crash "storage.save.rename";
    (* the rename is atomic but not durable until the directory entry
       is fsynced; power loss before this point may resurrect the old
       image, which recovery rolls forward from the journal *)
    Fsutil.fsync_dir (Fsutil.parent path);
    Fault.crash "storage.save.dir_sync";
    Sys.remove journal
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

let read_stats r =
  List.init (R.count r) (fun _ ->
      let col = R.string r in
      let rows = R.int r in
      let distinct = R.int r in
      let nulls = R.int r in
      let read_opt () =
        if R.char r = '\000' then None else Some (Dtype.read_value r)
      in
      let min_value = read_opt () in
      let max_value = read_opt () in
      let histogram =
        match R.count r with
        | 0 -> None
        | nb ->
            let bounds = Array.make nb Dtype.Null in
            let counts = Array.make nb 0 in
            for i = 0 to nb - 1 do
              bounds.(i) <- Dtype.read_value r;
              counts.(i) <- R.int r
            done;
            Some { Table.bounds; counts }
      in
      (col, { Table.rows; distinct; nulls; min_value; max_value; histogram }))

let ok_or_fail = function Ok v -> v | Error msg -> R.fail msg

(* Read a v1 body (magic GENALGDB1, or GENALGDB3 with statistics). *)
let read_body r =
  let m = R.raw r (String.length magic) in
  if m <> magic && m <> magic_v3 then R.fail "bad magic";
  let with_stats = m = magic_v3 in
  let t = create () in
  for _ = 1 to R.count r do
    let space =
      match R.string r with
      | "!public" -> Public
      | s when String.length s > 5 && String.sub s 0 5 = "user:" ->
          User (String.sub s 5 (String.length s - 5))
      | _ -> R.fail "bad space tag"
    in
    let name = R.string r in
    let cols =
      List.init (R.count r) (fun _ ->
          let cname = R.string r in
          let tname = R.string r in
          let nullable = R.char r <> '\000' in
          match Dtype.of_string tname with
          | Some dtype -> { Schema.name = cname; dtype; nullable }
          | None -> R.fail ("bad column type " ^ tname))
    in
    let table = Table.create ~name (ok_or_fail (Schema.make cols)) in
    let indexed = List.init (R.count r) (fun _ -> R.string r) in
    let grantees = List.init (R.count r) (fun _ -> R.string r) in
    for _ = 1 to R.count r do
      let row = Dtype.read_row (R.sub r (R.int r)) in
      ignore (ok_or_fail (Table.insert table row))
    done;
    List.iter
      (fun column -> ok_or_fail (Table.create_index table ~column))
      indexed;
    if with_stats then begin
      Table.set_stats table (read_stats r);
      let specs =
        List.init (R.count r) (fun _ ->
            let col = R.string r in
            (col, R.int r))
      in
      if specs <> [] then Table.set_pending_genomic table specs
    end;
    t.entries <- t.entries @ [ { space; table; grantees } ]
  done;
  t

let clone t =
  {
    entries = List.map (fun e -> { e with table = Table.share e.table }) t.entries;
    catalog_version = t.catalog_version;
    udts = t.udts;
    cache = None;
  }

let load path =
  match
    let (_ : recovery) = recover path in
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | contents -> (
      let body =
        if String.starts_with ~prefix:magic_v2 contents then
          R.run_string contents (fun r ->
              ignore (R.raw r (String.length magic_v2));
              decode_v2 r)
        else Ok contents (* legacy v1 body, stored bare *)
      in
      match Result.bind body (fun body -> R.run_string body read_body) with
      | Ok _ as ok ->
          Obs.add c_clean_open 1;
          ok
      | Error msg -> Error ("Database.load: " ^ msg))
