module Fault = Genalg_fault.Fault
module Checksum = Genalg_storage.Checksum
module Fsutil = Genalg_storage.Fsutil

let magic = "GENALGMF1"

let crash_points = [ "shard.manifest.tmp"; "shard.manifest.rename" ]
let () = List.iter Fault.register_crash_point crash_points

type topology =
  | Local of { shards : int; replicas : bool }
  | Remote of { actor : string; sockets : string list; replicas : string list }

type shard_entry = {
  epoch : int;
  primary_applied : int;
  replica_applied : int option;
}

type t = {
  topology : topology;
  pcols : (string * string) list;
  next_seq : int;
  log_base : int;
  shards : shard_entry list;
}

let path dir = Filename.concat dir "MANIFEST"

(* ---- encoding: the storage layer's sized-string idiom, CRC-framed ---- *)

let add_int buf n = Buffer.add_int64_le buf (Int64.of_int n)

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let encode_body t =
  let b = Buffer.create 256 in
  add_int b 1 (* body version *);
  (match t.topology with
  | Local { shards; replicas } ->
      Buffer.add_char b 'L';
      add_int b shards;
      Buffer.add_char b (if replicas then '\001' else '\000')
  | Remote { actor; sockets; replicas } ->
      Buffer.add_char b 'R';
      add_str b actor;
      add_int b (List.length sockets);
      List.iter (add_str b) sockets;
      add_int b (List.length replicas);
      List.iter (add_str b) replicas);
  add_int b (List.length t.pcols);
  List.iter
    (fun (table, col) ->
      add_str b table;
      add_str b col)
    t.pcols;
  add_int b t.next_seq;
  add_int b t.log_base;
  add_int b (List.length t.shards);
  List.iter
    (fun e ->
      add_int b e.epoch;
      add_int b e.primary_applied;
      (* 0 = no replica, n+1 = Some n (applied LSNs are >= 0) *)
      add_int b
        (match e.replica_applied with None -> 0 | Some v -> v + 1))
    t.shards;
  Buffer.contents b

let encode t =
  let body = encode_body t in
  let b = Buffer.create (String.length body + 24) in
  Buffer.add_string b magic;
  Buffer.add_int64_le b (Int64.of_int32 (Checksum.string body));
  Buffer.add_string b body;
  Buffer.contents b

module R = Genalg_storage.Byte_reader

let decode contents =
  let m = String.length magic in
  if String.length contents < m + 8 || not (String.starts_with ~prefix:magic contents)
  then Error "not a genalg coordinator manifest (bad magic)"
  else
    R.run_string contents (fun r ->
        ignore (R.raw r m);
        let crc = Int64.to_int32 (R.int64 r) in
        if R.crc r (R.remaining r) <> crc then R.fail "checksum mismatch";
        let version = R.int r in
        if version <> 1 then R.fail (Printf.sprintf "unknown body version %d" version);
        let topology =
          match R.char r with
          | 'L' ->
              let shards = R.int r in
              let replicas = R.char r <> '\000' in
              Local { shards; replicas }
          | 'R' ->
              let actor = R.string r in
              let sockets = List.init (R.count r) (fun _ -> R.string r) in
              let replicas = List.init (R.count r) (fun _ -> R.string r) in
              Remote { actor; sockets; replicas }
          | c -> R.fail (Printf.sprintf "unknown topology tag %C" c)
        in
        let pcols =
          List.init (R.count r) (fun _ ->
              let table = R.string r in
              (table, R.string r))
        in
        let next_seq = R.int r in
        let log_base = R.int r in
        let shards =
          List.init (R.count r) (fun _ ->
              let epoch = R.int r in
              let primary_applied = R.int r in
              let replica_applied =
                match R.int r with 0 -> None | n -> Some (n - 1)
              in
              { epoch; primary_applied; replica_applied })
        in
        { topology; pcols; next_seq; log_base; shards })
    |> Result.map_error (fun msg -> "corrupt manifest: " ^ msg)

(* ---- crash-safe persistence: complete tmp image, fsync, atomic
   rename, directory fsync. Unlike [Database.save] there is no intent
   journal: the manifest is advisory over the logs (recovery re-derives
   sequence numbers and applied LSNs from them), so rolling back to the
   previous manifest after a crash is always safe, and the CRC framing
   rejects anything torn. *)

let save t ~dir =
  match
    let file = path dir in
    let tmp = file ^ ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (encode t));
    Fsutil.fsync_file tmp;
    Fault.crash "shard.manifest.tmp";
    Sys.rename tmp file;
    Fault.crash "shard.manifest.rename";
    Fsutil.fsync_dir dir
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

let load ~dir =
  let file = path dir in
  let tmp = file ^ ".tmp" in
  (* a stray tmp is an interrupted save that never renamed *)
  if Sys.file_exists tmp then (try Sys.remove tmp with Sys_error _ -> ());
  if not (Sys.file_exists file) then Ok None
  else
    match
      let ic = open_in_bin file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error msg -> Error msg
    | contents -> (
        match decode contents with
        | Ok t -> Ok (Some t)
        | Error _ as e -> e)
