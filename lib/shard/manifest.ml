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

exception Corrupt of string

let decode contents =
  let m = String.length magic in
  if String.length contents < m + 8 || String.sub contents 0 m <> magic then
    Error "not a genalg coordinator manifest (bad magic)"
  else begin
    let data = Bytes.of_string contents in
    let crc = Int64.to_int32 (Bytes.get_int64_le data m) in
    let body_pos = m + 8 in
    let body_len = Bytes.length data - body_pos in
    if Checksum.sub data ~pos:body_pos ~len:body_len <> crc then
      Error "manifest checksum mismatch"
    else
      let pos = ref body_pos in
      (* [n - remaining], not [pos + n], which a length near [max_int]
         wraps negative *)
      let need n =
        if n > Bytes.length data - !pos then raise (Corrupt "truncated")
      in
      let get_int () =
        need 8;
        let v = Int64.to_int (Bytes.get_int64_le data !pos) in
        pos := !pos + 8;
        if v < 0 then raise (Corrupt "negative field");
        v
      in
      let get_str () =
        let n = get_int () in
        need n;
        let s = Bytes.sub_string data !pos n in
        pos := !pos + n;
        s
      in
      let get_char () =
        need 1;
        let c = Bytes.get data !pos in
        incr pos;
        c
      in
      match
        let version = get_int () in
        if version <> 1 then
          raise (Corrupt (Printf.sprintf "unknown body version %d" version));
        let topology =
          match get_char () with
          | 'L' ->
              let shards = get_int () in
              let replicas = get_char () <> '\000' in
              Local { shards; replicas }
          | 'R' ->
              let actor = get_str () in
              let sockets = List.init (get_int ()) (fun _ -> get_str ()) in
              let replicas = List.init (get_int ()) (fun _ -> get_str ()) in
              Remote { actor; sockets; replicas }
          | c -> raise (Corrupt (Printf.sprintf "unknown topology tag %C" c))
        in
        let pcols =
          List.init (get_int ()) (fun _ ->
              let table = get_str () in
              let col = get_str () in
              (table, col))
        in
        let next_seq = get_int () in
        let log_base = get_int () in
        let shards =
          List.init (get_int ()) (fun _ ->
              let epoch = get_int () in
              let primary_applied = get_int () in
              let replica_applied =
                match get_int () with 0 -> None | n -> Some (n - 1)
              in
              { epoch; primary_applied; replica_applied })
        in
        { topology; pcols; next_seq; log_base; shards }
      with
      | t -> Ok t
      | exception Corrupt msg -> Error ("corrupt manifest: " ^ msg)
  end

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
