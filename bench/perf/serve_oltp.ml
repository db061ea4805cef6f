(* serve-oltp: two closed-loop sessions over the Unix socket to a genalg
   server in a separate process, in the 70/20/10 mix of SELECT /
   autocommit INSERT / BEGIN-INSERT-COMMIT. The warehouse is one
   ETL-bootstrapped source that fits the buffer pool; reads are
   Zipf-skewed over a fixed pool of statements, so the result cache
   warms, and each session writes its own notes table. This is the path
   through the wire codec, the event loop, copy-on-BEGIN and the
   group-commit WAL. *)

open Harness
module Db = Genalg_storage.Database
module D = Genalg_storage.Dtype
module Exec = Genalg_sqlx.Exec
module Server = Genalg_serve.Server
module Client = Genalg_serve.Client
module P = Genalg_serve.Protocol
module Pipeline = Genalg_etl.Pipeline
module Source = Genalg_etl.Source
module Par = Genalg_par.Par

let sessions = 2

(* Each session empties its notes table after this many acknowledged
   inserts, so the database every BEGIN clones keeps its size through
   the window. Left to grow, the notes rows tripled the database's row
   count in 15 s and throughput fell by a third within the window. *)
let notes_cap = 200

(* {1 The server process}

   [main.exe --serve-child DB SOCKET STATS [--traced]]: serve until a
   client's SHUTDOWN, or until the workload process that started it has
   gone; then write the registry delta and peak RSS to STATS. *)

let server_main ~db_path ~socket ~stats ~traced =
  Par.set_jobs engine_jobs;
  let config = { (Server.default_config ~socket_path:socket) with Server.attach; metrics = traced } in
  let server = ok_or_fail (Server.create config ~db_path) in
  let parent = Unix.getppid () in
  let finished = Atomic.make false and orphaned = Atomic.make false in
  let watchdog =
    Domain.spawn (fun () ->
        while not (Atomic.get finished) do
          Unix.sleepf 0.2;
          if Unix.getppid () <> parent then begin
            Atomic.set orphaned true;
            Server.stop server
          end
        done)
  in
  let before = Layers.snap () in
  let served = Server.serve server in
  let d = Layers.since before in
  Atomic.set finished true;
  Domain.join watchdog;
  Par.shutdown ();
  (* an orphaned server's workload is gone, its scratch directory too:
     nothing is left to report to *)
  if not (Atomic.get orphaned) then begin
    ok_or_fail served;
    Out_channel.with_open_bin stats (fun oc ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [ ("delta", Layers.delta_json d);
                  ("vm_hwm_kb", Json.Num (float_of_int (vm_hwm_kb ()))) ])))
  end

(* {1 Inputs} *)

let read_pool rng (repo : Genalg_formats.Entry.t array) =
  let acc () = repo.(Rng.int rng (Array.length repo)).Genalg_formats.Entry.accession in
  Array.init 500 (fun i ->
      match i mod 4 with
      | 0 -> Printf.sprintf "SELECT accession, length, gc FROM sequences WHERE accession = '%s'" (acc ())
      | 1 ->
          Printf.sprintf
            "SELECT accession, organism FROM sequences WHERE length > %d ORDER BY accession LIMIT 20"
            (800 + Rng.int rng 400)
      | 2 ->
          Printf.sprintf
            "SELECT organism, count(*) FROM sequences WHERE gc >= %.3f GROUP BY organism ORDER BY \
             organism"
            (0.40 +. (Rng.float rng *. 0.2))
      | _ -> Printf.sprintf "SELECT count(*) FROM genes WHERE exon_count >= %d" (1 + Rng.int rng 8))

(* {1 One session} *)

type session_out = {
  read_lat : latencies;
  write_lat : latencies;
  txn_lat : latencies;
  fails : failures;
  acked : int;
  checked : (string * P.reply) list;  (** every 50th pool read *)
  probed : string list;                (** every 10th pool read *)
  probes : Layers.probes;
  tr : tracer;
  end_s : float;
}

let session ~cfg ~socket ~pool ~zipf ~t0 i () =
  let rng = Rng.make ((cfg.seed * 31) + i) in
  let out =
    { read_lat = latencies (); write_lat = latencies (); txn_lat = latencies (); fails = failures ();
      acked = 0; checked = []; probed = []; probes = Layers.probes (); tr = tracer (); end_s = 0. }
  in
  let c = ok_or_fail (Client.connect ~actor:(Printf.sprintf "u%d" i) ~socket ()) in
  let notes = Printf.sprintf "notes_%d" i in
  (* [live]: inserts acknowledged since the table was last emptied *)
  let acked = ref 0 and live = ref 0 and checked = ref [] and probed = ref [] and reads = ref 0 in
  let ack () = incr acked; incr live in
  let expect what ok r =
    match r with
    | Ok reply when ok reply -> true
    | Ok (P.Error_reply { code; message }) ->
        fail out.fails (Printf.sprintf "%s: [%s] %s" what (P.error_code_to_string code) message);
        false
    | Ok _ -> fail out.fails (what ^ ": unexpected reply"); false
    | Error msg -> fail out.fails (what ^ ": " ^ msg); false
  in
  let rows = function P.Rows _ -> true | _ -> false in
  let one_row = function P.Affected 1 -> true | _ -> false in
  ignore (expect "create" (function P.Ok_reply _ -> true | _ -> false)
            (Client.query c (Printf.sprintf "CREATE TABLE %s (k int, tag string)" notes)));
  let codec r = if cfg.traced then Result.iter (Layers.probe_codec out.probes) r in
  let done_ l start =
    let t = now () in
    record l ~at:(t -. t0) (t -. start)
  in
  let j = ref 0 and kind = schedule rng [ (`Read, 7); (`Write, 2); (`Txn, 1) ] in
  while now () -. t0 < cfg.seconds do
    let start = now () in
    let cls =
      match kind () with
      | `Read ->
          incr reads;
          if !reads mod 8 = 0 then begin
            (* a read of the session's own table, checked against the
               inserts it has had acknowledged *)
            let r = Client.query c ("SELECT count(*) FROM " ^ notes) in
            done_ out.read_lat start;
            codec r;
            ignore
              (expect "notes count"
                 (function P.Rows { rows = [ [| D.Int n |] ]; _ } -> n = !live | _ -> false)
                 r)
          end
          else begin
            let sql = pool.(zipf rng) in
            let r = Client.query c sql in
            done_ out.read_lat start;
            codec r;
            if expect sql rows r then begin
              if !reads mod 50 = 1 then checked := (sql, Result.get_ok r) :: !checked;
              if !reads mod 10 = 1 then probed := sql :: !probed
            end
          end;
          "op.read"
      | `Write ->
          let r = Client.query c (Printf.sprintf "INSERT INTO %s VALUES (%d, 'auto')" notes !j) in
          done_ out.write_lat start;
          codec r;
          if expect "insert" one_row r then ack ();
          "op.write"
      | `Txn ->
          let ok =
            (match Client.begin_ c with Ok () -> true | Error m -> fail out.fails ("begin: " ^ m); false)
            && expect "txn insert" one_row
                 (Client.query c (Printf.sprintf "INSERT INTO %s VALUES (%d, 'txn')" notes !j))
            && match Client.commit c with Ok () -> true | Error m -> fail out.fails ("commit: " ^ m); false
          in
          done_ out.txn_lat start;
          if ok then ack ();
          "op.txn"
    in
    if cfg.traced then
      record_op out.tr ~trace:((!j * sessions) + i) ~name:cls ~start_s:start ~dur_s:(now () -. start);
    if !live >= notes_cap then begin
      ignore
        (expect "notes purge"
           (function P.Affected n -> n = !live | _ -> false)
           (Client.query c ("DELETE FROM " ^ notes)));
      live := 0
    end;
    incr j
  done;
  let end_s = now () in
  (* after the window: the table holds exactly the acknowledged inserts *)
  ignore
    (expect "final notes count"
       (function P.Rows { rows = [ [| D.Int n |] ]; _ } -> n = !live | _ -> false)
       (Client.query c ("SELECT count(*) FROM " ^ notes)));
  Client.close c;
  { out with acked = !acked; checked = !checked; probed = !probed; end_s }

(* {1 The workload} *)

let sorted_rows = function
  | P.Rows { columns; rows } -> Some (columns, List.sort compare rows)
  | _ -> None

let run cfg =
  let rng = Rng.make cfg.seed in
  let repo = Genalg_synth.Recordgen.repository rng ~size:(scaled cfg 1_000) ~prefix:"SV" () in
  let pool = read_pool rng (Array.of_list repo) in
  Rng.shuffle rng pool;
  let zipf = zipf (Array.length pool) in
  let db_path = Filename.concat cfg.work "serve.db" in
  let socket = Filename.concat cfg.work "s.sock" in
  let stats = Filename.concat cfg.work "server.json" in
  if String.length socket > 100 then failwith ("socket path too long, use a shorter --out: " ^ socket);
  let server = ref None in
  let stop_server () =
    Option.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      !server;
    server := None
  in
  Fun.protect ~finally:stop_server @@ fun () ->
  let start_server () =
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ db_path; Genalg_storage.Wal.wal_path db_path; socket ];
    let pl =
      ok_or_fail
        (Pipeline.create ~sources:[ Source.create ~name:"genbank" Source.Queryable Source.Relational repo ] ())
    in
    ignore (ok_or_fail (Pipeline.bootstrap pl));
    ok_or_fail (Db.save (Pipeline.database pl) db_path);
    let args =
      [ Sys.executable_name; "--serve-child"; db_path; socket; stats ] @ if cfg.traced then [ "--traced" ] else []
    in
    server := Some (Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stderr Unix.stderr);
    let rec ready n =
      match Client.connect ~actor:"probe" ~socket () with
      | Ok c -> Client.close c
      | Error msg ->
          if n = 0 then failwith ("server did not come up: " ^ msg);
          Unix.sleepf 0.002;
          ready (n - 1)
    in
    ready 10_000
  in
  let shutdown () =
    let c = ok_or_fail (Client.connect ~actor:"probe" ~socket ()) in
    ignore (Client.shutdown c ~dirty:true);
    Client.close c;
    Option.iter (fun pid -> ignore (Unix.waitpid [] pid)) !server;
    server := None
  in
  let setup0 = Layers.snap () in
  let (), setup = repeat_setup ~discard:shutdown start_server in
  let setup_d = Layers.since setup0 in
  (* the in-process copy the sampled reads are checked against *)
  let copy = ok_or_fail (Db.load db_path) in
  attach copy;
  let t0 = now () in
  let outs =
    List.map Domain.join
      (List.init sessions (fun i -> Domain.spawn (session ~cfg ~socket ~pool ~zipf ~t0 i)))
  in
  let window_s = List.fold_left (fun acc o -> Float.max acc (o.end_s -. t0)) 0. outs in
  shutdown ();
  let server_stats = ok_or_fail (Json.read_file stats) in
  let failures = failures () in
  List.iter (fun o -> failures.count <- failures.count + o.fails.count; failures.first <- failures.first @ o.fails.first) outs;
  List.iter
    (fun o ->
      List.iter
        (fun (sql, reply) ->
          let expected =
            match Exec.query copy ~actor:"u0" sql with
            | Ok (Exec.Rows rs) -> sorted_rows (P.Rows { columns = rs.Exec.columns; rows = rs.Exec.rows })
            | _ -> None
          in
          check failures (expected <> None && expected = sorted_rows reply)
            (lazy (sql ^ ": reply differs from the in-process copy")))
        o.checked)
    outs;
  let lat f = merge (List.map f outs) in
  let reads = lat (fun o -> o.read_lat) and writes = lat (fun o -> o.write_lat)
  and txns = lat (fun o -> o.txn_lat) in
  let ops = count_of [ reads; writes; txns ] in
  let rss_kb =
    match Option.bind (Json.member "vm_hwm_kb" server_stats) Json.to_float with
    | Some kb -> int_of_float kb
    | None -> 0
  in
  let metrics =
    common_metrics ~setup ~ops:[ reads; writes; txns ] ~window_s ~rss_kb ~failed:failures.count
    @ latency_metrics "read" [ 95.; 99. ] reads
    @ latency_metrics "write" [ 99. ] writes
    @ latency_metrics "txn" [ 99. ] txns
  in
  let layers =
    if not cfg.traced then []
    else begin
      let d = Layers.delta_of_json (Option.value (Json.member "delta" server_stats) ~default:Json.Null) in
      let probes = Layers.probes () in
      List.iter
        (fun o ->
          Hashtbl.iter (fun k s -> Array.iter (Layers.note probes k) (to_array s)) o.probes;
          List.iter (fun sql -> ignore (Layers.probe_select probes copy sql)) o.probed)
        outs;
      Layers.probe_storage probes cfg copy
        (List.init 4 (fun k -> Printf.sprintf "INSERT INTO notes_0 VALUES (%d, 'auto')" k));
      let spans = List.concat_map (fun o -> assemble o.tr) outs in
      write_trace (Filename.concat cfg.out "serve-oltp.trace.jsonl") spans;
      Out_channel.with_open_bin (Filename.concat cfg.out "serve-oltp.server.json") (fun oc ->
          output_string oc (Json.to_string server_stats ^ "\n"));
      let server_s = Layers.sum d "serve.query" and server_ms = Layers.hist_mean d "serve.query" *. ms in
      let query_lat = Array.append (values reads) (values writes) in
      let op_wall_s = Array.fold_left ( +. ) 0. (values (merge [ reads; writes; txns ])) in
      let codec_s = Array.fold_left ( +. ) 0. (Array.append (Layers.probe_values probes "serve.encode") (Layers.probe_values probes "serve.decode")) in
      let i =
        { Layers.d; p = probes; ops; reads = count_of [ reads ];
          writes = List.fold_left (fun a o -> a + o.acked) 0 outs; window_s; op_wall_s;
          layer_self_s = server_s +. codec_s }
      in
      Layers.common i @ Layers.specific i
      @ [ ("serve.server_ms", m ~n:(Layers.count d "serve.query") "ms" server_ms);
          ("serve.wait_ms", m ~n:(Array.length query_lat) "ms" ((Stats.mean query_lat *. ms) -. server_ms)) ]
      @ Layers.bootstrap_phases setup_d
    end
  in
  { correct = failures.count = 0; attempted = ops; failed = failures.count;
    first_failures = failures.first; metrics; layers }
