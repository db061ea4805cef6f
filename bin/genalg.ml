(* The genalg command-line tool: the Genomics Algebra and Unifying
   Database from a shell.

     genalg ops                         list the algebra's operators
     genalg demo -o wh.db               build a demo warehouse
     genalg query wh.db "SELECT ..."    extended SQL against a warehouse
     genalg ask wh.db "find sequences where ..."   biological language
     genalg orfs seqs.fasta             ORF finding over FASTA input
     genalg translate seqs.fasta        six-frame translation
     genalg align A.fasta B.fasta       pairwise alignment
     genalg xml seqs.fasta              FASTA -> GenAlgXML
     genalg serve wh.db                 serve the warehouse over a socket
     genalg connect --socket S          wire-protocol client/REPL *)

open Cmdliner
module Seq = Genalg_gdt.Sequence
module Ops = Genalg_core.Ops
module Db = Genalg_storage.Database
module Exec = Genalg_sqlx.Exec
module Obs = Genalg_obs.Obs
module Par = Genalg_par.Par
module Fault = Genalg_fault.Fault
module Resilience = Genalg_resilience.Resilience
module Cluster = Genalg_shard.Cluster

(* deterministic fault injection (docs/ROBUSTNESS.md); the same spec can
   also arrive via GENALG_FAULTS *)
let fault_flag =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "fault-spec" ] ~docv:"SPEC"
        ~doc:
          "Activate deterministic fault injection, e.g. \
           $(b,seed=7;source.*:error:p=0.3). Clauses are \
           semicolon-separated: $(b,seed=INT) or \
           $(b,site:kind:param...) with kinds error, latency, truncate, \
           corrupt, crash and params p=, after=, times=, s=, frac=, \
           msg=. Overrides $(b,GENALG_FAULTS).")

let apply_faults = function
  | None -> ()
  | Some spec -> (
      match Fault.configure spec with
      | Ok () -> ()
      | Error msg ->
          Printf.eprintf "error: bad fault spec: %s\n" msg;
          exit 2)

let print_fault_tallies () =
  match Fault.tallies () with
  | [] -> ()
  | tallies ->
      print_newline ();
      Printf.printf "%-24s %8s %9s %7s %9s %10s %9s %8s\n" "fault site"
        "checks" "injected" "errors" "latencies" "truncated" "corrupted"
        "crashes";
      List.iter
        (fun (site, (y : Fault.tally)) ->
          Printf.printf "%-24s %8d %9d %7d %9d %10d %9d %8d\n" site y.Fault.checks
            y.Fault.injected y.Fault.errors y.Fault.latencies y.Fault.truncations
            y.Fault.corruptions y.Fault.crashes)
        tallies

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_fasta path =
  match Genalg_formats.Fasta.parse (read_file path) with
  | Ok records -> records
  | Error msg ->
      Printf.eprintf "error: %s: %s\n" path msg;
      exit 1

let attach db = Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default

(* ---- ops ------------------------------------------------------------- *)

let ops_cmd =
  let run () =
    let sg = Genalg_core.Builtin.create () in
    List.iter
      (fun op ->
        Printf.printf "%-60s %s\n"
          (Genalg_core.Signature.rank_to_string op)
          op.Genalg_core.Signature.doc)
      (Genalg_core.Signature.operators sg);
    Printf.printf "\n%d operators over %d base sorts\n"
      (Genalg_core.Signature.cardinal sg)
      (List.length Genalg_core.Sort.all_base)
  in
  Cmd.v
    (Cmd.info "ops" ~doc:"List every operator of the Genomics Algebra signature")
    Term.(const run $ const ())

(* ---- demo -------------------------------------------------------------- *)

let demo_cmd =
  let run output size seed fault =
    apply_faults fault;
    let rng = Genalg_synth.Rng.make seed in
    let repo_a, repo_b, _ =
      Genalg_synth.Recordgen.overlapping_repositories rng ~size ~overlap:0.4
        ~noise_fraction:0.45 ()
    in
    let open Genalg_etl in
    let src_a = Source.create ~name:"synthbank" Source.Logged Source.Flat_file repo_a in
    let src_b = Source.create ~name:"relbank" Source.Queryable Source.Relational repo_b in
    match Pipeline.create ~sources:[ src_a; src_b ] () with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    | Ok pl -> (
        match Pipeline.bootstrap pl with
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            exit 1
        | Ok stats -> (
            Printf.printf "loaded %d records, %d genes, %d conflicts\n"
              stats.Loader.entries stats.Loader.genes stats.Loader.conflicts;
            match Db.save (Pipeline.database pl) output with
            | Ok () -> Printf.printf "warehouse written to %s\n" output
            | Error msg ->
                Printf.eprintf "error: %s\n" msg;
                exit 1))
  in
  let output =
    Arg.(value & opt string "warehouse.db" & info [ "o"; "output" ] ~doc:"Output file")
  in
  let size =
    Arg.(value & opt int 50 & info [ "n"; "size" ] ~doc:"Records per repository")
  in
  let seed = Arg.(value & opt int 2003 & info [ "seed" ] ~doc:"Random seed") in
  Cmd.v
    (Cmd.info "demo"
       ~doc:"Build a demo warehouse from two synthetic repositories and save it")
    Term.(const run $ output $ size $ seed $ fault_flag)

(* ---- query / ask ----------------------------------------------------------- *)

let with_db path f =
  match Db.load path with
  | Error msg ->
      Printf.eprintf "error: cannot load %s: %s\n" path msg;
      exit 1
  | Ok db ->
      attach db;
      f db

let print_outcome db = function
  | Exec.Rows rs -> print_endline (Exec.render db rs)
  | Exec.Affected n -> Printf.printf "(%d rows affected)\n" n
  | Exec.Executed -> print_endline "ok"

(* shared --trace/--stats handling: both enable the metrics layer; trace
   streams completed spans to stderr as JSON lines, stats prints the
   instrument table to stderr afterwards *)
let with_obs ~trace ~stats f =
  if trace || stats then Obs.set_enabled true;
  if trace then
    Obs.add_sink
      (Obs.json_sink ~name:"stderr" (fun line -> Printf.eprintf "%s\n%!" line));
  let result = f () in
  if stats then Printf.eprintf "%s\n" (Obs.render_table ());
  result

let trace_flag =
  Cmdliner.Arg.(
    value & flag
    & info [ "trace" ] ~doc:"Stream completed spans to stderr as JSON lines")

(* degree of parallelism for the whole process (scans, joins, kernels);
   the default comes from GENALG_JOBS or the core count *)
let jobs_flag =
  Cmdliner.Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Degree of parallelism: N-1 worker domains plus the main one. \
           Defaults to $(b,GENALG_JOBS) when set, else the recommended \
           domain count. $(b,--jobs 1) forces sequential execution.")

let apply_jobs = function None -> () | Some n -> Par.set_jobs n

let stats_flag =
  Cmdliner.Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print the metrics table to stderr when done")

let query_cmd =
  let run path actor trace stats jobs fault sql =
    apply_jobs jobs;
    apply_faults fault;
    with_db path (fun db ->
        with_obs ~trace ~stats (fun () ->
            match Exec.query db ~actor sql with
            | Ok outcome ->
                print_outcome db outcome;
                (* persist mutations (INSERT/DELETE/DDL/ANALYZE) so a
                   one-shot write survives into the next invocation;
                   read-only statements leave the image untouched *)
                (match outcome with
                | Exec.Rows _ -> ()
                | Exec.Affected _ | Exec.Executed -> (
                    match Db.save db path with
                    | Ok () -> ()
                    | Error msg ->
                        Printf.eprintf "error: could not save %s: %s\n" path msg;
                        exit 1))
            | Error msg ->
                Printf.eprintf "error: %s\n" msg;
                exit 1))
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"DB") in
  let sql = Arg.(required & pos 1 (some string) None & info [] ~docv:"SQL") in
  let actor =
    Arg.(value & opt string "biologist" & info [ "actor" ] ~doc:"Acting user")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Run an extended-SQL statement against a saved warehouse")
    Term.(
      const run $ path $ actor $ trace_flag $ stats_flag $ jobs_flag
      $ fault_flag $ sql)

let ask_cmd =
  let run path actor question show_sql trace stats jobs =
    apply_jobs jobs;
    with_db path (fun db ->
        with_obs ~trace ~stats (fun () ->
            (if show_sql then
               match Genalg_biolang.Biolang.compile_to_sql question with
               | Ok sql -> Printf.printf "-- %s\n" sql
               | Error _ -> ());
            match Genalg_biolang.Biolang.run_rendered db ~actor question with
            | Ok text -> print_endline text
            | Error msg ->
                Printf.eprintf "error: %s\n" msg;
                exit 1))
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"DB") in
  let q = Arg.(required & pos 1 (some string) None & info [] ~docv:"QUESTION") in
  let actor =
    Arg.(value & opt string "biologist" & info [ "actor" ] ~doc:"Acting user")
  in
  let show_sql =
    Arg.(value & flag & info [ "show-sql" ] ~doc:"Print the generated SQL")
  in
  Cmd.v
    (Cmd.info "ask"
       ~doc:"Ask a question in the biological query language against a warehouse")
    Term.(
      const run $ path $ actor $ q $ show_sql $ trace_flag $ stats_flag
      $ jobs_flag)

(* ---- stats ------------------------------------------------------------- *)

let stats_cmd =
  let run path socket actor jobs fault sql =
    apply_jobs jobs;
    apply_faults fault;
    (* against a running server: fetch serve.* counters over the wire
       (the server's stats page), optionally tracing one statement *)
    match socket with
    | Some sock -> (
        let module Client = Genalg_serve.Client in
        let module Proto = Genalg_serve.Protocol in
        match Client.connect ~actor ~socket:sock () with
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            exit 1
        | Ok c ->
            (match sql with
            | None -> ()
            | Some sql -> (
                match Client.query c sql with
                | Ok (Proto.Rows { columns; rows }) ->
                    print_endline (Client.render_rows ~columns rows);
                    print_newline ()
                | Ok (Proto.Affected n) -> Printf.printf "(%d rows affected)\n" n
                | Ok (Proto.Error_reply { code; message }) ->
                    Printf.eprintf "error [%s]: %s\n"
                      (Proto.error_code_to_string code) message
                | Ok _ -> ()
                | Error msg ->
                    Printf.eprintf "error: %s\n" msg;
                    exit 1));
            (match Client.stats c with
            | Ok text -> print_endline text
            | Error msg ->
                Printf.eprintf "error: %s\n" msg;
                exit 1);
            Client.close c)
    | None ->
    let path =
      match path with
      | Some p -> p
      | None ->
          Printf.eprintf "error: a DB path (or --socket) is required\n";
          exit 2
    in
    with_db path (fun db ->
        Printf.printf "%-8s %-12s %8s %-24s %s\n" "space" "table" "rows"
          "indexed" "genomic";
        List.iter
          (fun (space, t) ->
            let module Table = Genalg_storage.Table in
            let module Schema = Genalg_storage.Schema in
            let genomic_cols =
              List.filter
                (fun (c : Schema.column) ->
                  Table.has_genomic_index t ~column:c.Schema.name)
                (Schema.columns (Table.schema t))
              |> List.map (fun (c : Schema.column) -> c.Schema.name)
            in
            Printf.printf "%-8s %-12s %8d %-24s %s\n"
              (match space with Db.Public -> "public" | Db.User u -> u)
              (Table.name t) (Table.row_count t)
              (String.concat "," (Table.indexed_columns t))
              (String.concat "," genomic_cols))
          (Db.tables db);
        (* ANALYZE statistics catalog: what the cost-based planner sees *)
        let analyzed =
          List.filter
            (fun (_, t) -> Genalg_storage.Table.has_stats t)
            (Db.tables db)
        in
        if analyzed <> [] then begin
          let module Table = Genalg_storage.Table in
          let module Dtype = Genalg_storage.Dtype in
          print_newline ();
          Printf.printf "%-12s %-12s %8s %8s %6s %8s %-12s %-12s\n" "table"
            "column" "rows" "ndv" "nulls" "buckets" "min" "max";
          List.iter
            (fun (_, t) ->
              List.iter
                (fun (col, (s : Table.column_stats)) ->
                  let disp = function
                    | None -> "-"
                    | Some v -> Dtype.value_to_display v
                  in
                  Printf.printf "%-12s %-12s %8d %8d %6d %8d %-12s %-12s\n"
                    (Table.name t) col s.Table.rows s.Table.distinct
                    s.Table.nulls
                    (match s.Table.histogram with
                    | Some h -> Array.length h.Table.bounds
                    | None -> 0)
                    (disp s.Table.min_value) (disp s.Table.max_value))
                (Table.stats_snapshot t))
            analyzed
        end;
        (match sql with
        | None -> ()
        | Some sql -> (
            Obs.set_enabled true;
            Obs.reset ();
            print_newline ();
            match Exec.query db ~actor sql with
            | Ok outcome ->
                print_outcome db outcome;
                print_newline ();
                print_endline (Obs.render_table ())
            | Error msg ->
                Printf.eprintf "error: %s\n" msg;
                exit 1));
        (* cache activity so far in this process (always-on tallies, so
           this works without --sql / the metrics layer) *)
        let module Lru = Genalg_cache.Lru in
        print_newline ();
        Printf.printf "%-12s %8s %8s %9s %9s %13s\n" "cache" "hits" "misses"
          "hit rate" "evictions" "invalidations";
        List.iter
          (fun (name, (s : Lru.stats)) ->
            let total = s.Lru.hits + s.Lru.misses in
            Printf.printf "%-12s %8d %8d %9s %9d %13d\n" name s.Lru.hits
              s.Lru.misses
              (if total = 0 then "-"
               else
                 Printf.sprintf "%.0f%%"
                   (100. *. float_of_int s.Lru.hits /. float_of_int total))
              s.Lru.evictions s.Lru.invalidations)
          (Lru.registry_stats ());
        (* fault-injection activity (always-on tallies, like the cache
           table); silent unless a spec fired *)
        print_fault_tallies ())
  in
  let path = Arg.(value & pos 0 (some file) None & info [] ~docv:"DB") in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Report a running server's counters over the wire instead of \
             opening a database file")
  in
  let actor =
    Arg.(value & opt string "biologist" & info [ "actor" ] ~doc:"Acting user")
  in
  let sql =
    Arg.(
      value
      & opt (some string) None
      & info [ "sql" ] ~docv:"SQL"
          ~doc:"Also run this statement and print the metrics it generates")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Show warehouse table inventory (rows, indexes), optionally \
          with the metrics of a traced statement; with --socket, report a \
          running server's serve.* counters over the wire")
    Term.(const run $ path $ socket $ actor $ jobs_flag $ fault_flag $ sql)

(* ---- repl -------------------------------------------------------------------- *)

let repl_cmd =
  let run path actor jobs =
    apply_jobs jobs;
    with_db path (fun db ->
        Printf.printf
          "genalg interactive shell — extended SQL or biological language.\n\
           Commands: \\tables  \\ops  \\vocab  \\quit\n\
           Anything starting with SELECT/INSERT/CREATE/DELETE runs as SQL;\n\
           everything else is tried as a biological query.\n\n";
        let rec loop () =
          Printf.printf "%s> %!" actor;
          match In_channel.input_line stdin with
          | None -> print_newline ()
          | Some line -> (
              let line = String.trim line in
              match String.lowercase_ascii line with
              | "" -> loop ()
              | "\\quit" | "\\q" | "exit" | "quit" -> ()
              | "\\tables" ->
                  List.iter
                    (fun (space, t) ->
                      Printf.printf "  %-12s %s %s (%d rows)\n"
                        (match space with
                        | Db.Public -> "public"
                        | Db.User u -> u)
                        (Genalg_storage.Table.name t)
                        (Genalg_storage.Schema.to_string (Genalg_storage.Table.schema t))
                        (Genalg_storage.Table.row_count t))
                    (Db.tables db);
                  loop ()
              | "\\ops" ->
                  List.iter
                    (fun op ->
                      Printf.printf "  %s\n" (Genalg_core.Signature.rank_to_string op))
                    (Genalg_core.Signature.operators Genalg_core.Builtin.default);
                  loop ()
              | "\\vocab" ->
                  List.iter
                    (fun (phrase, col) -> Printf.printf "  %-20s -> %s\n" phrase col)
                    (Genalg_biolang.Biolang.vocabulary ());
                  loop ()
              | lower ->
                  let is_sql =
                    List.exists
                      (fun kw ->
                        String.length lower >= String.length kw
                        && String.sub lower 0 (String.length kw) = kw)
                      [ "select"; "insert"; "create"; "delete"; "analyze"; "drop" ]
                  in
                  (if is_sql then
                     match Exec.query db ~actor line with
                     | Ok outcome -> print_outcome db outcome
                     | Error msg -> Printf.printf "error: %s\n" msg
                   else
                     match Genalg_biolang.Biolang.run_rendered db ~actor line with
                     | Ok text -> print_endline text
                     | Error msg -> Printf.printf "error: %s\n" msg);
                  loop ())
        in
        loop ())
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"DB") in
  let actor =
    Arg.(value & opt string "biologist" & info [ "actor" ] ~doc:"Acting user")
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive SQL/biolang shell over a saved warehouse")
    Term.(const run $ path $ actor $ jobs_flag)

(* ---- serve / connect --------------------------------------------------------- *)

module Server = Genalg_serve.Server
module Client = Genalg_serve.Client
module Proto = Genalg_serve.Protocol

let socket_flag ~doc =
  Cmdliner.Arg.(
    value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let run path socket max_sessions max_rows max_query_s shard_id shard_count
      jobs fault =
    apply_jobs jobs;
    apply_faults fault;
    let socket_path = Option.value socket ~default:(path ^ ".sock") in
    let topology =
      match Server.shard_topology ~shard_id ~shard_count with
      | Ok t -> t
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 2
    in
    let config =
      {
        (Server.default_config ~socket_path) with
        Server.max_sessions;
        max_rows;
        max_query_s;
        attach = (fun db -> attach db);
        topology;
      }
    in
    match Server.create config ~db_path:path with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    | Ok server ->
        Printf.printf
          "genalg server: %s\n\
           socket: %s\n\
           wal: %s (%d statements replayed)\n\
           limits: %d sessions, %d rows/query, %.1fs/query\n\
           connect with: genalg connect --socket %s\n\
           ^C for clean shutdown (checkpoint + WAL truncate)\n\
           %!"
          path socket_path
          (Genalg_storage.Wal.wal_path path)
          (Server.replayed server) max_sessions max_rows max_query_s
          socket_path;
        let stop_handler _ = Server.stop server in
        ignore (Sys.signal Sys.sigint (Sys.Signal_handle stop_handler));
        ignore (Sys.signal Sys.sigterm (Sys.Signal_handle stop_handler));
        (match Server.serve server with
        | Ok () -> print_endline "server stopped (checkpointed)"
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            exit 1)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"DB") in
  let socket =
    socket_flag ~doc:"Unix-domain socket to listen on (default $(i,DB).sock)"
  in
  let max_sessions =
    Arg.(value & opt int 32 & info [ "max-sessions" ] ~doc:"Concurrent session cap")
  in
  let max_rows =
    Arg.(value & opt int 100_000 & info [ "max-rows" ] ~doc:"Per-query result row cap")
  in
  let max_query_s =
    Arg.(
      value & opt float 5.0
      & info [ "max-query-s" ] ~doc:"Per-query wall-clock cap in seconds")
  in
  let shard_id =
    Arg.(
      value
      & opt (some int) None
      & info [ "shard-id" ] ~docv:"I"
          ~doc:
            "Announce this server as shard $(docv) of a cluster in the v2 \
             WELCOME topology handshake (see docs/SHARDING.md)")
  in
  let shard_count =
    Arg.(
      value
      & opt (some int) None
      & info [ "shard-count" ] ~docv:"N"
          ~doc:"Total shard count announced alongside $(b,--shard-id)")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a warehouse over a Unix-domain socket: concurrent sessions, \
          BEGIN/COMMIT transactions with snapshot reads, group-commit WAL \
          (see docs/SERVING.md)")
    Term.(
      const run $ path $ socket $ max_sessions $ max_rows $ max_query_s
      $ shard_id $ shard_count $ jobs_flag $ fault_flag)

let print_reply = function
  | Proto.Rows { columns; rows } ->
      print_endline (Client.render_rows ~columns rows)
  | Proto.Affected n -> Printf.printf "(%d rows affected)\n" n
  | Proto.Ok_reply { info } -> print_endline info
  | Proto.Error_reply { code; message } ->
      Printf.printf "error [%s]: %s\n" (Proto.error_code_to_string code) message
  | Proto.Stats_text text -> print_endline text
  | Proto.Pong -> print_endline "pong"
  | Proto.Resync_state { epoch; applied_lsn } ->
      Printf.printf "resync: epoch %d, applied lsn %d\n" epoch applied_lsn
  | Proto.Welcome _ | Proto.Bye -> ()

let connect_cmd =
  (* coordinator mode: --shards turns the client into a scatter-gather
     coordinator over N genalg-serve shards (docs/SHARDING.md) *)
  let run_cluster ~actor ~command ~sockets ~replicas ~dir ~fault =
    apply_faults fault;
    Obs.set_enabled true;
    let cluster =
      (* a state directory that already holds a manifest is an earlier
         coordinator's life: recover it instead of starting fresh *)
      match dir with
      | Some d when Sys.file_exists (Genalg_shard.Manifest.path d) ->
          Cluster.open_dir ~attach ~dir:d ()
      | _ -> Cluster.create_remote ~attach ?replicas ?dir ~actor ~sockets ()
    in
    match cluster with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    | Ok cl -> (
        let dispatch line =
          match String.lowercase_ascii (String.trim line) with
          | "\\stats" ->
              print_endline (Obs.render_table ~prefix:"shard" ());
              Ok ()
          | "\\report" ->
              print_string (Cluster.report_text cl);
              Ok ()
          | _ -> (
              match Cluster.query cl ~actor line with
              | Ok outcome ->
                  print_outcome (Cluster.mirror cl) outcome;
                  Ok ()
              | Error msg ->
                  Printf.printf "error: %s\n" msg;
                  Ok ())
        in
        match command with
        | Some line ->
            ignore (dispatch line);
            Cluster.close cl
        | None ->
            Printf.printf
              "coordinator over %d shard(s) as %s\n\
               SQL scatters across the shards; writes go everywhere.\n\
               Commands: \\stats  \\report  \\quit\n\n"
              (Cluster.shard_count cl) actor;
            let rec loop () =
              Printf.printf "%s@cluster> %!" actor;
              match In_channel.input_line stdin with
              | None -> print_newline ()
              | Some line -> (
                  match String.lowercase_ascii (String.trim line) with
                  | "" -> loop ()
                  | "\\quit" | "\\q" | "exit" | "quit" -> ()
                  | _ ->
                      ignore (dispatch line);
                      loop ())
            in
            loop ();
            Cluster.close cl)
  in
  let run_single socket actor command =
    let socket =
      match socket with
      | Some s -> s
      | None ->
          Printf.eprintf "error: --socket is required\n";
          exit 2
    in
    match Client.connect ~actor ~socket () with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    | Ok c -> (
        let dispatch line =
          match String.lowercase_ascii (String.trim line) with
          | "begin" -> Result.map (fun () -> ()) (Client.begin_ c)
          | "commit" -> Client.commit c
          | "rollback" -> Client.rollback c
          | "\\stats" -> Result.map print_endline (Client.stats c)
          | "\\shutdown" -> Client.shutdown c ~dirty:false
          | _ -> (
              match Client.query c line with
              | Ok reply ->
                  print_reply reply;
                  Ok ()
              | Error _ as e -> Result.map ignore e)
        in
        match command with
        | Some line -> (
            (* one-shot: run a single statement and exit *)
            match dispatch line with
            | Ok () -> Client.close c
            | Error msg ->
                Printf.eprintf "error: %s\n" msg;
                exit 1)
        | None ->
            Printf.printf
              "connected to %s as %s (session %d)\n\
               SQL statements run remotely; BEGIN/COMMIT/ROLLBACK control \
               the transaction.\n\
               Commands: \\stats  \\shutdown  \\quit\n\n"
              socket actor (Client.session_id c);
            let rec loop () =
              Printf.printf "%s@%d> %!" actor (Client.session_id c);
              match In_channel.input_line stdin with
              | None -> print_newline ()
              | Some line -> (
                  match String.lowercase_ascii (String.trim line) with
                  | "" -> loop ()
                  | "\\quit" | "\\q" | "exit" | "quit" -> ()
                  | _ -> (
                      match dispatch line with
                      | Ok () -> loop ()
                      | Error msg ->
                          Printf.printf "connection error: %s\n" msg))
            in
            loop ();
            Client.close c)
  in
  let run socket actor command shards replicas dir fault =
    match shards with
    | Some socks ->
        let split s = String.split_on_char ',' s |> List.map String.trim in
        run_cluster ~actor ~command ~sockets:(split socks)
          ~replicas:(Option.map split replicas) ~dir ~fault
    | None -> run_single socket actor command
  in
  let socket = socket_flag ~doc:"Server socket (from $(b,genalg serve))" in
  let shards =
    Arg.(
      value
      & opt (some string) None
      & info [ "shards" ] ~docv:"SOCK,..."
          ~doc:
            "Comma-separated shard sockets: act as a scatter-gather \
             coordinator over these $(b,genalg serve) processes instead of \
             a single-server client (see docs/SHARDING.md)")
  in
  let replicas =
    Arg.(
      value
      & opt (some string) None
      & info [ "replicas" ] ~docv:"SOCK,..."
          ~doc:
            "Replica sockets paired positionally with $(b,--shards); a \
             shard whose primary dies fails over to its replica")
  in
  let state_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:
            "Coordinator state directory: persists the manifest, the \
             statement log and checkpoint images so a restarted \
             coordinator recovers routing state and resyncs its shards \
             (a directory already holding a manifest is reopened; see \
             docs/SHARDING.md)")
  in
  let actor =
    Arg.(value & opt string "biologist" & info [ "actor" ] ~doc:"Acting user")
  in
  let command =
    Arg.(
      value
      & opt (some string) None
      & info [ "c"; "command" ] ~docv:"SQL"
          ~doc:"Run one statement (or BEGIN/COMMIT/ROLLBACK/\\\\stats) and exit")
  in
  Cmd.v
    (Cmd.info "connect"
       ~doc:"Connect to a running genalg server: remote SQL REPL over the \
             wire protocol, or a scatter-gather coordinator with \
             $(b,--shards)")
    Term.(
      const run $ socket $ actor $ command $ shards $ replicas $ state_dir
      $ fault_flag)

(* ---- orfs -------------------------------------------------------------------- *)

let orfs_cmd =
  let run path min_length =
    List.iter
      (fun (r : Genalg_formats.Fasta.record) ->
        let orfs = Ops.find_orfs ~min_length r.Genalg_formats.Fasta.sequence in
        Printf.printf ">%s: %d ORFs >= %d nt\n" r.Genalg_formats.Fasta.id
          (List.length orfs) min_length;
        List.iteri
          (fun i orf ->
            let protein = Ops.orf_protein r.Genalg_formats.Fasta.sequence orf in
            Printf.printf "  orf%d %s frame %d at %d..%d: %s\n" (i + 1)
              (match orf.Ops.strand with Ops.Forward -> "+" | Ops.Reverse -> "-")
              orf.Ops.frame orf.Ops.start
              (orf.Ops.start + orf.Ops.length)
              (Seq.to_string protein))
          orfs)
      (load_fasta path)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FASTA") in
  let min_length =
    Arg.(value & opt int 90 & info [ "m"; "min-length" ] ~doc:"Minimum ORF length (nt)")
  in
  Cmd.v
    (Cmd.info "orfs" ~doc:"Find open reading frames in FASTA sequences")
    Term.(const run $ path $ min_length)

(* ---- translate ------------------------------------------------------------------ *)

let translate_cmd =
  let run path =
    List.iter
      (fun (r : Genalg_formats.Fasta.record) ->
        Printf.printf ">%s\n" r.Genalg_formats.Fasta.id;
        let seq = r.Genalg_formats.Fasta.sequence in
        for frame = 0 to 2 do
          Printf.printf "  +%d %s\n" frame
            (Seq.to_string (Ops.translate_frame ~frame seq))
        done;
        let rc = Seq.reverse_complement seq in
        for frame = 0 to 2 do
          Printf.printf "  -%d %s\n" frame (Seq.to_string (Ops.translate_frame ~frame rc))
        done)
      (load_fasta path)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FASTA") in
  Cmd.v
    (Cmd.info "translate" ~doc:"Six-frame translation of FASTA sequences")
    Term.(const run $ path)

(* ---- align ---------------------------------------------------------------------- *)

let align_cmd =
  let run path_a path_b mode =
    match load_fasta path_a, load_fasta path_b with
    | a :: _, b :: _ ->
        let mode =
          match mode with
          | "global" -> Genalg_align.Pairwise.Global
          | "semiglobal" -> Genalg_align.Pairwise.Semiglobal
          | _ -> Genalg_align.Pairwise.Local
        in
        let aln =
          Genalg_align.Pairwise.align_seq ~mode ~query:a.Genalg_formats.Fasta.sequence
            ~subject:b.Genalg_formats.Fasta.sequence ()
        in
        Format.printf "%a@." Genalg_align.Pairwise.pp aln;
        Printf.printf "resemblance: %.3f\n"
          (Ops.resembles a.Genalg_formats.Fasta.sequence b.Genalg_formats.Fasta.sequence)
    | _ ->
        Printf.eprintf "error: both FASTA files must contain a sequence\n";
        exit 1
  in
  let a = Arg.(required & pos 0 (some file) None & info [] ~docv:"QUERY.fasta") in
  let b = Arg.(required & pos 1 (some file) None & info [] ~docv:"SUBJECT.fasta") in
  let mode =
    Arg.(value & opt string "local" & info [ "mode" ] ~doc:"local, global or semiglobal")
  in
  Cmd.v
    (Cmd.info "align" ~doc:"Pairwise-align the first sequences of two FASTA files")
    Term.(const run $ a $ b $ mode)

(* ---- faults ----------------------------------------------------------------------- *)

let faults_cmd =
  let run fault exercise =
    apply_faults fault;
    if not (Fault.active ()) then
      print_endline
        "fault injection: inactive (pass --fault-spec or set GENALG_FAULTS)"
    else begin
      Printf.printf "fault injection: active, seed %d\n" (Fault.seed ());
      Printf.printf "spec: %s\n" (Fault.render_spec ());
      let rules = Fault.rules () in
      Printf.printf "\n%d rule(s):\n" (List.length rules);
      List.iter
        (fun (r : Fault.rule) ->
          Printf.printf "  %-24s %-8s p=%g after=%d times=%s s=%g frac=%g%s\n"
            r.Fault.site
            (Fault.kind_to_string r.Fault.kind)
            r.Fault.p r.Fault.after
            (match r.Fault.times with None -> "inf" | Some n -> string_of_int n)
            r.Fault.seconds r.Fault.fraction
            (if r.Fault.message = "" then ""
             else Printf.sprintf " msg=%S" r.Fault.message))
        rules
    end;
    Printf.printf "\nregistered crash points:\n";
    List.iter (fun site -> Printf.printf "  %s\n" site) (Fault.crash_points ());
    if exercise then begin
      (* a small mediated fan-out so the spec's effects show up in the
         tallies below: three synthetic sources, resilient mediator,
         two identical queries *)
      let rng = Genalg_synth.Rng.make 7 in
      let open Genalg_etl in
      let sources =
        List.init 3 (fun i ->
            Source.create
              ~name:(Printf.sprintf "s%d" i)
              Source.Queryable
              (if i mod 2 = 0 then Source.Relational else Source.Hierarchical)
              (Genalg_synth.Recordgen.repository rng ~size:10
                 ~prefix:(Printf.sprintf "X%d" i) ()))
      in
      let module Mediator = Genalg_mediator.Mediator in
      let med =
        Mediator.create ~resilience:Resilience.default_policy sources
      in
      print_newline ();
      for round = 1 to 2 do
        let _, timing = Mediator.run med Mediator.query_all in
        Printf.printf "exercise round %d: %d/%d sources answered\n" round
          timing.Mediator.sources_answered timing.Mediator.sources_contacted;
        List.iter
          (fun (st : Mediator.source_timing) ->
            Printf.printf "  %-8s %s\n" st.Mediator.source
              (Mediator.status_to_string st.Mediator.status))
          timing.Mediator.per_source
      done
    end;
    print_fault_tallies ()
  in
  let exercise =
    Arg.(
      value & flag
      & info [ "exercise" ]
          ~doc:
            "Run a small mediated fan-out (3 synthetic sources, 2 queries) \
             under the spec and print per-source statuses and tallies")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Show the active fault-injection spec, registered crash points and \
          per-site injection tallies")
    Term.(const run $ fault_flag $ exercise)

(* ---- xml ------------------------------------------------------------------------- *)

let xml_cmd =
  let run path =
    List.iter
      (fun (r : Genalg_formats.Fasta.record) ->
        let v = Genalg_core.Value.VDna r.Genalg_formats.Fasta.sequence in
        print_string (Genalg_xml.Genalgxml.to_string v))
      (load_fasta path)
  in
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FASTA") in
  Cmd.v
    (Cmd.info "xml" ~doc:"Emit FASTA sequences as GenAlgXML")
    Term.(const run $ path)

let () =
  (match Fault.configure_env () with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "error: bad GENALG_FAULTS: %s\n" msg;
      exit 2);
  let info =
    Cmd.info "genalg" ~version:"1.0.0"
      ~doc:"The Genomics Algebra and Unifying Database (Hammer & Schneider, CIDR 2003)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ ops_cmd; demo_cmd; query_cmd; ask_cmd; repl_cmd; stats_cmd;
            serve_cmd; connect_cmd; faults_cmd; orfs_cmd; translate_cmd;
            align_cmd; xml_cmd ]))
