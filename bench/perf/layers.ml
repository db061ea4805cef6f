(* Per-layer metrics of a traced run. They come from outside the engine:
   diffs of the registries it already keeps (Obs, Lru, Gc) across the
   timed window, and bench-timed calls into each layer's public
   functions ("probes"). *)

open Harness
module Exec = Genalg_sqlx.Exec
module Wal = Genalg_storage.Wal

(* {1 Registry delta}

   What the engine's own registries moved by: Obs instruments (counter
   value, or histogram count and sum), the Lru per-family tallies, and
   the Gc allocation and major-collection counts. A snapshot is the delta
   since process start. The serve-oltp server computes its delta in its
   own process and hands it over as JSON. *)

type delta = {
  obs : (string * (int * float)) list;
  caches : (string * Lru.stats) list;
  alloc_bytes : float;
  majors : int;
}

let snap () =
  let g = Gc.quick_stat () in
  { obs = List.map (fun (e : Obs.entry) -> (e.Obs.name, (e.Obs.count, e.Obs.sum))) (Obs.snapshot ());
    caches = Lru.registry_stats ();
    alloc_bytes =
      (g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words) *. float_of_int (Sys.word_size / 8);
    majors = g.Gc.major_collections }

let minus a b =
  let stats_minus (x : Lru.stats) (y : Lru.stats) =
    { Lru.hits = x.Lru.hits - y.Lru.hits; misses = x.Lru.misses - y.Lru.misses;
      evictions = x.Lru.evictions - y.Lru.evictions;
      invalidations = x.Lru.invalidations - y.Lru.invalidations;
      rejections = x.Lru.rejections - y.Lru.rejections }
  in
  { obs =
      List.map
        (fun (k, (n, s)) ->
          match List.assoc_opt k b.obs with Some (n', s') -> (k, (n - n', s -. s')) | None -> (k, (n, s)))
        a.obs;
    caches =
      List.map
        (fun (k, s) -> match List.assoc_opt k b.caches with Some s' -> (k, stats_minus s s') | None -> (k, s))
        a.caches;
    alloc_bytes = a.alloc_bytes -. b.alloc_bytes;
    majors = a.majors - b.majors }

let since before = minus (snap ()) before

(* Checks and probes the bench runs inside a timed window are work of
   its own: [aside] pauses the window clock for them and takes what they
   move in the registries out of the window's delta. *)
let set_aside = ref []

let aside w f =
  Harness.paused w (fun () ->
      let a = snap () in
      let v = f () in
      set_aside := since a :: !set_aside;
      v)

let window_delta before = List.fold_left minus (since before) !set_aside

let count d name = match List.assoc_opt name d.obs with Some (n, _) -> n | None -> 0
let sum d name = match List.assoc_opt name d.obs with Some (_, s) -> s | None -> 0.

let hist_mean d name =
  let n = count d name in
  if n = 0 then 0. else sum d name /. float_of_int n

let cache d name =
  match List.assoc_opt name d.caches with
  | Some s -> s
  | None -> { Lru.hits = 0; misses = 0; evictions = 0; invalidations = 0; rejections = 0 }

let hit_ratio (s : Lru.stats) = ratio s.Lru.hits (s.Lru.hits + s.Lru.misses)

let delta_json d =
  Json.Obj
    [ ("obs",
        Json.Obj
          (List.map
             (fun (k, (n, s)) -> (k, Json.Arr [ Json.Num (float_of_int n); Json.Num s ]))
             d.obs));
      ("caches",
        Json.Obj
          (List.map
             (fun (k, (s : Lru.stats)) ->
               ( k,
                 Json.Arr
                   (List.map
                      (fun v -> Json.Num (float_of_int v))
                      [ s.Lru.hits; s.Lru.misses; s.Lru.evictions; s.Lru.invalidations;
                        s.Lru.rejections ]) ))
             d.caches));
      ("alloc_bytes", Json.Num d.alloc_bytes);
      ("majors", Json.Num (float_of_int d.majors)) ]

let delta_of_json j =
  let ints l = List.map (function Json.Num f -> int_of_float f | _ -> 0) l in
  let fields k = match Json.member k j with Some (Json.Obj kvs) -> kvs | _ -> [] in
  { obs =
      List.filter_map
        (fun (k, v) ->
          match v with
          | Json.Arr [ Json.Num n; Json.Num s ] -> Some (k, (int_of_float n, s))
          | _ -> None)
        (fields "obs");
    caches =
      List.filter_map
        (fun (k, v) ->
          match v with
          | Json.Arr l -> (
              match ints l with
              | [ hits; misses; evictions; invalidations; rejections ] ->
                  Some (k, { Lru.hits; misses; evictions; invalidations; rejections })
              | _ -> None)
          | _ -> None)
        (fields "caches");
    alloc_bytes = Option.value (Option.bind (Json.member "alloc_bytes" j) Json.to_float) ~default:0.;
    majors =
      int_of_float
        (Option.value (Option.bind (Json.member "majors" j) Json.to_float) ~default:0.) }

(* {1 Probes} *)

type probes = (string, samples) Hashtbl.t

let probes () : probes = Hashtbl.create 16

let note (p : probes) name v =
  let s =
    match Hashtbl.find_opt p name with
    | Some s -> s
    | None ->
        let s = samples () in
        Hashtbl.replace p name s;
        s
  in
  add s v

let probe_values (p : probes) name =
  match Hashtbl.find_opt p name with Some s -> to_array s | None -> [||]

(* mean of a probe's samples, scaled to [unit_], with its sample count *)
let probe_mean p name unit_ scale =
  let v = probe_values p name in
  m ~n:(Array.length v) unit_ (Stats.mean v *. scale)

let probe_median p name =
  let v = probe_values p name in
  if Array.length v = 0 then 0. else Stats.median v

(* Self time of each operator of an EXPLAIN ANALYZE profile. Non-scan
   nodes are timed from query start, so a node's own cost is its time
   minus its children's. *)
let rec note_profile p (prof : Exec.op_profile) =
  let children = List.fold_left (fun acc (c : Exec.op_profile) -> acc +. c.Exec.elapsed_s) 0. prof.Exec.children in
  let self = Float.max 0. (prof.Exec.elapsed_s -. children) in
  let starts prefix = String.starts_with ~prefix prof.Exec.op in
  if starts "Scan" then note p "sqlx.scan" self
  else if starts "Join" then note p "sqlx.join" self
  else if starts "Group" || starts "Aggregate" then note p "sqlx.group" self
  else if starts "Sort" then note p "sqlx.sort" self;
  List.iter (note_profile p) prof.Exec.children

(* One sampled read, timed outside the operation it copies: parse, then
   plan + execute with the profiler. A dedicated actor keeps the probe's
   plans out of the workload's own plan-cache entries. *)
let probe_actor = "perfprobe"

let probe_select p db sql =
  let stmt, dt = time (fun () -> Genalg_sqlx.Parser.parse sql) in
  note p "sqlx.parse" dt;
  match stmt with
  | Ok (Genalg_sqlx.Ast.Select s) -> (
      let r, wall = time (fun () -> Exec.run_select_profiled db ~actor:probe_actor s) in
      match r with
      | Ok (rs, prof) ->
          note p "sqlx.plan" (Float.max 0. (wall -. prof.Exec.elapsed_s));
          note_profile p prof;
          Some rs
      | Error _ -> None)
  | _ -> None

(* Protocol codec cost of shipping a reply. *)
let probe_codec p reply =
  let wire, enc = time (fun () -> Genalg_serve.Protocol.encode_reply reply) in
  let _, dec = time (fun () -> Genalg_serve.Protocol.decode_reply wire) in
  note p "serve.encode" enc;
  note p "serve.decode" dec;
  note p "serve.reply_bytes" (float_of_int (String.length wire))

let rows_reply (rs : Exec.result_set) =
  Genalg_serve.Protocol.Rows { columns = rs.Exec.columns; rows = rs.Exec.rows }

(* Snapshot cost and WAL group-flush cost, measured after the window on
   the workload's own database and on a scratch WAL beside it holding
   one commit group of the workload's statements. *)
let probe_storage p cfg db statements =
  for _ = 1 to 5 do
    let _, dt = time (fun () -> Genalg_storage.Database.clone db) in
    note p "storage.clone" dt
  done;
  let path = Filename.concat cfg.work "probe.wal" in
  let wal = ok_or_fail (Wal.open_ path) in
  Fun.protect ~finally:(fun () -> Wal.close wal) (fun () ->
      for i = 1 to 20 do
        Wal.append_begin wal ~txn:i;
        List.iter (fun sql -> Wal.append_stmt wal ~txn:i ~actor:"perf" ~sql) statements;
        Wal.append_commit wal ~txn:i;
        let r, dt = time (fun () -> Wal.flush wal) in
        ok_or_fail r;
        note p "storage.wal_flush" dt
      done)

(* {1 Metrics} *)

type inputs = {
  d : delta;
  p : probes;
  ops : int;
  reads : int;
  writes : int;       (** acknowledged row writes (commits for serve) *)
  window_s : float;
  op_wall_s : float;  (** sum of operation latencies *)
  layer_self_s : float;  (** sum of self times attributed to layers *)
}

(* Metrics defined on every workload. A layer a workload does not use
   reads 0 on a count or ratio; every time metric here is measured on
   every workload. *)
let common i =
  let d = i.d and p = i.p in
  let rb = cache d "result" in
  let vec_k = count d "sqlx.vec.kernel_rows" and vec_f = count d "sqlx.vec.fallback_rows" in
  let par_ops = count d "par.ops" and par_inline = count d "par.ops_inline" in
  let shard_q = count d "shard.queries" in
  let deltas =
    count d "etl.deltas.insertion" + count d "etl.deltas.deletion"
    + count d "etl.deltas.modification"
  in
  [ ("sqlx.parse_us", probe_mean p "sqlx.parse" "us" us);
    ("sqlx.plan_us", probe_mean p "sqlx.plan" "us" us);
    ("sqlx.select_ms", m ~n:(count d "sqlx.select") "ms" (hist_mean d "sqlx.select" *. ms));
    ("sqlx.scan_ms", probe_mean p "sqlx.scan" "ms" ms);
    ("sqlx.vec_kernel_row_share", m "ratio" (ratio vec_k (vec_k + vec_f)));
    ("sqlx.vec_fallback_row_share", m "ratio" (ratio vec_f (vec_k + vec_f)));
    ("storage.clone_ms", m ~n:5 "ms" (probe_median p "storage.clone" *. ms));
    ("storage.wal_flush_ms", m ~n:20 "ms" (probe_median p "storage.wal_flush" *. ms));
    ("storage.wal_bytes_per_commit", m "bytes" (ratio (count d "storage.wal.flushed_bytes") i.writes));
    ("storage.log_flushes_per_write", m "ratio" (ratio (count d "storage.wal.flushes") i.writes));
    ("storage.rows_scanned_per_row_out",
      m "ratio" (ratio (count d "storage.table.rows_scanned") (count d "sqlx.rows_out")));
    ("storage.page_reads_per_query", m "count" (ratio (count d "storage.page.reads") (count d "sqlx.queries")));
    ("cache.bufferpool.hit_ratio", m "ratio" (hit_ratio (cache d "bufferpool")));
    ("cache.stmt.hit_ratio", m "ratio" (hit_ratio (cache d "stmt")));
    ("cache.plan.hit_ratio", m "ratio" (hit_ratio (cache d "plan")));
    ("cache.result.hit_ratio", m "ratio" (hit_ratio rb));
    ("cache.result.invalidations_per_write", m "ratio" (ratio rb.Lru.invalidations i.writes));
    ("serve.encode_us", probe_mean p "serve.encode" "us" us);
    ("serve.decode_us", probe_mean p "serve.decode" "us" us);
    ("serve.reply_bytes", probe_mean p "serve.reply_bytes" "bytes" 1.);
    ("serve.commits_per_flush",
      m "ratio" (ratio (count d "serve.group_commit.commits") (count d "serve.group_commit.batches")));
    ("shard.fanout_per_read", m "ratio" (ratio (count d "shard.scatter.fanout") i.reads));
    ("shard.pruned_ratio", m "ratio" (ratio (count d "shard.pruned") i.reads));
    ("shard.fallback_ratio", m "ratio" (ratio (count d "shard.fallbacks") shard_q));
    ("shard.failovers", m "count" (float_of_int (count d "shard.failovers")));
    ("etl.deltas_per_refresh", m "ratio" (ratio deltas (count d "etl.refresh")));
    ("etl.diff_cost_per_delta", m "ratio" (ratio (count d "etl.diff_cost") deltas));
    ("par.busy_share", m "ratio" (sum d "par.run" /. i.window_s));
    ("par.inline_share", m "ratio" (ratio par_inline (par_ops + par_inline)));
    ("gc.alloc_bytes_per_op", m "bytes" (d.alloc_bytes /. float_of_int (max 1 i.ops)));
    ("gc.major_per_s", m "1/s" (float_of_int d.majors /. i.window_s));
    ("trace.coverage", m "ratio" (if i.op_wall_s > 0. then i.layer_self_s /. i.op_wall_s else 0.)) ]

(* Time metrics of layers only some workloads use: reported where the
   layer ran, never as a 0 that would read as a measurement. *)
let specific i =
  let d = i.d and p = i.p in
  let hist name metric =
    if count d name = 0 then [] else [ (metric, m ~n:(count d name) "ms" (hist_mean d name *. ms)) ]
  in
  let probe name metric =
    if probe_values p name = [||] then [] else [ (metric, probe_mean p name "ms" ms) ]
  in
  probe "sqlx.join" "sqlx.join_ms" @ probe "sqlx.group" "sqlx.group_ms"
  @ probe "sqlx.sort" "sqlx.sort_ms"
  @ hist "shard.scatter" "shard.scatter_ms" @ hist "shard.gather" "shard.gather_ms"
  @ hist "shard.merge" "shard.merge_ms"
  @ List.concat_map
      (fun t -> hist ("etl.poll." ^ t) ("etl.poll_ms." ^ t))
      [ "log_inspection"; "snapshot_differential"; "tree_diff" ]
  @ hist "etl.incremental" "etl.incremental_ms"

(* ETL set-up phases, per bootstrap, from the set-up's registry delta *)
let bootstrap_phases d =
  let boots = count d "etl.bootstrap" in
  if boots = 0 then []
  else
    let per name = sum d name /. float_of_int boots in
    [ ("etl.reconcile_s", m ~n:boots "s" (per "etl.reconcile"));
      ("etl.extract_s", m ~n:boots "s" (per "etl.extract"));
      ("etl.load_s", m ~n:boots "s" (per "etl.load_merged")) ]

(* Sum of self times of every non-operation span: the part of the
   operations' wall time that some layer accounts for. *)
let layer_self spans =
  List.fold_left (fun acc (s : span) -> if s.parent = None then acc else acc +. s.self_s) 0. spans
