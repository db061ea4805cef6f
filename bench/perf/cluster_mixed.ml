(* cluster-mixed: one in-process caller against a persistent 4-shard
   coordinator with replicas, mixing pruned reads (organism = literal),
   fan-out GROUP BY reads and single-row INSERTs into the table being
   read. Writes beside reads invalidate the result cache, and the
   statement log flushes once per write. Every 25th read is checked
   against a single-node database that receives the same writes, applied
   after the window. *)

open Harness
module Db = Genalg_storage.Database
module Exec = Genalg_sqlx.Exec
module Cluster = Genalg_shard.Cluster

type op = Read of string | Write of string

(* rows are written by the loader actor into the public space, where the
   bench's reader and the layer probes can both read them *)
let writer = Db.loader_actor
let reader = "bench"
let actor_of = function Read _ -> reader | Write _ -> writer
let organisms = 64

let row i rng =
  Printf.sprintf "('org%02d', 'ACC%06d', %d, %.2f)" (Rng.int rng organisms) i
    (200 + Rng.int rng 600) (Rng.float rng)

let create_sql = "CREATE TABLE samples (organism string, accession string, len int, score float)"

(* the initial rows as 250-row INSERT batches *)
let batches rng n =
  List.init ((n + 249) / 250) (fun b ->
      let lo = b * 250 and hi = min n ((b + 1) * 250) in
      "INSERT INTO samples VALUES " ^ String.concat ", " (List.init (hi - lo) (fun k -> row (lo + k) rng)))

(* per 20 operations: 12 pruned reads, 3 fan-out GROUP BYs, 5 INSERTs *)
let mix = [ (`Pruned_agg, 6); (`Pruned_top, 6); (`Fanout, 3); (`Insert, 5) ]

let next_op rng ~next_row kind =
  let org () = Rng.int rng organisms and len () = 200 + Rng.int rng 600 in
  match kind with
  | `Pruned_agg ->
      Read
        (Printf.sprintf
           "SELECT count(*), sum(len), avg(score) FROM samples WHERE organism = 'org%02d' AND len >= %d"
           (org ()) (len ()))
  | `Pruned_top ->
      Read
        (Printf.sprintf
           "SELECT accession, len FROM samples WHERE organism = 'org%02d' AND len < %d ORDER BY len, \
            accession LIMIT 5"
           (org ()) (len ()))
  | `Fanout ->
      Read
        (Printf.sprintf
           "SELECT organism, count(*), avg(len) FROM samples WHERE len >= %d GROUP BY organism ORDER \
            BY organism"
           (len ()))
  | `Insert ->
      let i = !next_row in
      incr next_row;
      Write ("INSERT INTO samples VALUES " ^ row i rng)

let run cfg =
  let rng = Rng.make cfg.seed in
  let n = scaled cfg 16_000 in
  let load = batches rng n in
  let builds = ref 0 in
  let cl, setup =
    repeat_setup ~discard:Cluster.close (fun () ->
        incr builds;
        let dir = Filename.concat cfg.work (Printf.sprintf "cluster-%d" !builds) in
        let cl = ok_or_fail (Cluster.create_local ~attach ~replicas:true ~dir ~shards:4 ()) in
        List.iter (fun sql -> ignore (ok_or_fail (Cluster.query cl ~actor:writer sql))) (create_sql :: load);
        cl)
  in
  let failures = failures () in
  let read_lat = latencies () and write_lat = latencies () in
  let probes = Layers.probes () and tr = tracer () in
  (* the window's operations in order, with the cluster's answer for the
     sampled reads, replayed on the single-node database afterwards *)
  let log = ref [] in
  let next_row = ref n and kind = schedule rng mix in
  if cfg.traced then attach_engine_spans tr;
  let before = Layers.snap () in
  let w = window cfg in
  let i = ref 0 and reads = ref 0 in
  while running w do
    let op = next_op rng ~next_row (kind ()) in
    let sql = match op with Read s | Write s -> s in
    let t0 = now () in
    let r = Cluster.query cl ~actor:(actor_of op) sql in
    let dt = now () -. t0 in
    record (match op with Read _ -> read_lat | Write _ -> write_lat) ~at:(elapsed w) dt;
    (match op, r with
    | Read _, Ok (Exec.Rows _) ->
        incr reads;
        log := (op, if !reads mod 25 = 0 then Some (r, dt) else None) :: !log
    | Write _, Ok (Exec.Affected 1) -> log := (op, Some (r, dt)) :: !log
    | _, Ok _ -> fail failures (sql ^ ": unexpected outcome")
    | _, Error msg -> fail failures (sql ^ ": " ^ msg));
    if cfg.traced then
      record_op tr ~trace:!i ~name:(match op with Read _ -> "op.read" | Write _ -> "op.write") ~start_s:t0 ~dur_s:dt;
    incr i
  done;
  let window_s = elapsed w in
  let d = Layers.window_delta before in
  Cluster.close cl;
  (* single-node replay: the same initial rows and the same writes in
     the same order, each sampled read compared where it happened *)
  let base = Db.create () in
  attach base;
  List.iter (fun sql -> ignore (ok_or_fail (Exec.query base ~actor:writer sql))) (create_sql :: load);
  let read_ratio = samples () and write_ratio = samples () in
  List.iter
    (fun (op, sampled) ->
      match op, sampled with
      | Write sql, Some (_, dt) ->
          let r, single = time (fun () -> Exec.query base ~actor:(actor_of op) sql) in
          check failures (r = Ok (Exec.Affected 1)) (lazy (sql ^ ": single-node write failed"));
          add write_ratio (dt /. single)
      | Read sql, Some (cluster, dt) ->
          let r, single = time (fun () -> Exec.query base ~actor:(actor_of op) sql) in
          check failures (r = cluster) (lazy (sql ^ ": cluster answer differs from single node"));
          add read_ratio (dt /. single);
          if cfg.traced then begin
            ignore (Layers.probe_select probes base sql);
            match r with Ok (Exec.Rows rs) -> Layers.probe_codec probes (Layers.rows_reply rs) | _ -> ()
          end
      | _ -> ())
    (List.rev !log);
  let ops = count_of [ read_lat; write_lat ] in
  let metrics =
    common_metrics ~setup ~ops:[ read_lat; write_lat ] ~window_s ~rss_kb:(vm_hwm_kb ())
      ~failed:failures.count
    @ latency_metrics "read" [ 95.; 99. ] read_lat
    @ latency_metrics "write" [ 95. ] write_lat
  in
  let layers =
    if not cfg.traced then []
    else begin
      Layers.probe_storage probes cfg base [ "INSERT INTO samples VALUES " ^ row 0 rng ];
      let spans = assemble tr in
      write_trace (Filename.concat cfg.out "cluster-mixed.trace.jsonl") spans;
      let i =
        { Layers.d; p = probes; ops; reads = count_of [ read_lat ]; writes = count_of [ write_lat ];
          window_s; op_wall_s = Array.fold_left ( +. ) 0. (Array.append (values read_lat) (values write_lat));
          layer_self_s = Layers.layer_self spans }
      in
      let median_ratio s = let a = to_array s in if a = [||] then 0. else Stats.median a in
      Layers.common i @ Layers.specific i
      @ [ ("shard.read_overhead_ratio", m ~n:read_ratio.len "ratio" (median_ratio read_ratio));
          ("shard.write_overhead_ratio", m ~n:write_ratio.len "ratio" (median_ratio write_ratio)) ]
    end
  in
  { correct = failures.count = 0; attempted = ops; failed = failures.count;
    first_failures = List.rev failures.first; metrics; layers }
