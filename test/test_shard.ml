(* Sharded scatter-gather warehouse: partitioner properties, cluster ≡
   single-node equivalence over a query corpus, replica failover, the
   copy-on-write clone of genomic indexes, and protocol-v2 topology
   negotiation against live shard servers. *)

module D = Genalg_storage.Dtype
module Db = Genalg_storage.Database
module Table = Genalg_storage.Table
module Exec = Genalg_sqlx.Exec
module Ast = Genalg_sqlx.Ast
module Parser = Genalg_sqlx.Parser
module Scatter = Genalg_sqlx.Scatter
module Rng = Genalg_synth.Rng
module Cluster = Genalg_shard.Cluster
module Partitioner = Genalg_shard.Partitioner
module Fault = Genalg_fault.Fault
module Obs = Genalg_obs.Obs
module Par = Genalg_par.Par
module Server = Genalg_serve.Server
module Client = Genalg_serve.Client

let check = Alcotest.(check string)
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let err = function
  | Error e -> e
  | Ok _ -> Alcotest.fail "expected an error"

let attach db = Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default

let str_contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub hay i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

let actor = "etl"

(* ---- fixture ----------------------------------------------------------- *)

let organisms = [| "human"; "mouse"; "yeast"; "ecoli" |]

let seed_sql =
  "CREATE TABLE seqs (organism string, accession string, len int, score float, seq string)"
  :: List.concat
       (List.init 32 (fun i ->
            let org = organisms.(i mod 4) in
            let len = if i mod 7 = 0 then "NULL" else string_of_int (40 + (i * 3 mod 60)) in
            let score =
              if i mod 11 = 3 then "NULL"
              else Printf.sprintf "%d.5" (i mod 9)
            in
            [
              Printf.sprintf
                "INSERT INTO seqs VALUES ('%s', 'ACC%04d', %s, %s, '%s')" org i
                len score
                (String.init 24 (fun j ->
                     "ACGT".[(i + j) mod 4]));
            ]))

let run_seed runner = List.iter (fun sql -> ignore (ok (runner sql))) seed_sql

let with_pair ?(shards = 3) f =
  let single = Db.create () in
  attach single;
  run_seed (Exec.query single ~actor);
  let cl = ok (Cluster.create_local ~attach ~shards ()) in
  run_seed (Cluster.query cl ~actor);
  Fun.protect ~finally:(fun () -> Fault.disable ()) (fun () -> f single cl)

let row_bytes rows =
  String.concat "|"
    (List.map (fun r -> Bytes.to_string (D.encode_row r)) rows)

(* byte-identical: same outcome constructor, same columns, same rows in
   the same order (or the same error message) *)
let same_outcome sql a b =
  match a, b with
  | Ok (Exec.Rows ra), Ok (Exec.Rows rb) ->
      check (sql ^ " [columns]")
        (String.concat "," ra.Exec.columns)
        (String.concat "," rb.Exec.columns);
      check (sql ^ " [rows]") (row_bytes ra.Exec.rows) (row_bytes rb.Exec.rows)
  | Ok (Exec.Affected na), Ok (Exec.Affected nb) -> checki sql na nb
  | Ok Exec.Executed, Ok Exec.Executed -> ()
  | Error ea, Error eb -> check (sql ^ " [error]") ea eb
  | _ -> Alcotest.failf "%s: outcomes diverge" sql

let assert_same single cl sql =
  let a = Exec.query single ~actor sql in
  same_outcome sql a (Cluster.query cl ~actor sql)

let corpus =
  [
    "SELECT * FROM seqs";
    "SELECT accession, len FROM seqs";
    "SELECT accession, len FROM seqs WHERE organism = 'human'";
    "SELECT accession FROM seqs WHERE 'mouse' = organism";
    "SELECT accession, len FROM seqs WHERE len > 50";
    "SELECT accession FROM seqs WHERE len > 50 AND organism = 'yeast'";
    "SELECT accession, score FROM seqs WHERE score <= 4.5 AND len >= 40";
    "SELECT upper(organism), strlen(seq) FROM seqs WHERE len <> 46";
    "SELECT accession FROM seqs ORDER BY accession DESC";
    "SELECT accession, len FROM seqs ORDER BY len DESC, accession ASC";
    "SELECT accession, len FROM seqs ORDER BY len ASC LIMIT 5";
    "SELECT * FROM seqs LIMIT 7";
    "SELECT accession FROM seqs WHERE organism = 'nope'";
    "SELECT count(*) FROM seqs";
    "SELECT count(len) FROM seqs";
    "SELECT sum(len), min(len), max(len), avg(len) FROM seqs";
    "SELECT sum(score), avg(score) FROM seqs WHERE organism = 'human'";
    "SELECT count(*) FROM seqs WHERE organism = 'nope'";
    "SELECT sum(len) FROM seqs WHERE organism = 'nope'";
    "SELECT organism, count(*) FROM seqs GROUP BY organism";
    "SELECT organism, sum(len), avg(score) FROM seqs GROUP BY organism";
    "SELECT organism, count(*) FROM seqs GROUP BY organism HAVING count(*) > 7";
    "SELECT organism, min(accession) FROM seqs GROUP BY organism ORDER BY count(*) DESC, organism ASC";
    "SELECT organism, sum(len) + 1 FROM seqs GROUP BY organism ORDER BY organism";
    "SELECT upper(organism), count(*) FROM seqs GROUP BY upper(organism) ORDER BY upper(organism)";
    "SELECT organism FROM seqs WHERE len > 90 GROUP BY organism";
    "SELECT count(*) + 1 FROM seqs WHERE organism = 'nope'";
    (* error cases: canonical single-node messages must survive *)
    "SELECT nosuch FROM seqs";
    "SELECT accession FROM nosuchtable";
    "SELECT sum(organism) FROM seqs";
    "SELECT organism FROM seqs GROUP BY organism HAVING sum(len)";
    (* joins fall back to the mirror *)
    "SELECT a.accession, b.accession FROM seqs a, seqs b WHERE a.len = b.len AND a.organism = 'yeast' ORDER BY a.accession, b.accession LIMIT 10";
  ]

let test_corpus () =
  with_pair (fun single cl -> List.iter (assert_same single cl) corpus)

let test_corpus_after_writes () =
  with_pair (fun single cl ->
      List.iter
        (fun sql ->
          ignore (Exec.query single ~actor sql);
          ignore (Cluster.query cl ~actor sql))
        [
          "DELETE FROM seqs WHERE len < 46";
          "INSERT INTO seqs VALUES ('human', 'ACC9001', 99, 1.5, 'ACGT')";
          "ANALYZE seqs";
        ];
      List.iter (assert_same single cl) corpus)

let test_corpus_with_index () =
  with_pair (fun single cl ->
      List.iter
        (fun sql ->
          ignore (ok (Exec.query single ~actor sql));
          ignore (ok (Cluster.query cl ~actor sql)))
        [ "CREATE INDEX ON seqs (len)"; "ANALYZE seqs" ];
      (* eq on the indexed column shards; range on it falls back *)
      List.iter (assert_same single cl)
        [
          "SELECT accession FROM seqs WHERE len = 58";
          "SELECT accession FROM seqs WHERE len > 58 ORDER BY accession";
          "SELECT count(*) FROM seqs WHERE len >= 58";
        ];
      let explained =
        match
          ok (Cluster.query cl ~actor "EXPLAIN SELECT accession FROM seqs WHERE len > 58")
        with
        | Exec.Rows rs ->
            String.concat "\n"
              (List.filter_map
                 (function [| D.Str s |] -> Some s | _ -> None)
                 rs.Exec.rows)
        | _ -> ""
      in
      checkb "range on indexed column is a gather-all" true
        (String.length explained >= 10
        && String.sub explained 0 10 = "Gather-all"))

let test_insert_partial () =
  with_pair (fun single cl ->
      let sql = "INSERT INTO seqs VALUES ('human','A',1,1.0,'x'), ('human','B'), ('human','C',3,3.0,'z')" in
      let ea = err (Exec.query single ~actor sql) in
      let eb = err (Cluster.query cl ~actor sql) in
      check "partial insert error" ea eb;
      (* the row before the failing one stays applied on both sides *)
      List.iter (assert_same single cl)
        [ "SELECT count(*) FROM seqs"; "SELECT * FROM seqs" ])

let test_reserved_column () =
  let cl = ok (Cluster.create_local ~attach ~shards:2 ()) in
  let e = err (Cluster.query cl ~actor "CREATE TABLE bad (x int, __grid int)") in
  checkb "reserved name mentioned" true (str_contains e "__grid")

let test_explain () =
  with_pair (fun _single cl ->
      let lines sql =
        match ok (Cluster.query cl ~actor sql) with
        | Exec.Rows rs ->
            String.concat "\n"
              (List.filter_map
                 (function [| D.Str s |] -> Some s | _ -> None)
                 rs.Exec.rows)
        | _ -> ""
      in
      let contains = str_contains in
      let plain = lines "EXPLAIN SELECT accession FROM seqs WHERE organism = 'human'" in
      checkb "scatter header" true (contains plain "Scatter-gather (shards=3");
      checkb "pruned to one target" true (contains plain "targets=1");
      checkb "partition column shown" true (contains plain "partition=organism");
      let grouped = lines "EXPLAIN SELECT organism, count(*) FROM seqs GROUP BY organism" in
      checkb "partial-aggregate gather" true
        (contains grouped "merge partial aggregates");
      let analyzed = lines "EXPLAIN ANALYZE SELECT organism, count(*) FROM seqs GROUP BY organism" in
      checkb "analyze shows gathered" true
        (contains analyzed "gathered=3");
      checkb "analyze shows failed-over" true
        (contains analyzed "failed-over=0");
      let join = lines "EXPLAIN SELECT a.len FROM seqs a, seqs b" in
      checkb "join is gather-all" true (contains join "Gather-all (fallback:"))

(* ---- failover ---------------------------------------------------------- *)

let test_failover_to_replica () =
  with_pair (fun single cl ->
      ok (Fault.configure "shard.1.primary:error");
      let before = Cluster.failovers_total cl in
      List.iter (assert_same single cl)
        [
          "SELECT accession, len FROM seqs ORDER BY accession";
          "SELECT organism, count(*) FROM seqs GROUP BY organism";
          "SELECT sum(len) FROM seqs";
        ];
      checkb "failovers counted" true (Cluster.failovers_total cl > before);
      Fault.disable ();
      List.iter (assert_same single cl) [ "SELECT count(*) FROM seqs" ])

let test_dead_shard_falls_back_to_mirror () =
  with_pair (fun single cl ->
      ok (Fault.configure "shard.1.primary:error;shard.1.replica:error");
      assert_same single cl "SELECT accession FROM seqs ORDER BY accession";
      let rep = Cluster.last_report cl in
      checkb "mirror answered" true (rep.Cluster.fallback <> None);
      Fault.disable ())

let test_crash_looping_shard () =
  with_pair (fun single cl ->
      (* a crash-looping primary: every hit dies; replica keeps serving *)
      ok (Fault.configure "shard.0.primary:crash");
      for _ = 1 to 10 do
        assert_same single cl "SELECT organism, count(*) FROM seqs GROUP BY organism"
      done;
      Fault.disable ())

(* 40 pruned aggregates and top-k scans under a seeded mix of an erroring
   and a crash-looping primary on a 4-shard cluster with replicas: every
   query is answered, byte-identical to the single node *)
let test_seeded_faults_40_queries () =
  with_pair ~shards:4 (fun single cl ->
      ok (Fault.configure "seed=7;shard.1.primary:error:p=0.7;shard.2.primary:crash:p=0.35");
      let before = Cluster.failovers_total cl in
      let answered = ref 0 in
      for i = 0 to 39 do
        let org = organisms.(i / 2 mod 4) and thr = 40 + (i * 13 mod 60) in
        let sql =
          if i mod 2 = 0 then
            Printf.sprintf
              "SELECT count(*), sum(len), avg(score) FROM seqs WHERE organism = '%s' AND len >= %d"
              org thr
          else
            Printf.sprintf
              "SELECT accession, len FROM seqs WHERE organism = '%s' AND len < %d ORDER BY len, accession LIMIT 5"
              org thr
        in
        let a = Exec.query single ~actor sql in
        let b = Cluster.query cl ~actor sql in
        same_outcome sql a b;
        if Result.is_ok b then incr answered
      done;
      checki "all 40 answered" 40 !answered;
      checkb "the faults forced failovers" true (Cluster.failovers_total cl > before))

let test_replica_consistency () =
  with_pair (fun _single cl ->
      ignore (ok (Cluster.query cl ~actor "DELETE FROM seqs WHERE len = 46"));
      ignore
        (ok
           (Cluster.query cl ~actor
              "INSERT INTO seqs VALUES ('yeast','ACC9100',77,2.5,'ACGTACGT')"));
      for i = 0 to Cluster.shard_count cl - 1 do
        match Cluster.primary_db cl i, Cluster.replica_db cl i with
        | Some p, Some r ->
            let dump db =
              match ok (Exec.query db ~actor "SELECT * FROM seqs") with
              | Exec.Rows rs -> row_bytes rs.Exec.rows
              | _ -> ""
            in
            check (Printf.sprintf "shard %d primary = replica" i) (dump p)
              (dump r)
        | _ -> Alcotest.fail "local cluster must expose shard stores"
      done)

let test_merged_stats () =
  with_pair (fun _single cl ->
      ignore (ok (Cluster.query cl ~actor "ANALYZE seqs"));
      let text = ok (Cluster.merged_stats_text cl ~actor ~table:"seqs") in
      checkb "mentions merged" true (str_contains text "merged statistics");
      checkb "row counts add up" true (str_contains text "32"))

let test_obs_counters () =
  with_pair (fun _single cl ->
      Obs.set_enabled true;
      let v name = Obs.value (Obs.counter name) in
      let q0 = v "shard.queries" in
      let p0 = v "shard.pruned" in
      ignore (ok (Cluster.query cl ~actor "SELECT count(*) FROM seqs WHERE organism = 'human'"));
      checkb "shard.queries ticks" true (v "shard.queries" > q0);
      checkb "shard.pruned ticks" true (v "shard.pruned" > p0);
      checkb "shard.* visible in stats table" true
        (str_contains (Obs.render_table ~prefix:"shard" ()) "shard.queries"))

(* ---- partitioner ------------------------------------------------------- *)

let test_partitioner_total_stable () =
  let values =
    [
      D.Null; D.Bool true; D.Bool false; D.Int 0; D.Int (-7); D.Int 123456;
      D.Float 0.; D.Float 3.25; D.Str ""; D.Str "human";
      D.Opaque ("dna", Bytes.of_string "ACGT");
    ]
  in
  List.iter
    (fun v ->
      List.iter
        (fun n ->
          let s = Partitioner.shard_of ~shards:n v in
          checkb "in range" true (s >= 0 && s < max 1 n);
          checki "stable" s (Partitioner.shard_of ~shards:n v))
        [ 1; 2; 3; 4; 8 ])
    values;
  (* equal-comparing numerics co-locate, so literal pruning agrees with
     stored rows regardless of lexical spelling *)
  checki "int/float co-hash"
    (Partitioner.shard_of ~shards:8 (D.Int 7))
    (Partitioner.shard_of ~shards:8 (D.Float 7.));
  (* domain-pool size must not leak into placement *)
  let jobs0 = Par.jobs () in
  let h1 = Partitioner.shard_of ~shards:8 (D.Str "stable") in
  Par.set_jobs 4;
  let h4 = Partitioner.shard_of ~shards:8 (D.Str "stable") in
  Par.set_jobs jobs0;
  checki "jobs-invariant" h1 h4

let test_partitioner_qcheck =
  QCheck.Test.make ~count:300 ~name:"partitioner total and stable"
    QCheck.(
      pair (oneofl [ 1; 2; 3; 5; 8; 16 ])
        (oneof
           [
             map (fun i -> D.Int i) int;
             map (fun f -> D.Float f) float;
             map (fun s -> D.Str s) string;
             map (fun b -> D.Bool b) bool;
             always D.Null;
           ]))
    (fun (n, v) ->
      let s = Partitioner.shard_of ~shards:n v in
      s >= 0 && s < n && s = Partitioner.shard_of ~shards:n v)

let test_partition_column () =
  let col ?(t = D.TString) name = { Ast.col_name = name; col_type = t; col_nullable = true } in
  check "prefers organism" "Organism"
    (Partitioner.partition_column [ col "acc"; col "Organism" ]);
  check "then accession" "accession"
    (Partitioner.partition_column [ col "len"; col "accession" ]);
  check "then id-like" "gene_id"
    (Partitioner.partition_column [ col "len"; col "gene_id" ]);
  check "else first column" "len"
    (Partitioner.partition_column [ col "len"; col "seq" ])

(* QCheck over a random WHERE/ORDER/aggregate grammar: the cluster and
   the single-node engine must agree byte for byte. Groups keyed by [len]
   span shards, so HAVING, ORDER BY over aggregates and LIMIT run on
   merged partials; [len > 100] matches nothing and takes the
   empty-input rule over every shard. *)
let test_random_queries =
  let plain_order =
    [| ""; " ORDER BY accession DESC"; " ORDER BY len ASC, accession ASC" |]
  and agg_order = [| ""; " ORDER BY count(*) DESC, len DESC"; " ORDER BY sum(len) ASC" |] in
  QCheck.Test.make ~count:60 ~name:"random scatter queries match single node"
    QCheck.(
      quad (oneofl [ "human"; "mouse"; "yeast"; "nope" ])
        (oneofl [ 40; 46; 58; 70; 95; 100 ])
        (oneofl [ 0; 1; 2 ])
        (oneofl [ ""; " LIMIT 3"; " LIMIT 11" ]))
    (fun (org, len, order, limit) ->
      let sqls =
        [
          Printf.sprintf
            "SELECT accession, len FROM seqs WHERE organism = '%s' AND len > %d%s%s"
            org len plain_order.(order) limit;
          Printf.sprintf
            "SELECT organism, count(*), sum(len) FROM seqs WHERE len > %d GROUP BY organism%s"
            len
            (if order = 0 then "" else " ORDER BY organism DESC");
          Printf.sprintf
            "SELECT len, count(*), sum(len), min(accession) FROM seqs WHERE len > %d GROUP BY len%s%s"
            len agg_order.(order) limit;
          Printf.sprintf
            "SELECT len, count(*) FROM seqs GROUP BY len HAVING sum(len) >= %d%s%s"
            (2 * len) agg_order.(order) limit;
          Printf.sprintf
            "SELECT organism, max(len) FROM seqs WHERE len > %d GROUP BY organism HAVING count(*) > 2 ORDER BY max(len) DESC%s"
            len limit;
          Printf.sprintf
            "SELECT len FROM seqs WHERE len > %d GROUP BY len HAVING count(*) + 1"
            len;
          Printf.sprintf "SELECT len, avg(score) FROM seqs WHERE len > %d GROUP BY len" len;
          Printf.sprintf
            "SELECT count(*), sum(len), avg(len), max(accession) FROM seqs WHERE len > %d"
            len;
          Printf.sprintf "SELECT count(*), upper('x') FROM seqs WHERE len > %d" len;
          Printf.sprintf "SELECT count(*) + 1, sum(len) + 1 FROM seqs WHERE len > %d" len;
          Printf.sprintf
            "SELECT count(*) FROM seqs WHERE len > %d HAVING count(*) > 0" len;
          Printf.sprintf "SELECT len, count(*) FROM seqs WHERE len > %d" len;
        ]
      in
      with_pair (fun single cl ->
          List.iter (assert_same single cl) sqls;
          true))

(* Float addition is not associative: float partial sums from several
   shards cannot reproduce the single node's bits, so such a SUM or AVG
   is answered by the mirror. One target and integer sums still scatter. *)
let test_float_sum_identity () =
  let orgs = [| "human"; "mouse"; "yeast"; "ecoli"; "fly"; "worm" |] in
  let sqls =
    "CREATE TABLE t (organism string, score float)"
    :: List.init 200 (fun i ->
           Printf.sprintf "INSERT INTO t VALUES ('%s', %.1f)" orgs.(i mod 6)
             (0.1 +. (0.1 *. float_of_int (i mod 10))))
  in
  let single = Db.create () in
  attach single;
  List.iter (fun sql -> ignore (ok (Exec.query single ~actor sql))) sqls;
  let cl = ok (Cluster.create_local ~attach ~shards:4 ()) in
  List.iter (fun sql -> ignore (ok (Cluster.query cl ~actor sql))) sqls;
  List.iter (assert_same single cl)
    [
      "SELECT sum(score) FROM t";
      "SELECT avg(score) FROM t";
      "SELECT organism, sum(score), avg(score) FROM t GROUP BY organism";
      "SELECT sum(score), avg(score) FROM t WHERE organism = 'human'";
    ];
  let fallback sql =
    ignore (ok (Cluster.query cl ~actor sql));
    (Cluster.last_report cl).Cluster.fallback <> None
  in
  checkb "float sum over shards falls back" true (fallback "SELECT sum(score) FROM t");
  checkb "single-target float sum scatters" false
    (fallback "SELECT sum(score), avg(score) FROM t WHERE organism = 'human'");
  checkb "count over shards scatters" false (fallback "SELECT count(*) FROM t");
  with_pair (fun _single cl ->
      ignore (ok (Cluster.query cl ~actor "SELECT sum(len), avg(len) FROM seqs"));
      checkb "integer sum over shards scatters" true
        ((Cluster.last_report cl).Cluster.fallback = None))

(* Integer SUM is exact on both paths: shards ship exact partial sums and
   the merge adds them exactly, so values above 2^53 and max_int survive
   and scatter; a sum outside the int range is the single node's error.
   Empty input is a group that saw no rows on both paths. *)
let test_integer_sum_identity () =
  let sqls =
    [
      "CREATE TABLE big (id int, g int, v int)";
      "INSERT INTO big VALUES (1, 1, 9007199254740993), (2, 1, 0), \
       (3, 2, 4611686018427387903), (4, 3, 4611686018427387903), (5, 3, 1), \
       (6, 3, -2), (7, 4, 9007199254740993), (8, 4, 1), (9, 4, 0), (10, 4, 1)";
      "CREATE TABLE void (x int)";
    ]
  in
  let single = Db.create () in
  attach single;
  List.iter (fun sql -> ignore (ok (Exec.query single ~actor sql))) sqls;
  let cl = ok (Cluster.create_local ~attach ~shards:4 ()) in
  List.iter (fun sql -> ignore (ok (Cluster.query cl ~actor sql))) sqls;
  let expect ?(scatters = true) sql expected =
    assert_same single cl sql;
    (match Cluster.query cl ~actor sql with
    | Ok (Exec.Rows rs) -> checkb sql true (Ok rs.Exec.rows = expected)
    | Error msg -> checkb sql true (Error msg = expected)
    | Ok _ -> Alcotest.failf "%s: expected rows" sql);
    if scatters then
      checkb (sql ^ " scatters") true ((Cluster.last_report cl).Cluster.fallback = None)
  in
  expect "SELECT sum(v) FROM big WHERE g = 1" (Ok [ [| D.Int 9007199254740993 |] ]);
  expect "SELECT sum(v) FROM big WHERE g = 2" (Ok [ [| D.Int max_int |] ]);
  expect "SELECT sum(v) FROM big WHERE g = 3" (Ok [ [| D.Int (max_int - 1) |] ]);
  expect "SELECT g, avg(v) FROM big WHERE g = 4 GROUP BY g"
    (Ok [ [| D.Int 4; D.Float (float_of_int 9007199254740995 /. 4.) |] ]);
  expect ~scatters:false "SELECT sum(v) FROM big WHERE g > 1"
    (Error "integer overflow in SUM");
  expect ~scatters:false "SELECT g > 1, avg(v) FROM big GROUP BY g > 1"
    (Error "integer overflow in AVG");
  expect "SELECT count(*) + 1 FROM void" (Ok [ [| D.Int 1 |] ]);
  expect "SELECT sum(x) + 1 FROM void" (Ok [ [| D.Null |] ]);
  expect "SELECT count(*) FROM void HAVING count(*) > 0" (Ok []);
  expect ~scatters:false "SELECT x, count(*) FROM void" (Ok [])

(* The merge finds groups through the executor's key map, so allocation
   per gathered row stays flat as groups grow; searching a list of
   groups per row allocates O(rows x groups). *)
let test_merge_many_groups () =
  let g =
    match Parser.parse "SELECT k, count(*), sum(v) FROM t GROUP BY k" with
    | Ok (Ast.Select s) -> (
        match
          Scatter.decompose ~star_columns:(fun () -> Ok []) ~has_index:(fun _ -> false) s
        with
        | Scatter.Grouped g -> g
        | _ -> Alcotest.fail "expected a grouped decomposition")
    | _ -> Alcotest.fail "parse"
  in
  let shards = 4 and groups = 5000 in
  let rng = Rng.make 2404 in
  (* every shard reports every group, in its own order; each row gets a
     distinct insertion position *)
  let grids = Array.init (shards * groups) Fun.id in
  Rng.shuffle rng grids;
  let gathered =
    List.concat
      (List.init shards (fun s ->
           let perm = Array.init groups Fun.id in
           Rng.shuffle rng perm;
           List.mapi
             (fun pos k ->
               [| D.Int k; D.Int (1 + (k mod 3)); D.Int (k * s);
                  D.Int grids.((s * groups) + pos) |])
             (Array.to_list perm)))
  in
  (* the reference: per key its count, sum and first insertion position *)
  let totals = Hashtbl.create groups in
  List.iter
    (fun row ->
      match row with
      | [| D.Int k; D.Int n; D.Int v; D.Int grid |] ->
          let n0, v0, g0 =
            Option.value (Hashtbl.find_opt totals k) ~default:(0, 0, max_int)
          in
          Hashtbl.replace totals k (n0 + n, v0 + v, min g0 grid)
      | _ -> ())
    gathered;
  let expected =
    Hashtbl.fold (fun k (n, v, grid) acc -> (grid, [| D.Int k; D.Int n; D.Int v |]) :: acc)
      totals []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  Gc.minor ();
  let before = Gc.minor_words () in
  let rs =
    ok (Scatter.merge_grouped ~udts:(Genalg_storage.Udt.create ()) g gathered)
  in
  let per_row = (Gc.minor_words () -. before) /. float_of_int (List.length gathered) in
  checki "one row per group" groups (List.length rs.Exec.rows);
  checkb "groups in first-occurrence order, with merged partials" true
    (row_bytes rs.Exec.rows = row_bytes expected);
  checkb
    (Printf.sprintf "%.0f minor words per gathered row" per_row)
    true (per_row < 500.)

(* ---- shared clones keep their genomic indexes (Database.clone) --------- *)

let cow_fixture () =
  let db = Db.create () in
  attach db;
  List.iter
    (fun sql -> ignore (ok (Exec.query db ~actor sql)))
    [
      "CREATE TABLE genes (name string, seq dna)";
      "INSERT INTO genes VALUES ('a', dna('ACGTACGTTT'))";
      "INSERT INTO genes VALUES ('b', dna('TTTTACGTAC'))";
      "CREATE GENOMIC INDEX ON genes (seq)";
    ];
  db

let contains_names db =
  match
    ok
      (Exec.query db ~actor
         "SELECT name FROM genes WHERE contains(seq, 'ACGTAC') ORDER BY name")
  with
  | Exec.Rows rs ->
      String.concat ","
        (List.filter_map
           (function [| D.Str s |] -> Some s | _ -> None)
           rs.Exec.rows)
  | _ -> ""

let test_clone_without_attach () =
  let db = cow_fixture () in
  let clone = Db.clone db in
  check "clone answers from the shared index" "a,b" (contains_names clone);
  (match
     ok
       (Exec.query clone ~actor
          "EXPLAIN SELECT name FROM genes WHERE contains(seq, 'ACGTAC')")
   with
  | Exec.Rows rs ->
      let plan =
        String.concat "\n"
          (List.map (fun r -> D.value_to_display r.(0)) rs.Exec.rows)
      in
      let needle = "via genomic index seq" in
      let n = String.length needle in
      let rec has i =
        i + n <= String.length plan
        && (String.sub plan i n = needle || has (i + 1))
      in
      checkb "clone plans the shared genomic index" true (has 0)
  | _ -> Alcotest.fail "EXPLAIN returned no plan");
  check "original still answers" "a,b" (contains_names db)

let test_cow_divergence_isolated () =
  let db = cow_fixture () in
  let clone = Db.clone db in
  (* write through the original: its first write copies its table *)
  ignore
    (ok (Exec.query db ~actor "INSERT INTO genes VALUES ('c', dna('ACGTACAA'))"));
  check "original sees the new row" "a,b,c" (contains_names db);
  check "clone is isolated" "a,b" (contains_names clone);
  (* and the other direction *)
  ignore
    (ok
       (Exec.query clone ~actor
          "INSERT INTO genes VALUES ('d', dna('ACGTACGG'))"));
  check "clone sees its own write" "a,b,d" (contains_names clone);
  check "original unaffected by clone write" "a,b,c" (contains_names db)

(* ---- protocol v2 negotiation & remote shards --------------------------- *)

let with_servers n ~topology f =
  let dir = Filename.temp_file "genalg_shard" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      Array.iter
        (fun file ->
          try Sys.remove (Filename.concat dir file) with Sys_error _ -> ())
        (Sys.readdir dir);
      (try Unix.rmdir dir with Unix.Unix_error _ -> ()))
    (fun () ->
      let servers =
        List.init n (fun i ->
            let db_path = Filename.concat dir (Printf.sprintf "s%d.db" i) in
            let socket = Filename.concat dir (Printf.sprintf "s%d.sock" i) in
            let db = Db.create () in
            ok (Db.save db db_path);
            let config =
              {
                (Server.default_config ~socket_path:socket) with
                Server.metrics = false;
                attach;
                topology = topology i;
              }
            in
            let server = ok (Server.create config ~db_path) in
            let dom = Domain.spawn (fun () -> Server.serve server) in
            (socket, server, dom))
      in
      let rec wait_ready socket n =
        if n = 0 then Alcotest.fail "shard server did not come up"
        else
          match Client.connect ~actor:"probe" ~socket () with
          | Ok c -> Client.close c
          | Error _ ->
              Unix.sleepf 0.02;
              wait_ready socket (n - 1)
      in
      List.iter (fun (s, _, _) -> wait_ready s 200) servers;
      let r = f (List.map (fun (s, _, _) -> s) servers) in
      List.iter
        (fun (_, server, dom) ->
          Server.stop server;
          match Domain.join dom with Ok () -> () | Error _ -> ())
        servers;
      r)

let test_version_negotiation () =
  with_servers 1
    ~topology:(fun _ -> "shard 0/1")
    (fun sockets ->
      let socket = List.hd sockets in
      (* a v1 client connects and sees the v1 wire shape (no topology) *)
      let c1 = ok (Client.connect ~actor:"etl" ~client_version:1 ~socket ()) in
      check "v1 client gets no topology" "" (Client.topology c1);
      Client.close c1;
      (* a v2 client learns where it landed *)
      let c2 = ok (Client.connect ~actor:"etl" ~socket ()) in
      check "v2 client sees the shard topology" "shard 0/1" (Client.topology c2);
      Client.close c2;
      (* a from-the-future client gets a typed refusal, not a hangup *)
      let e = err (Client.connect ~actor:"etl" ~client_version:99 ~socket ()) in
      checkb "VERSION error code surfaced" true
        (String.length e >= 7 && String.sub e 0 7 = "VERSION"))

let test_remote_cluster () =
  with_servers 2
    ~topology:(fun i -> Printf.sprintf "shard %d/2" i)
    (fun sockets ->
      let cl = ok (Cluster.create_remote ~attach ~actor ~sockets ()) in
      Fun.protect
        ~finally:(fun () -> Cluster.close cl)
        (fun () ->
          run_seed (Cluster.query cl ~actor);
          let single = Db.create () in
          attach single;
          run_seed (Exec.query single ~actor);
          List.iter (assert_same single cl)
            [
              "SELECT accession, len FROM seqs WHERE organism = 'human' ORDER BY accession";
              "SELECT organism, count(*), sum(len) FROM seqs GROUP BY organism ORDER BY organism";
              "SELECT count(*) FROM seqs";
            ];
          (* remote shards really hold disjoint partitions *)
          let remote_counts =
            List.map
              (fun socket ->
                let c = ok (Client.connect ~actor ~socket ()) in
                Fun.protect
                  ~finally:(fun () -> Client.close c)
                  (fun () ->
                    match ok (Client.query c "SELECT count(*) FROM seqs") with
                    | Genalg_serve.Protocol.Rows { rows = [ [| D.Int n |] ]; _ } -> n
                    | _ -> -1))
              sockets
          in
          checki "partitions cover all rows" 32
            (List.fold_left ( + ) 0 remote_counts);
          checkb "data is actually split" true
            (List.for_all (fun n -> n > 0 && n < 32) remote_counts)))

let suites =
  [
    ( "shard.partitioner",
      [
        Alcotest.test_case "total, stable, co-hashing" `Quick
          test_partitioner_total_stable;
        Alcotest.test_case "partition column heuristic" `Quick
          test_partition_column;
        QCheck_alcotest.to_alcotest test_partitioner_qcheck;
      ] );
    ( "shard.scatter",
      [
        Alcotest.test_case "corpus matches single node" `Quick test_corpus;
        Alcotest.test_case "corpus after writes and ANALYZE" `Quick
          test_corpus_after_writes;
        Alcotest.test_case "corpus with B-tree index" `Quick
          test_corpus_with_index;
        Alcotest.test_case "partial INSERT application" `Quick
          test_insert_partial;
        Alcotest.test_case "__grid is reserved" `Quick test_reserved_column;
        Alcotest.test_case "EXPLAIN and EXPLAIN ANALYZE" `Quick test_explain;
        QCheck_alcotest.to_alcotest test_random_queries;
        Alcotest.test_case "float SUM/AVG byte-identical" `Quick
          test_float_sum_identity;
        Alcotest.test_case "integer SUM/AVG and empty input match single node" `Quick
          test_integer_sum_identity;
        Alcotest.test_case "fan-out GROUP BY with many groups" `Quick
          test_merge_many_groups;
      ] );
    ( "shard.failover",
      [
        Alcotest.test_case "primary dies, replica serves" `Quick
          test_failover_to_replica;
        Alcotest.test_case "dead shard degrades to mirror" `Quick
          test_dead_shard_falls_back_to_mirror;
        Alcotest.test_case "crash-looping primary" `Quick
          test_crash_looping_shard;
        Alcotest.test_case "seeded faults: 40 of 40 answered" `Quick
          test_seeded_faults_40_queries;
        Alcotest.test_case "replicas stay consistent" `Quick
          test_replica_consistency;
      ] );
    ( "shard.stats",
      [
        Alcotest.test_case "merged ANALYZE statistics" `Quick test_merged_stats;
        Alcotest.test_case "shard.* instruments" `Quick test_obs_counters;
      ] );
    ( "shard.cow-clone",
      [
        Alcotest.test_case "clone answers contains without attach" `Quick
          test_clone_without_attach;
        Alcotest.test_case "divergence is isolated" `Quick
          test_cow_divergence_isolated;
      ] );
    ( "shard.remote",
      [
        Alcotest.test_case "protocol version negotiation" `Quick
          test_version_negotiation;
        Alcotest.test_case "two-shard remote cluster" `Quick
          test_remote_cluster;
      ] );
  ]
