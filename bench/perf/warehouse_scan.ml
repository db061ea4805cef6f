(* warehouse-scan: one in-process caller issuing read-only analytical
   queries with unique literals over DNA reads several times larger than
   the buffer pool. Statement, plan and result caches miss by
   construction; the clone and the WAL are never touched. Every 20th
   query is checked against a naive evaluation over the generated
   strings that shares no engine code. *)

open Harness
module Db = Genalg_storage.Database
module D = Genalg_storage.Dtype
module Exec = Genalg_sqlx.Exec
module Table = Genalg_storage.Table
module Sequence = Genalg_gdt.Sequence

type read = { id : int; organism : string; len : int; seq : string; gc : float; descr : string }
type gene = { gid : int; read_id : int; name : string; exons : int }

let organisms = Array.init 12 (Printf.sprintf "Org%02d")

let words =
  [| "putative"; "membrane"; "transport"; "protein"; "kinase"; "domain"; "partial"; "cds";
     "complete"; "genome"; "hypothetical"; "binding"; "regulator"; "ribosomal"; "subunit";
     "mRNA"; "clone"; "strain"; "isolate"; "region" |]

(* free-text annotation as a warehouse row carries it; it makes rows
   wide, so the table spans several times the buffer pool *)
let annotation rng =
  let b = Buffer.create 1024 in
  let target = 800 + Rng.int rng 401 in
  while Buffer.length b < target do
    Buffer.add_string b (Rng.choose rng words);
    Buffer.add_char b ' '
  done;
  Buffer.contents b

let generate cfg rng =
  let reads =
    Array.init (scaled cfg 4_000) (fun id ->
        let len = 300 + Rng.int rng 601 in
        let seq = Genalg_synth.Seqgen.dna_string rng len in
        let gc = ref 0 in
        String.iter (fun c -> if c = 'G' || c = 'C' then incr gc) seq;
        { id; organism = Rng.choose rng organisms; len; seq;
          gc = float_of_int !gc /. float_of_int len; descr = annotation rng })
  in
  let genes =
    Array.init (scaled cfg 1_500) (fun gid ->
        { gid; read_id = Rng.int rng (Array.length reads);
          name = Printf.sprintf "g%05d" gid; exons = 1 + Rng.int rng 12 })
  in
  (reads, genes)

(* the loader actor's tables live in the public space, readable by every
   actor (the bench's and the probe's) *)
let loader = Db.loader_actor
let actor = "bench"

let load reads genes =
  let db = Db.create () in
  attach db;
  let sql s = ignore (ok_or_fail (Exec.query db ~actor:loader s)) in
  sql "CREATE TABLE reads (id int, organism string, len int, seq dna, descr string)";
  sql "CREATE TABLE genes (id int, read_id int, name string, exon_count int)";
  let table name = Option.get (Db.find_table db ~space:Db.Public name) in
  let rt = table "reads" and gt = table "genes" in
  Array.iter
    (fun r ->
      ignore
        (Table.insert_exn rt
           [| D.Int r.id; D.Str r.organism; D.Int r.len;
              D.Opaque ("dna", Sequence.to_bytes (Sequence.dna r.seq)); D.Str r.descr |]))
    reads;
  Array.iter
    (fun g -> ignore (Table.insert_exn gt [| D.Int g.gid; D.Int g.read_id; D.Str g.name; D.Int g.exons |]))
    genes;
  sql "CREATE GENOMIC INDEX ON reads (seq)";
  sql "ANALYZE reads";
  sql "ANALYZE genes";
  db

type query =
  | Gc_at_least of float
  | Longer_than of int
  | Contains of string
  | Group_gc_below of float
  | Join of int * int
  | Shortest_top of int
  | Resembles of string

let sql_of = function
  | Gc_at_least t -> Printf.sprintf "SELECT id, len FROM reads WHERE gc_content(seq) >= %.6f" t
  | Longer_than n -> Printf.sprintf "SELECT count(*) FROM reads WHERE length(seq) > %d" n
  | Contains p -> Printf.sprintf "SELECT id FROM reads WHERE contains(seq, '%s')" p
  | Group_gc_below t ->
      Printf.sprintf
        "SELECT organism, count(*), sum(len) FROM reads WHERE gc_content(seq) < %.6f GROUP BY \
         organism ORDER BY organism"
        t
  | Join (exons, len) ->
      Printf.sprintf
        "SELECT g.name, r.len FROM genes g, reads r WHERE g.read_id = r.id AND g.exon_count = %d \
         AND r.len > %d"
        exons len
  | Shortest_top n ->
      Printf.sprintf
        "SELECT id, len FROM reads WHERE length(seq) < %d ORDER BY len DESC, id LIMIT 10" n
  | Resembles p ->
      Printf.sprintf "SELECT id FROM reads WHERE resembles(seq, dna('%s')) >= 0.95" p

let substring rng reads k =
  let r = reads.(Rng.int rng (Array.length reads)) in
  String.sub r.seq (Rng.int rng (r.len - k + 1)) k

(* Template mix per 40 queries. Resembles stays well under 5 %: it costs
   ~100x a scan, so at 5 % the p95 would sit on the boundary between
   template classes. A 12-mer keeps it on the k-mer seed path with few
   candidates. *)
let mix =
  [ (`Gc, 8); (`Length, 6); (`Contains, 8); (`Group, 6); (`Join, 6); (`Top, 5); (`Resembles, 1) ]

let next_query rng reads template =
  (* thresholds are the values their SQL literal denotes *)
  let f lo hi = float_of_string (Printf.sprintf "%.6f" (lo +. (Rng.float rng *. (hi -. lo)))) in
  match template with
  | `Gc -> Gc_at_least (f 0.51 0.54)
  | `Length -> Longer_than (300 + Rng.int rng 601)
  | `Contains -> Contains (substring rng reads 16)
  | `Group -> Group_gc_below (f 0.45 0.55)
  | `Join -> Join (1 + Rng.int rng 12, 300 + Rng.int rng 601)
  | `Top -> Shortest_top (400 + Rng.int rng 500)
  | `Resembles -> Resembles (substring rng reads 12)

(* {1 Naive oracle} *)

let contains s p =
  let n = String.length s and k = String.length p in
  let rec at i = i + k <= n && (String.sub s i k = p || at (i + 1)) in
  at 0

let int_of = function D.Int i -> i | _ -> min_int
let str_of = function D.Str s -> s | _ -> ""

(* [Some why] when the engine's rows disagree with the naive answer *)
let verify reads genes q rows =
  let ids rows = List.sort compare (List.map (fun r -> int_of r.(0)) rows) in
  let expect_ids p = List.sort compare (List.map (fun r -> r.id) (List.filter p (Array.to_list reads))) in
  let same what a b = if a = b then None else Some (what ^ ": rows differ from the naive evaluation") in
  match q with
  | Gc_at_least t -> same "gc" (ids rows) (expect_ids (fun r -> r.gc >= t))
  | Longer_than n ->
      same "length"
        (List.map (fun r -> int_of r.(0)) rows)
        [ Array.fold_left (fun acc r -> if r.len > n then acc + 1 else acc) 0 reads ]
  | Contains p -> same "contains" (ids rows) (expect_ids (fun r -> contains r.seq p))
  | Group_gc_below t ->
      let expected =
        Array.to_list organisms
        |> List.filter_map (fun o ->
               let rs = List.filter (fun r -> r.organism = o && r.gc < t) (Array.to_list reads) in
               if rs = [] then None
               else Some (o, List.length rs, List.fold_left (fun a r -> a + r.len) 0 rs))
      in
      same "group"
        (List.map (fun r -> (str_of r.(0), int_of r.(1), int_of r.(2))) rows)
        expected
  | Join (exons, len) ->
      let expected =
        Array.to_list genes
        |> List.filter_map (fun g ->
               let r = reads.(g.read_id) in
               if g.exons = exons && r.len > len then Some (g.name, r.len) else None)
      in
      same "join"
        (List.sort compare (List.map (fun r -> (str_of r.(0), int_of r.(1))) rows))
        (List.sort compare expected)
  | Shortest_top n ->
      let expected =
        List.filter (fun r -> r.len < n) (Array.to_list reads)
        |> List.sort (fun a b -> compare (b.len, a.id) (a.len, b.id))
        |> List.filteri (fun i _ -> i < 10)
        |> List.map (fun r -> (r.id, r.len))
      in
      same "top" (List.map (fun r -> (int_of r.(0), int_of r.(1))) rows) expected
  | Resembles p ->
      (* the alignment score is not re-derived here; every read holding
         the pattern verbatim aligns perfectly and must be returned *)
      let got = ids rows in
      if List.for_all (fun id -> List.mem id got) (expect_ids (fun r -> contains r.seq p)) then None
      else Some "resembles: a read containing the pattern was not returned"

let run cfg =
  let rng = Rng.make cfg.seed in
  let reads, genes = generate cfg rng in
  let traced = cfg.traced in
  let db, setup = repeat_setup (fun () -> load reads genes) in
  let failures = failures () and checks = ref [] in
  let lat = latencies () and probes = Layers.probes () and tr = tracer () in
  let seen = Hashtbl.create 1024 and template = schedule rng mix in
  let rec fresh () =
    let q = next_query rng reads (template ()) in
    let sql = sql_of q in
    if Hashtbl.mem seen sql then fresh () else (Hashtbl.add seen sql (); (q, sql))
  in
  if traced then attach_engine_spans tr;
  let before = Layers.snap () in
  let w = window cfg in
  let i = ref 0 in
  while running w do
    let q, sql = fresh () in
    let t0 = now () in
    let r = Exec.query db ~actor sql in
    let dt = now () -. t0 in
    record lat ~at:(elapsed w) dt;
    if traced then record_op tr ~trace:!i ~name:"op.read" ~start_s:t0 ~dur_s:dt;
    (match r with
    | Ok (Exec.Rows rs) ->
        if !i mod 20 = 0 then checks := (q, rs.Exec.rows) :: !checks;
        if traced && !i mod 10 = 0 then
          Layers.aside w (fun () ->
              ignore (Layers.probe_select probes db sql);
              Layers.probe_codec probes (Layers.rows_reply rs))
    | Ok _ -> fail failures (sql ^ ": expected rows")
    | Error msg -> fail failures (sql ^ ": " ^ msg));
    incr i
  done;
  let window_s = elapsed w in
  let d = Layers.window_delta before in
  List.iter
    (fun (q, rows) -> Option.iter (fun why -> fail failures (sql_of q ^ ": " ^ why)) (verify reads genes q rows))
    !checks;
  let ops = count_of [ lat ] in
  let metrics =
    common_metrics ~setup ~ops:[ lat ] ~window_s ~rss_kb:(vm_hwm_kb ()) ~failed:failures.count
    @ latency_metrics "read" [ 95. ] lat
  in
  let layers =
    if not traced then []
    else begin
      Layers.probe_storage probes cfg db [ sql_of (Longer_than 1000) ];
      let spans = assemble tr in
      write_trace (Filename.concat cfg.out "warehouse-scan.trace.jsonl") spans;
      let i =
        { Layers.d; p = probes; ops; reads = ops; writes = 0; window_s;
          op_wall_s = Array.fold_left ( +. ) 0. (values lat); layer_self_s = Layers.layer_self spans }
      in
      Layers.common i @ Layers.specific i
    end
  in
  { correct = failures.count = 0; attempted = ops; failed = failures.count;
    first_failures = List.rev failures.first; metrics; layers }
