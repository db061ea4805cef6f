(* etl-refresh: the paper's freshness path. Three overlapping sources on
   three Figure-2 cells (Logged x Flat file, Queryable x Relational,
   Non-queryable x Hierarchical) are bootstrapped into the warehouse;
   then each round changes one source (update_stream, 2 % of its
   entries), runs a manual refresh, and asks four biological-language
   queries. After each refresh every inserted accession must be visible
   and every deleted one absent. *)

open Harness
module Db = Genalg_storage.Database
module D = Genalg_storage.Dtype
module Exec = Genalg_sqlx.Exec
module Pipeline = Genalg_etl.Pipeline
module Source = Genalg_etl.Source
module Recordgen = Genalg_synth.Recordgen
module Biolang = Genalg_biolang.Biolang
module Entry = Genalg_formats.Entry

let organisms =
  [| "Synthetica primus"; "Synthetica secundus"; "Modelorganism demo"; "Exemplaria vulgaris";
     "Testcasia minor" |]

let queries rng =
  [ Printf.sprintf "count sequences where gc content above %.3f" (0.45 +. (Rng.float rng *. 0.1));
    Printf.sprintf "find sequences where organism is '%s' and length above %d limit 20"
      (Rng.choose rng organisms) (900 + Rng.int rng 200);
    Printf.sprintf "count genes where exon count at least %d" (1 + Rng.int rng 5);
    (let lo = 900 + Rng.int rng 150 in
     Printf.sprintf "count sequences where length between %d and %d" lo (lo + 50)) ]

let sources ~a ~b ~c =
  [ Source.create ~name:"synthbank" Source.Logged Source.Flat_file a;
    Source.create ~name:"relbank" Source.Queryable Source.Relational b;
    Source.create ~name:"acebank" Source.Non_queryable Source.Hierarchical c ]

let visible db acc =
  match
    Exec.query db ~actor:"bench"
      (Printf.sprintf "SELECT count(*) FROM sequences WHERE accession = '%s'" acc)
  with
  | Ok (Exec.Rows { rows = [ [| D.Int n |] ]; _ }) -> n > 0
  | _ -> false

let run cfg =
  let rng = Rng.make cfg.seed in
  let size = scaled cfg 150 in
  let a, b, _ = Recordgen.overlapping_repositories rng ~size ~overlap:0.4 ~noise_fraction:0.45 () in
  let c = Recordgen.repository rng ~size ~prefix:"ACE" () in
  let setup0 = Layers.snap () in
  let (pl, srcs), setup =
    repeat_setup (fun () ->
        let srcs = sources ~a ~b ~c in
        let pl = ok_or_fail (Pipeline.create ~sources:srcs ()) in
        ignore (ok_or_fail (Pipeline.bootstrap pl));
        (pl, Array.of_list srcs))
  in
  let setup_d = Layers.since setup0 in
  let db = Pipeline.database pl in
  (* every accession any source ever held, so an insert never reuses one
     that is live in another source *)
  let known = Hashtbl.create 1024 in
  Array.iter (fun s -> List.iter (fun (e : Entry.t) -> Hashtbl.replace known e.accession ()) (Source.entries s)) srcs;
  let failures = failures () in
  let refresh_lat = latencies () and read_lat = latencies () in
  let probes = Layers.probes () and tr = tracer () in
  if cfg.traced then attach_engine_spans tr;
  let before = Layers.snap () in
  let w = window cfg in
  let source = schedule rng [ (0, 1); (1, 1); (2, 1) ] in
  let i = ref 0 in
  let op name f =
    let t0 = now () in
    let v = f () in
    let dt = now () -. t0 in
    if cfg.traced then record_op tr ~trace:!i ~name ~start_s:t0 ~dur_s:dt;
    incr i;
    (v, dt)
  in
  while running w do
    let src = srcs.(source ()) in
    (* an insert reusing a known accession is dropped, with every later
       update of that accession in the batch *)
    let dropped = Hashtbl.create 4 in
    let updates =
      snd (Recordgen.update_stream rng (Source.entries src) ~fraction:0.02 ())
      |> List.filter_map (function
           | Recordgen.Insert e ->
               let acc = e.Entry.accession in
               if Hashtbl.mem known acc then (Hashtbl.replace dropped acc (); None)
               else (Hashtbl.replace known acc (); Some (Source.Insert e))
           | Recordgen.Delete acc -> if Hashtbl.mem dropped acc then None else Some (Source.Delete acc)
           | Recordgen.Modify e ->
               if Hashtbl.mem dropped e.Entry.accession then None else Some (Source.Modify e))
    in
    (* net effect per accession: the batch's last update decides *)
    let present = Hashtbl.create 8 in
    List.iter
      (function
        | Source.Insert e | Source.Modify e -> Hashtbl.replace present e.Entry.accession true
        | Source.Delete acc -> Hashtbl.replace present acc false)
      updates;
    Source.apply src updates;
    let report, dt = op "op.refresh" (fun () -> Pipeline.refresh_report pl) in
    record refresh_lat ~at:(elapsed w) dt;
    List.iter
      (fun (name, st) ->
        match st with
        | Pipeline.Polled _ -> ()
        | st -> fail failures (name ^ ": " ^ Pipeline.poll_status_to_string st))
      report.Pipeline.statuses;
    Layers.aside w (fun () ->
        Hashtbl.iter
          (fun acc live ->
            check failures (visible db acc = live)
              (lazy (acc ^ if live then ": inserted but not visible after refresh"
                           else ": deleted but still visible after refresh")))
          present);
    List.iter
      (fun q ->
        let r, dt = op "op.read" (fun () -> Biolang.run db ~actor:"bench" q) in
        record read_lat ~at:(elapsed w) dt;
        match r with
        | Ok (Exec.Rows rs) ->
            if cfg.traced && !i mod 10 = 0 then
              Layers.aside w (fun () ->
                  let compiled, ct = time (fun () -> Biolang.compile q) in
                  Layers.note probes "biolang.compile" ct;
                  (match compiled with
                  | Ok stmt -> ignore (Layers.probe_select probes db (Genalg_sqlx.Ast.stmt_to_string stmt))
                  | Error _ -> ());
                  Layers.probe_codec probes (Layers.rows_reply rs))
        | Ok _ -> fail failures (q ^ ": expected rows")
        | Error msg -> fail failures (q ^ ": " ^ msg))
      (queries rng)
  done;
  let window_s = elapsed w in
  let d = Layers.window_delta before in
  let ops = count_of [ refresh_lat; read_lat ] in
  let metrics =
    common_metrics ~setup ~ops:[ refresh_lat; read_lat ] ~window_s ~rss_kb:(vm_hwm_kb ())
      ~failed:failures.count
    @ latency_metrics "read" [ 95.; 99. ] read_lat
    @ latency_metrics "refresh" [ 95. ] refresh_lat
  in
  let layers =
    if not cfg.traced then []
    else begin
      Layers.probe_storage probes cfg db [ "INSERT INTO sequences VALUES (1)" ];
      let spans = assemble tr in
      write_trace (Filename.concat cfg.out "etl-refresh.trace.jsonl") spans;
      let i =
        { Layers.d; p = probes; ops; reads = count_of [ read_lat ]; writes = 0; window_s;
          op_wall_s = Array.fold_left ( +. ) 0. (Array.append (values refresh_lat) (values read_lat));
          layer_self_s = Layers.layer_self spans }
      in
      Layers.common i @ Layers.specific i
      @ [ ("biolang.compile_us", Layers.probe_mean probes "biolang.compile" "us" us) ]
      @ Layers.bootstrap_phases setup_d
    end
  in
  { correct = failures.count = 0; attempted = ops; failed = failures.count;
    first_failures = List.rev failures.first; metrics; layers }
