(* The perf bench: one command runs closed-loop workloads against the
   engine, each in a fresh child process, prints every end-to-end metric
   with its unit and sample count, checks the outputs, and writes one
   JSON record. With --trace a second, separate run per workload yields
   the per-layer metrics and a span trace.

     dune exec bench/perf/main.exe -- --seed 20030105 [--workload NAME]...
       [--seconds S] [--trace [0|1]] [--repeat N] [--out DIR]
     dune exec bench/perf/main.exe -- --compare A.json B.json

   The last line of standard output is one JSON object: correct,
   attempted, failed, and the metrics BENCHMARK.json declares —
   end-to-end ones, or per-layer ones under --trace. See README.md. *)

open Perf

let workloads =
  [ ("serve-oltp", Serve_oltp.run); ("warehouse-scan", Warehouse_scan.run);
    ("cluster-mixed", Cluster_mixed.run); ("etl-refresh", Etl_refresh.run) ]

type opts = {
  mutable names : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable repeat : int;
  mutable scale : float;
  mutable out : string;
  mutable bench : string;
  mutable compare : (string * string) option;
  mutable child : string option;  (* internal: run one workload here *)
  mutable result : string;        (* internal: where the child writes *)
  mutable traced : bool;          (* internal: the child traces *)
  mutable work : string;          (* internal: the child's scratch dir *)
  mutable serve_child : (string * string * string) option;
      (* internal: serve-oltp's server process (db, socket, stats) *)
}

let usage () =
  prerr_endline
    "usage: main.exe [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]\n\
    \                [--repeat N] [--scale F] [--out DIR] [--bench BENCHMARK.json]\n\
    \       main.exe --compare A.json B.json [--bench BENCHMARK.json]";
  exit 2

let parse argv =
  let o =
    { names = []; seed = 20030105; seconds = 15.; trace = false; repeat = 1; scale = 1.;
      out = Filename.concat "bench" (Filename.concat "perf" "out"); bench = "BENCHMARK.json";
      compare = None; child = None; result = ""; traced = false; work = "";
      serve_child = None }
  in
  let num conv what v = match conv v with Some x -> x | None -> prerr_endline ("bad " ^ what ^ ": " ^ v); usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        if not (List.mem_assoc w workloads) then begin
          prerr_endline ("unknown workload " ^ w ^ "; known: " ^ String.concat ", " (List.map fst workloads));
          exit 2
        end;
        o.names <- o.names @ [ w ];
        go rest
    | "--seed" :: v :: rest -> o.seed <- num int_of_string_opt "seed" v; go rest
    | "--seconds" :: v :: rest -> o.seconds <- num float_of_string_opt "seconds" v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> o.trace <- v = "1"; go rest
    | "--trace" :: rest -> o.trace <- true; go rest
    | "--repeat" :: v :: rest -> o.repeat <- max 1 (num int_of_string_opt "repeat" v); go rest
    | "--scale" :: v :: rest -> o.scale <- num float_of_string_opt "scale" v; go rest
    | "--out" :: v :: rest -> o.out <- v; go rest
    | "--bench" :: v :: rest -> o.bench <- v; go rest
    | "--compare" :: a :: b :: rest -> o.compare <- Some (a, b); go rest
    | "--child" :: w :: rest -> o.child <- Some w; go rest
    | "--result" :: v :: rest -> o.result <- v; go rest
    | "--work" :: v :: rest -> o.work <- v; go rest
    | "--traced" :: rest -> o.traced <- true; go rest
    | "--serve-child" :: db :: sock :: stats :: rest -> o.serve_child <- Some (db, sock, stats); go rest
    | a :: _ -> prerr_endline ("unexpected argument " ^ a); usage ()
  in
  go (List.tl (Array.to_list argv));
  if o.names = [] then o.names <- List.map fst workloads;
  o

(* {1 Child: one workload in this process} *)

let run_child o name =
  Genalg_par.Par.set_jobs Harness.engine_jobs;
  let cfg =
    { Harness.seed = o.seed; seconds = o.seconds; scale = o.scale; traced = o.traced;
      work = o.work; out = o.out }
  in
  if o.traced then Genalg_obs.Obs.set_enabled true;
  let r = (List.assoc name workloads) cfg in
  Out_channel.with_open_bin o.result (fun oc ->
      output_string oc (Json.to_string (Harness.result_json r)));
  Genalg_par.Par.shutdown ()

(* {1 Parent} *)

(* the workload child running now: told to stop, this process kills and
   reaps it, then unwinds so its scratch directory is removed *)
let current = ref None

let stop_on signal =
  Sys.set_signal signal
    (Sys.Signal_handle
       (fun _ ->
         Option.iter
           (fun pid ->
             try
               Unix.kill pid Sys.sigkill;
               ignore (Unix.waitpid [] pid)
             with Unix.Unix_error _ -> ())
           !current;
         failwith "stopped by a signal"))

let spawn_child o ~work ~name ~traced ~k =
  let dir = Filename.concat work (Printf.sprintf "%s-%d" name k) in
  Unix.mkdir dir 0o700;
  let result = Filename.concat dir "result.json" in
  let args =
    [ Sys.executable_name; "--child"; name; "--seed"; string_of_int o.seed;
      "--seconds"; Printf.sprintf "%.17g" o.seconds; "--scale"; Printf.sprintf "%.17g" o.scale;
      "--out"; o.out; "--work"; dir; "--result"; result ]
    @ if traced then [ "--traced" ] else []
  in
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stderr Unix.stderr in
  current := Some pid;
  let _, status = Unix.waitpid [] pid in
  current := None;
  match status, Json.read_file result with
  | Unix.WEXITED 0, Ok j -> Ok (Harness.result_of_json j)
  | Unix.WEXITED 0, Error e -> Error (name ^ ": unreadable result: " ^ e)
  | (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c), _ ->
      Error (Printf.sprintf "%s: child process failed (status %d)" name c)

type outcome = {
  name : string;
  runs : Harness.result list;     (* untraced *)
  traced : Harness.result option;
}

let summary unit_ values =
  let q1, med, q3 = Stats.quartiles values in
  Json.Obj
    [ ("unit", Json.Str unit_); ("median", Json.Num med); ("q1", Json.Num q1); ("q3", Json.Num q3);
      ("n_runs", Json.Num (float_of_int (Array.length values)));
      ("values", Json.Arr (Array.to_list (Array.map (fun v -> Json.Num v) values))) ]

(* a metric's values across runs, in run order *)
let values_of runs name =
  Array.of_list
    (List.filter_map
       (fun (r : Harness.result) -> Option.map (fun (x : Harness.metric) -> x.Harness.value) (List.assoc_opt name r.Harness.metrics))
       runs)

let metric_names runs =
  List.sort_uniq compare
    (List.concat_map (fun (r : Harness.result) -> List.map fst r.Harness.metrics) runs)

(* the metric [name] as the first run that has it reported it; [name]
   comes from [metric_names runs] *)
let first_metric runs name =
  Option.get (List.find_map (fun (r : Harness.result) -> List.assoc_opt name r.Harness.metrics) runs)

(* the traced run's per-layer metrics plus the tracing overhead, which
   needs the untraced runs' throughput *)
let layer_metrics oc =
  match oc.traced with
  | None -> []
  | Some t ->
      let overhead =
        match values_of [ t ] "ops_per_s", values_of oc.runs "ops_per_s" with
        | [| traced |], untraced when untraced <> [||] ->
            [ ("trace.overhead_share", Harness.m "ratio" (1. -. (traced /. Stats.median untraced))) ]
        | _ -> []
      in
      t.Harness.layers @ overhead

let host o =
  let fs =
    let dir = try Unix.realpath o.out with Unix.Unix_error _ -> o.out in
    match In_channel.with_open_text "/proc/mounts" In_channel.input_all with
    | exception Sys_error _ -> "unknown"
    | text ->
        List.fold_left
          (fun (best, len) line ->
            match String.split_on_char ' ' line with
            | _ :: mnt :: ty :: _
              when String.length mnt > len
                   && (mnt = "/" || dir = mnt || String.starts_with ~prefix:(mnt ^ "/") dir) ->
                (ty, String.length mnt)
            | _ -> (best, len))
          ("unknown", -1) (String.split_on_char '\n' text)
        |> fst
  in
  Json.Obj
    [ ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version); ("work_fs", Json.Str fs) ]

let record o outcomes =
  Json.Obj
    [ ("seed", Json.Num (float_of_int o.seed)); ("seconds", Json.Num o.seconds);
      ("scale", Json.Num o.scale); ("host", host o);
      ("workloads",
        Json.Obj
          (List.map
             (fun oc ->
               ( oc.name,
                 Json.Obj
                   [ ("correct", Json.Bool (List.for_all (fun (r : Harness.result) -> r.Harness.correct) oc.runs));
                     ("runs", Json.Arr (List.map Harness.result_json oc.runs));
                     ("metrics",
                       Json.Obj
                         (List.map
                            (fun name ->
                              (name, summary (first_metric oc.runs name).Harness.unit_ (values_of oc.runs name)))
                            (metric_names oc.runs)));
                     ("layers", Json.Obj (List.map Harness.metric_json (layer_metrics oc))) ] ))
             outcomes)) ]

(* names and order of the metrics BENCHMARK.json declares, if readable *)
let declared o key =
  match Json.read_file o.bench with
  | Error _ -> None
  | Ok j -> (
      match Json.member key j with
      | Some (Json.Arr l) ->
          Some (List.filter_map (fun e -> match Json.member "name" e with Some (Json.Str s) -> Some s | _ -> None) l)
      | _ -> None)

let print_metric name (x : Harness.metric) =
  Printf.printf "  %-38s %14.6g %-6s n=%d\n" name x.Harness.value x.Harness.unit_ x.Harness.n

let run o =
  let work = Filename.concat o.out (Printf.sprintf "work-%d" (Unix.getpid ())) in
  (try Unix.mkdir o.out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir work 0o700;
  let outcomes =
    Fun.protect ~finally:(fun () -> Harness.rm_rf work) @@ fun () ->
    List.map
      (fun name ->
        let get = function Ok v -> v | Error msg -> failwith msg in
        let runs = List.init o.repeat (fun k -> get (spawn_child o ~work ~name ~traced:false ~k)) in
        let traced = if o.trace then Some (get (spawn_child o ~work ~name ~traced:true ~k:o.repeat)) else None in
        { name; runs; traced })
      o.names
  in
  let rec_path = Filename.concat o.out "record.json" in
  Out_channel.with_open_bin rec_path (fun oc -> output_string oc (Json.to_string (record o outcomes) ^ "\n"));
  (* per workload, the metric values reported: medians across repeats *)
  let reported oc =
    if o.trace then layer_metrics oc
    else
      List.map
        (fun name ->
          let x = first_metric oc.runs name in
          (name, { x with Harness.value = Stats.median (values_of oc.runs name) }))
        (metric_names oc.runs)
  in
  List.iter
    (fun oc ->
      Printf.printf "%s  (seed %d, %gs window, %d run%s%s)\n" oc.name o.seed o.seconds o.repeat
        (if o.repeat = 1 then "" else "s, medians")
        (if o.trace then ", traced" else "");
      List.iter (fun (r : Harness.result) -> List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) r.Harness.first_failures) oc.runs;
      List.iter (fun (k, x) -> print_metric k x) (reported oc))
    outcomes;
  Printf.printf "record: %s\n" rec_path;
  let all_runs = List.concat_map (fun oc -> oc.runs @ Option.to_list oc.traced) outcomes in
  let attempted = List.fold_left (fun a (r : Harness.result) -> a + r.Harness.attempted) 0 all_runs in
  let failed = List.fold_left (fun a (r : Harness.result) -> a + r.Harness.failed) 0 all_runs in
  let correct = List.for_all (fun (r : Harness.result) -> r.Harness.correct) all_runs in
  let declared = declared o (if o.trace then "per_layer" else "end_to_end") in
  let pick oc =
    let ms = reported oc in
    match declared with
    | None -> ms
    | Some names ->
        List.map
          (fun n ->
            match List.assoc_opt n ms with
            | Some x -> (n, x)
            | None ->
                Printf.eprintf "%s: declared metric %s was not measured\n" oc.name n;
                exit 1)
          names
  in
  let metrics =
    match outcomes with
    | [ oc ] -> pick oc
    | _ -> List.concat_map (fun oc -> List.map (fun (k, x) -> (oc.name ^ "/" ^ k, x)) (pick oc)) outcomes
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct); ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics",
              Json.Obj
                (List.map
                   (fun (k, (x : Harness.metric)) ->
                     (k, Json.Obj [ ("value", Json.Num x.Harness.value); ("unit", Json.Str x.Harness.unit_) ]))
                   metrics)) ]));
  if not correct then exit 1

let () =
  let o = parse Sys.argv in
  match o.serve_child, o.child, o.compare with
  | Some (db_path, socket, stats), _, _ -> Serve_oltp.server_main ~db_path ~socket ~stats ~traced:o.traced
  | None, Some name, _ -> run_child o name
  | None, None, Some (a, b) -> exit (Compare.run ~bench:o.bench a b)
  | None, None, None -> (
      List.iter stop_on [ Sys.sigterm; Sys.sigint ];
      try run o with Failure msg -> prerr_endline msg; exit 1)
