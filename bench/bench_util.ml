(* Shared measurement and table-rendering helpers for the benchmark
   harness. Wall-clock medians for macro experiments; Bechamel handles the
   micro-benchmarks in [main.ml]. *)

module Json = Perf.Json

(* The outcome of a checked experiment: its setup, what it measured, and
   named correctness booleans. [main.ml] prints it as one JSON line and
   exits non-zero when a check is false. *)
type record = {
  id : string;
  config : (string * Json.t) list;
  metrics : (string * Json.t) list;
  checks : (string * bool) list;
}

let json_of_record r =
  Json.Obj
    [
      ("id", Json.Str r.id);
      ("config", Json.Obj r.config);
      ("metrics", Json.Obj r.metrics);
      ("checks", Json.Obj (List.map (fun (name, b) -> (name, Json.Bool b)) r.checks));
    ]

let num f = Json.Num f
let count n = Json.Num (float_of_int n)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Median wall time of [runs] executions (first run warm-up excluded when
   runs > 2). *)
let measure ?(runs = 5) f =
  let samples =
    List.init runs (fun i ->
        let _, dt = time f in
        (i, dt))
  in
  let usable =
    match samples with
    | _ :: rest when runs > 2 -> List.map snd rest
    | all -> List.map snd all
  in
  let sorted = List.sort Float.compare usable in
  List.nth sorted (List.length sorted / 2)

let ms t = t *. 1000.

let fmt_ms t =
  if t >= 1. then Printf.sprintf "%.2f s" t
  else if t >= 1e-3 then Printf.sprintf "%.2f ms" (t *. 1e3)
  else if t >= 1e-6 then Printf.sprintf "%.1f us" (t *. 1e6)
  else Printf.sprintf "%.0f ns" (t *. 1e9)

let fmt_rate ~unit count t =
  if t <= 0. then "-"
  else begin
    let r = float_of_int count /. t in
    if r >= 1e6 then Printf.sprintf "%.1f M%s/s" (r /. 1e6) unit
    else if r >= 1e3 then Printf.sprintf "%.1f k%s/s" (r /. 1e3) unit
    else Printf.sprintf "%.0f %s/s" r unit
  end

(* Render a padded ASCII table: header row then data rows. *)
let print_table ?(indent = "  ") header rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (List.iteri (fun i cell -> if i < ncols then widths.(i) <- max widths.(i) (String.length cell)))
    all;
  let render row =
    let cells =
      List.mapi (fun i cell -> cell ^ String.make (widths.(i) - String.length cell) ' ') row
    in
    indent ^ String.concat "  " cells
  in
  print_endline (render header);
  print_endline
    (indent ^ String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') (Array.sub widths 0 (List.length header)))));
  List.iter (fun r -> print_endline (render r)) rows

let heading id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s  %s\n" id title;
  Printf.printf "================================================================\n"

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n" s) fmt
