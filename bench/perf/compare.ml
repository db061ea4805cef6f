(* --compare A.json B.json: for every workload and end-to-end metric
   BENCHMARK.json declares, apply the regression / unresolved rule to
   the runs of record A (the parent) and record B (the change). A
   baseline file compares through its first set of runs. *)

let ( let* ) = Result.bind

(* workload -> metric -> run values *)
let runs_of path =
  let* j = Json.read_file path in
  let j = match Json.member "sets" j with Some (Json.Arr (first :: _)) -> first | _ -> j in
  match Json.member "workloads" j with
  | Some (Json.Obj ws) ->
      Ok
        (List.map
           (fun (w, wj) ->
             let metrics =
               match Json.member "metrics" wj with
               | Some (Json.Obj ms) ->
                   List.filter_map
                     (fun (name, mj) ->
                       match Json.member "values" mj with
                       | Some (Json.Arr vs) ->
                           Some (name, Array.of_list (List.filter_map Json.to_float vs))
                       | _ -> None)
                     ms
               | _ -> []
             in
             (w, metrics))
           ws)
  | _ -> Error (path ^ ": no workloads")

let bounds bench =
  let* j = Json.read_file bench in
  match Json.member "end_to_end" j with
  | Some (Json.Arr l) ->
      Ok
        (List.filter_map
           (fun e ->
             match Json.member "name" e, Json.member "better" e, Json.member "bound" e with
             | Some (Json.Str n), Some (Json.Str b), Some (Json.Num bound) ->
                 Some (n, ((if b = "higher" then Stats.Higher else Stats.Lower), bound))
             | _ -> None)
           l)
  | _ -> Error (bench ^ ": no end_to_end metrics")

let run ~bench a b =
  match
    let* parent = runs_of a in
    let* change = runs_of b in
    let* bounds = bounds bench in
    Ok (parent, change, bounds)
  with
  | Error msg ->
      prerr_endline msg;
      2
  | Ok (parent, change, bounds) ->
      let regressions = ref 0 in
      Printf.printf "%-16s %-16s %12s %12s  %s\n" "workload" "metric" "parent" "change" "verdict";
      List.iter
        (fun (w, pm) ->
          match List.assoc_opt w change with
          | None -> Printf.printf "%-16s (absent from %s)\n" w b
          | Some cm ->
              List.iter
                (fun (name, (better, bound)) ->
                  match List.assoc_opt name pm, List.assoc_opt name cm with
                  | Some p, Some c when Array.length p > 0 && Array.length c > 0 ->
                      let v = Stats.compare_runs ~better ~bound ~parent:p ~change:c in
                      (match v with Stats.Regression _ -> incr regressions | _ -> ());
                      Printf.printf "%-16s %-16s %12.6g %12.6g  %s\n" w name (Stats.median p)
                        (Stats.median c) (Stats.verdict_to_string v)
                  | _ -> Printf.printf "%-16s %-16s (missing)\n" w name)
                bounds)
        parent;
      if !regressions > 0 then 1 else 0
