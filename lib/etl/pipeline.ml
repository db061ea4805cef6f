module Db = Genalg_storage.Database
module Obs = Genalg_obs.Obs
module Fault = Genalg_fault.Fault
module Resilience = Genalg_resilience.Resilience

let c_quarantined = Obs.counter "etl.poll.quarantined"

type t = {
  db : Db.t;
  monitors : (Source.t * Monitor.t) list;
  breakers : (string, Resilience.Breaker.t) Hashtbl.t;
}

let ( let* ) = Result.bind

let create ?signature ~sources () =
  let signature =
    match signature with Some s -> s | None -> Genalg_core.Builtin.create ()
  in
  let db = Db.create () in
  let* () = Loader.init db signature in
  let rec attach acc = function
    | [] -> Ok (List.rev acc)
    | src :: rest ->
        let* m = Monitor.create src in
        attach ((src, m) :: acc) rest
  in
  let* monitors = attach [] sources in
  Ok { db; monitors; breakers = Hashtbl.create 7 }

let breaker_for t name =
  match Hashtbl.find_opt t.breakers name with
  | Some b -> b
  | None ->
      let b = Resilience.Breaker.create () in
      Hashtbl.add t.breakers name b;
      b

let quarantined t =
  Hashtbl.fold
    (fun name b acc ->
      if Resilience.Breaker.state b = Resilience.Breaker.Open then name :: acc
      else acc)
    t.breakers []
  |> List.sort compare

let database t = t.db
let sources t = List.map fst t.monitors

let all_entries source =
  match
    match Source.query_all source with
    | Ok entries -> Ok entries
    | Error _ ->
        (* non-queryable: go through the offline dump *)
        Source.parse_dump (Source.representation source) (Source.dump source)
  with
  | result -> result
  | exception Fault.Injected (_, msg) -> Error msg

let bootstrap t =
  Obs.with_span "etl.bootstrap" @@ fun () ->
  let* sourced =
    List.fold_left
      (fun acc (src, _) ->
        let* acc = acc in
        let* entries =
          Obs.with_span
            ~attrs:[ ("source", Source.name src) ]
            "etl.extract"
            (fun () -> all_entries src)
        in
        Ok (acc @ List.map (fun e -> (Source.name src, e)) entries))
      (Ok []) t.monitors
  in
  let merged =
    Obs.with_span "etl.reconcile" (fun () -> Integrator.reconcile sourced)
  in
  Loader.load_merged t.db merged

type poll_status =
  | Polled of int
  | Quarantined
  | Poll_failed of string

let poll_status_to_string = function
  | Polled n -> Printf.sprintf "polled(%d)" n
  | Quarantined -> "quarantined"
  | Poll_failed msg -> Printf.sprintf "failed(%s)" msg

type refresh_report = {
  stats : Loader.stats;
  deltas : int;
  statuses : (string * poll_status) list;
}

let refresh_report t =
  Obs.with_span "etl.refresh" @@ fun () ->
  let stats = ref Loader.zero_stats in
  let total = ref 0 in
  let statuses =
    List.map
      (fun (src, monitor) ->
        let name = Source.name src in
        let b = breaker_for t name in
        let status =
          if not (Resilience.Breaker.allow b) then begin
            (* quarantined: a source that kept failing is not polled
               again until its cooldown lets a probe through *)
            Obs.add c_quarantined 1;
            Quarantined
          end
          else
            match
              match Monitor.poll monitor with
              | Error _ as e -> e
              | Ok deltas -> (
                  match Loader.incremental t.db ~source:name deltas with
                  | Ok s -> Ok (s, List.length deltas)
                  | Error _ as e -> e)
            with
            | Ok (s, n) ->
                Resilience.Breaker.success b;
                stats := Loader.add_stats !stats s;
                total := !total + n;
                Polled n
            | Error msg ->
                Resilience.Breaker.failure b;
                Poll_failed msg
            | exception Fault.Injected (_, msg) ->
                Resilience.Breaker.failure b;
                Poll_failed msg
            | exception (Fault.Crash_point _ as e) -> raise e
            | exception exn ->
                Resilience.Breaker.failure b;
                Poll_failed (Printexc.to_string exn)
        in
        (name, status))
      t.monitors
  in
  { stats = !stats; deltas = !total; statuses }

let refresh t =
  let r = refresh_report t in
  Ok (r.stats, r.deltas)
