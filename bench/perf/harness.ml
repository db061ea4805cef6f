(* Shared machinery of the perf workloads: the run configuration, the
   closed-loop timed window, latency samples, bench-side spans and the
   per-workload result record. *)

module Obs = Genalg_obs.Obs
module Lru = Genalg_cache.Lru
module Rng = Genalg_synth.Rng

type config = {
  seed : int;
  seconds : float;  (** length of the timed window *)
  scale : float;    (** multiplies data sizes (1.0 = the published sizes) *)
  traced : bool;
  work : string;    (** scratch directory, removed when the run ends *)
  out : string;     (** where trace files go *)
}

(* Degree of parallelism of every engine process. On the 2-vCPU host the
   baseline was measured on, 2 domains ran no faster than 1 and made the
   IQR/median of warehouse-scan's read_p95_ms 0.26 instead of 0.09 (and
   cluster-mixed's 0.30 instead of 0.06): a parallel scan waits for the
   slower vCPU. *)
let engine_jobs = 1

let scaled cfg n = max 1 (int_of_float (Float.round (float_of_int n *. cfg.scale)))

let now = Obs.now_s

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Build the workload's state [setup_reps] times and keep the last build;
   setup_s is the median of the build times. Each earlier build is
   [discard]ed and collected before the next starts, so peak RSS sees one
   build, as a user's process would. *)
let setup_reps = 5

let repeat_setup ?(discard = ignore) build =
  let rec go k times last =
    Option.iter
      (fun v ->
        discard v;
        Gc.compact ())
      last;
    let v, dt = time build in
    if k = 1 then (v, List.rev (dt :: times)) else go (k - 1) (dt :: times) (Some v)
  in
  go setup_reps [] None

(* {1 Failures} *)

type failures = { mutable count : int; mutable first : string list }

let failures () = { count = 0; first = [] }

let fail f msg =
  f.count <- f.count + 1;
  if List.length f.first < 5 then f.first <- msg :: f.first

let check f ok msg = if not ok then fail f (Lazy.force msg)

(* {1 Samples} *)

type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let add s v =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len

(* {1 Timed window}

   A closed loop runs operations until [seconds] of window time have
   passed. Correctness checks that must run mid-window (ETL visibility)
   go through [paused], whose time is not window time. *)

type window = { deadline_s : float; mutable paused_s : float; started : float }

let window cfg = { deadline_s = cfg.seconds; paused_s = 0.; started = now () }

let elapsed w = now () -. w.started -. w.paused_s

let running w = elapsed w < w.deadline_s

let paused w f =
  let v, dt = time f in
  w.paused_s <- w.paused_s +. dt;
  v

(* {1 Operation latencies}

   Each latency is kept with the window time at which its operation
   completed. Throughput is counted per one-second slice of the window
   and reported as the median over slices, so a burst of interference
   from outside the benchmark moves a few slices, not the result. *)

type latencies = { lat : samples; at : samples }

let latencies () = { lat = samples (); at = samples () }

let record l ~at v =
  add l.lat v;
  add l.at at

let values l = to_array l.lat

let merge ls =
  let r = latencies () in
  List.iter (fun l -> for i = 0 to l.lat.len - 1 do record r ~at:l.at.data.(i) l.lat.data.(i) done) ls;
  r

let count_of ls = List.fold_left (fun n l -> n + l.lat.len) 0 ls

(* Operations completed per second: in each whole one-second slice, the
   completions after the slice's first one divided by the time from the
   first to the last; the median over slices. The whole window's rate
   stands in when no slice holds two completions. *)
let slice_rate ~window_s ls =
  let slices = Array.make (max 1 (int_of_float window_s)) [] in
  List.iter
    (fun l ->
      Array.iter
        (fun at ->
          let k = int_of_float at in
          if k >= 0 && k < Array.length slices then slices.(k) <- at :: slices.(k))
        (to_array l.at))
    ls;
  let rates =
    Array.to_list slices
    |> List.filter_map (fun s ->
           match List.sort Float.compare s with
           | first :: (_ :: _ as rest) ->
               let last = List.fold_left Float.max first rest in
               if last > first then Some (float_of_int (List.length rest) /. (last -. first)) else None
           | _ -> None)
  in
  if rates = [] then float_of_int (count_of ls) /. window_s else Stats.median (Array.of_list rates)

(* {1 Bench-side spans (traced runs)}

   One span per operation, with the operation index as trace id; Obs
   memory-sink spans that complete inside an operation become its
   children. Spans are kept in memory and written out at the end. *)

type span = {
  trace : int;
  id : int;
  parent : int option;
  name : string;
  start_s : float;
  dur_s : float;
  mutable self_s : float;
  attrs : (string * string) list;
}

type tracer = {
  mutable ops : span list;  (* newest first *)
  mutable engine : unit -> Obs.span list;
  mutable next_id : int;
}

let tracer () = { ops = []; engine = (fun () -> []); next_id = 0 }

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let record_op t ~trace ~name ~start_s ~dur_s =
  t.ops <-
    { trace; id = fresh_id t; parent = None; name; start_s; dur_s; self_s = dur_s;
      attrs = [] }
    :: t.ops

(* collecting the engine spans detaches the sink, which [Obs.memory_sink]
   names "memory" *)
let attach_engine_spans t =
  let sink, get = Obs.memory_sink () in
  Obs.add_sink sink;
  t.engine <-
    (fun () ->
      Obs.remove_sink "memory";
      get ())

(* Assemble the trace: each op's engine spans (by time containment) are
   nested by Obs depth under the op span; self time is duration minus
   the part covered by direct children. Returns every span, ops first. *)
let assemble t =
  let ops = Array.of_list (List.rev t.ops) in
  Array.sort (fun a b -> Float.compare a.start_s b.start_s) ops;
  let engine =
    List.sort
      (fun (a : Obs.span) (b : Obs.span) -> compare (a.start_s, a.depth) (b.start_s, b.depth))
      (t.engine ())
  in
  let out = ref [] in
  let emit s = out := s :: !out in
  (* walk engine spans in start order alongside the ops; a stack of open
     ancestors (by depth) gives each span its parent *)
  let oi = ref 0 in
  let stack = ref [] in
  List.iter
    (fun (e : Obs.span) ->
      while
        !oi < Array.length ops
        && ops.(!oi).start_s +. ops.(!oi).dur_s < e.Obs.start_s
      do
        incr oi
      done;
      if !oi < Array.length ops then begin
        let op = ops.(!oi) in
        let e_end = e.Obs.start_s +. e.Obs.elapsed_s in
        if e.Obs.start_s >= op.start_s && e_end <= op.start_s +. op.dur_s then begin
          stack :=
            List.filter
              (fun ((s : span), depth) ->
                s.trace = op.trace && depth < e.Obs.depth
                && s.start_s +. s.dur_s >= e_end)
              !stack;
          let parent = match !stack with (s, _) :: _ -> s | [] -> op in
          let s =
            { trace = op.trace; id = fresh_id t; parent = Some parent.id;
              name = e.Obs.span_name; start_s = e.Obs.start_s; dur_s = e.Obs.elapsed_s;
              self_s = e.Obs.elapsed_s; attrs = e.Obs.attrs }
          in
          parent.self_s <- parent.self_s -. s.dur_s;
          stack := (s, e.Obs.depth) :: !stack;
          emit s
        end
      end)
    engine;
  Array.to_list ops @ List.rev !out

let span_json s =
  Json.Obj
    [ ("trace", Json.Num (float_of_int s.trace));
      ("span", Json.Num (float_of_int s.id));
      ("parent", match s.parent with Some p -> Json.Num (float_of_int p) | None -> Json.Null);
      ("name", Json.Str s.name);
      ("start_s", Json.Num s.start_s);
      ("dur_s", Json.Num s.dur_s);
      ("self_s", Json.Num s.self_s);
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.attrs)) ]

let write_trace path spans =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun s -> output_string oc (Json.to_string (span_json s) ^ "\n")) spans)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* peak resident set of this process, in KiB *)
let vm_hwm_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> Option.value (int_of_string_opt kb) ~default:acc
              | [] -> acc)
          | _ -> acc)
        0 (String.split_on_char '\n' text)

(* {1 Result record} *)

type metric = { value : float; unit_ : string; n : int }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  first_failures : string list;
  metrics : (string * metric) list;  (** end-to-end, in print order *)
  layers : (string * metric) list;   (** per-layer, traced runs only *)
}

let m ?(n = 1) unit_ value = { value; unit_; n }

let ms = 1000.
let us = 1e6

(* Latency metrics of one operation class: the median, and each tail
   percentile the samples support. An unsupported tail is left out and
   said so on stderr; a run that must report it then fails. *)
let latency_metrics prefix tails l =
  let lat = values l in
  let n = Array.length lat in
  if n = 0 then []
  else
    (prefix ^ "_p50_ms", m ~n "ms" (Stats.percentile ~p:50. lat *. ms))
    :: List.filter_map
         (fun p ->
           let name = Printf.sprintf "%s_p%g_ms" prefix p in
           match Stats.tail ~p lat with
           | Ok v -> Some (name, m ~n "ms" (v *. ms))
           | Error msg ->
               prerr_endline ("not reported: " ^ name ^ ": " ^ msg);
               None)
         tails

(* The end-to-end metrics every workload reports; [ops] holds every
   operation class of the window. *)
let common_metrics ~setup ~ops ~window_s ~rss_kb ~failed =
  let attempted = count_of ops in
  [ ("setup_s", m ~n:(List.length setup) "s" (Stats.median (Array.of_list setup)));
    ("ops_per_s", m ~n:(count_of ops) "ops/s" (slice_rate ~window_s ops));
    ("peak_rss_mb", m "MiB" (float_of_int rss_kb /. 1024.));
    ("error_ratio", m ~n:attempted "ratio" (ratio failed attempted)) ]

let metric_json (name, x) =
  (name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_); ("n", Json.Num (float_of_int x.n)) ])

let result_json r =
  Json.Obj
    [ ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("failures", Json.Arr (List.map (fun s -> Json.Str s) r.first_failures));
      ("metrics", Json.Obj (List.map metric_json r.metrics));
      ("layers", Json.Obj (List.map metric_json r.layers)) ]

let metrics_of_json j =
  match j with
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
          match Json.member "value" v with
          | Some (Json.Num value) ->
              let unit_ = match Json.member "unit" v with Some (Json.Str u) -> u | _ -> "" in
              let n = match Json.member "n" v with Some (Json.Num n) -> int_of_float n | _ -> 1 in
              Some (k, { value; unit_; n })
          | _ -> None)
        kvs
  | _ -> []

let result_of_json j =
  let num k = match Json.member k j with Some (Json.Num f) -> int_of_float f | _ -> 0 in
  { correct = Json.member "correct" j = Some (Json.Bool true);
    attempted = num "attempted";
    failed = num "failed";
    first_failures =
      (match Json.member "failures" j with
      | Some (Json.Arr l) -> List.filter_map (function Json.Str s -> Some s | _ -> None) l
      | _ -> []);
    metrics = metrics_of_json (Json.member "metrics" j);
    layers = metrics_of_json (Json.member "layers" j) }

(* {1 Inputs} *)

(* Operation classes in exact proportions: every block of [sum counts]
   draws holds each class [count] times, in seeded order. Drawing each
   operation independently would let the mix itself, and so throughput,
   vary from seed to seed. *)
let schedule rng classes =
  let block = Array.of_list (List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) classes) in
  let pos = ref (Array.length block) in
  fun () ->
    if !pos = Array.length block then begin
      Rng.shuffle rng block;
      pos := 0
    end;
    let c = block.(!pos) in
    incr pos;
    c

(* Zipf(1) rank sampler over [n] items: cumulative weights 1/r *)
let zipf n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  fun rng ->
    let u = Rng.float rng *. !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> (try Sys.remove path with Sys_error _ -> ())

let attach db = Genalg_adapter.Adapter.attach db Genalg_core.Builtin.default

let ok_or_fail = function Ok v -> v | Error msg -> failwith msg
