(* Smoke test of the perf bench: all four workloads at 1/100 scale with
   half-second windows, traced. Asserts that no operation failed, that
   every metric BENCHMARK.json declares is in the record, and that each
   trace file parses.

   Usage: test_smoke.exe MAIN_EXE BENCHMARK_JSON *)

open Perf

let main_exe = Sys.argv.(1)
let bench = Sys.argv.(2)
let out = "smoke-out"
let workloads = [ "serve-oltp"; "warehouse-scan"; "cluster-mixed"; "etl-refresh" ]

let json_exn = function Ok j -> j | Error msg -> Alcotest.fail msg

let names key =
  match Json.member key (json_exn (Json.read_file bench)) with
  | Some (Json.Arr l) ->
      List.filter_map (fun e -> match Json.member "name" e with Some (Json.Str s) -> Some s | _ -> None) l
  | _ -> Alcotest.failf "%s: no %s list" bench key

let last_line = ref ""

let run_bench () =
  let args =
    [ main_exe; "--seed"; "20030105"; "--seconds"; "0.5"; "--scale"; "0.01"; "--trace"; "--out"; out;
      "--bench"; bench ]
    @ List.concat_map (fun w -> [ "--workload"; w ]) workloads
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process main_exe (Array.of_list args) Unix.stdin out_w out_w in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let text = In_channel.input_all ic in
  In_channel.close ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "bench exited with an error:\n%s" text);
  last_line := List.hd (List.rev (List.filter (( <> ) "") (String.split_on_char '\n' text)))

let record () = json_exn (Json.read_file (Filename.concat out "record.json"))

let workload w =
  match Json.member "workloads" (record ()) with
  | Some ws -> (match Json.member w ws with Some j -> j | None -> Alcotest.failf "%s missing" w)
  | None -> Alcotest.fail "record has no workloads"

let test_result_line () =
  let j = json_exn (Json.of_string !last_line) in
  (match j with
  | Json.Obj kvs ->
      Alcotest.(check (list string)) "keys" [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst kvs)
  | _ -> Alcotest.fail "last line is not an object");
  Alcotest.(check bool) "correct" true (Json.member "correct" j = Some (Json.Bool true))

let test_no_errors w () =
  match Json.member "runs" (workload w) with
  | Some (Json.Arr runs) ->
      List.iter
        (fun r ->
          let er = Option.bind (Json.member "metrics" r) (Json.member "error_ratio") in
          Alcotest.(check (option (float 0.))) "error_ratio" (Some 0.)
            (Option.bind (Option.bind er (Json.member "value")) Json.to_float))
        runs
  | _ -> Alcotest.fail "no runs"

let test_declared w () =
  let has key names =
    match Json.member key (workload w) with
    | Some (Json.Obj kvs) ->
        List.iter (fun n -> Alcotest.(check bool) (key ^ " has " ^ n) true (List.mem_assoc n kvs)) names
    | _ -> Alcotest.failf "no %s" key
  in
  has "metrics" (names "end_to_end");
  has "layers" (names "per_layer")

let test_trace w () =
  let path = Filename.concat out (w ^ ".trace.jsonl") in
  let lines = List.filter (( <> ) "") (In_channel.with_open_text path In_channel.input_lines) in
  Alcotest.(check bool) "has spans" true (lines <> []);
  List.iter
    (fun l ->
      let j = json_exn (Json.of_string l) in
      List.iter
        (fun k -> Alcotest.(check bool) (k ^ " present") true (Json.member k j <> None))
        [ "trace"; "span"; "parent"; "name"; "start_s"; "dur_s"; "self_s" ])
    lines

let () =
  Fun.protect ~finally:(fun () -> Harness.rm_rf out) @@ fun () ->
  run_bench ();
  Alcotest.run ~and_exit:false ~argv:[| Sys.argv.(0) |] "perf-smoke"
    [ ("result", [ Alcotest.test_case "last line" `Quick test_result_line ]);
      ("error_ratio", List.map (fun w -> Alcotest.test_case w `Quick (test_no_errors w)) workloads);
      ("declared metrics", List.map (fun w -> Alcotest.test_case w `Quick (test_declared w)) workloads);
      ("trace jsonl", List.map (fun w -> Alcotest.test_case w `Quick (test_trace w)) workloads) ]
