(* Unit tests of the perf bench's statistics, comparison rule and JSON
   codec. Expected quartiles are those Python's statistics.quantiles(v,
   n=4) gives. *)

open Perf

let feq = Alcotest.float 1e-12
let arr l = Array.of_list l
let one_to n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  let v = arr [ 7.; 1.; 10.; 3.; 5.; 2.; 9.; 4.; 8.; 6. ] in
  Alcotest.check feq "p50" 5. (Stats.percentile ~p:50. v);
  Alcotest.check feq "p90" 9. (Stats.percentile ~p:90. v);
  Alcotest.check feq "p100" 10. (Stats.percentile ~p:100. v);
  Alcotest.check feq "p1" 1. (Stats.percentile ~p:1. v);
  Alcotest.check feq "p95 of 1..200 is the 190th" 190. (Stats.percentile ~p:95. (one_to 200))

let test_tail_guard () =
  let supported p n = Result.is_ok (Stats.tail ~p (one_to n)) in
  Alcotest.(check bool) "p95 of 199" false (supported 95. 199);
  Alcotest.(check bool) "p95 of 200" true (supported 95. 200);
  Alcotest.(check bool) "p99 of 999" false (supported 99. 999);
  Alcotest.(check bool) "p99 of 1000" true (supported 99. 1000);
  Alcotest.(check bool) "no samples" false (supported 50. 0);
  Alcotest.check feq "value when supported" 990. (Result.get_ok (Stats.tail ~p:99. (one_to 1000)))

let test_quartiles () =
  let check name v (a, b, c) =
    let q1, m, q3 = Stats.quartiles (arr v) in
    Alcotest.check feq (name ^ " q1") a q1;
    Alcotest.check feq (name ^ " median") b m;
    Alcotest.check feq (name ^ " q3") c q3
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "three" [ 3.1; 1.2; 2.5 ] (1.2, 2.5, 3.1);
  check "four" [ 4.; 1.; 3.; 2. ] (1.25, 2.5, 3.75);
  check "one" [ 7. ] (7., 7., 7.);
  Alcotest.check feq "median even" 2.5 (Stats.median (arr [ 1.; 2.; 3.; 4. ]));
  Alcotest.check feq "flat spread" 0. (Stats.spread (arr [ 3.; 3.; 3.; 3. ]));
  Alcotest.check feq "spread 1..10" (5.5 /. 5.5) (Stats.spread (one_to 10))

let verdict = Alcotest.testable (fun f v -> Format.pp_print_string f (Stats.verdict_to_string v)) ( = )

let test_compare () =
  let lower = Stats.Lower and higher = Stats.Higher in
  let parent = arr [ 10.; 10.1; 9.9; 10.; 10.05 ] in
  let is_ok = function Stats.Ok_within_bound _ -> true | _ -> false in
  Alcotest.(check bool) "within bound" true
    (is_ok (Stats.compare_runs ~better:lower ~bound:0.1 ~parent ~change:(arr [ 10.5; 10.4; 10.6; 10.5; 10.5 ])));
  (match Stats.compare_runs ~better:lower ~bound:0.1 ~parent ~change:(arr [ 12.; 12.1; 11.9; 12.; 12. ]) with
  | Stats.Regression w -> Alcotest.check (Alcotest.float 1e-9) "worse by 20%" 0.2 w
  | v -> Alcotest.failf "expected a regression, got %s" (Stats.verdict_to_string v));
  (match Stats.compare_runs ~better:higher ~bound:0.1 ~parent ~change:(arr [ 8.; 8.; 8.; 8.; 8. ]) with
  | Stats.Regression _ -> ()
  | v -> Alcotest.failf "lower throughput must regress, got %s" (Stats.verdict_to_string v));
  let noisy = arr [ 5.; 15.; 10.; 8.; 12. ] in
  (match Stats.compare_runs ~better:lower ~bound:0.1 ~parent:noisy ~change:(arr [ 11.; 9.; 10.; 10.; 10. ]) with
  | Stats.Unresolved _ -> ()
  | v -> Alcotest.failf "wide spread must be unresolved, got %s" (Stats.verdict_to_string v));
  Alcotest.check verdict "better on every run" Stats.Better_every_run
    (Stats.compare_runs ~better:lower ~bound:0.1 ~parent:noisy ~change:(arr [ 1.; 1.1; 1.2 ]))

let test_json () =
  let v =
    Json.Obj
      [ ("a", Json.Arr [ Json.Num 1.; Json.Num 0.30000000000000004; Json.Num (-2.5e-7) ]);
        ("s", Json.Str "q\"uote\\ \n tab\t"); ("t", Json.Bool true); ("n", Json.Null);
        ("o", Json.Obj []) ]
  in
  Alcotest.(check bool) "round trip" true (Json.of_string (Json.to_string v) = Ok v);
  Alcotest.(check bool) "unicode escape" true (Json.of_string {|"é"|} = Ok (Json.Str "\xc3\xa9"));
  List.iter
    (fun bad -> Alcotest.(check bool) bad true (Result.is_error (Json.of_string bad)))
    [ "{"; "[1,]"; "{\"a\" 1}"; "tru"; "1 2"; "\"open" ]

let () =
  Alcotest.run "perf"
    [ ("stats",
        [ Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "tail guard" `Quick test_tail_guard;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "compare rule" `Quick test_compare ]);
      ("json", [ Alcotest.test_case "codec" `Quick test_json ]) ]
