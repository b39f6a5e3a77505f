(* Percentiles, span self-time arithmetic and compare verdicts. *)

open Layerbench

let close = Alcotest.float 1e-9
let seq n = List.init n (fun i -> float_of_int (i + 1))

(* values computed with Python's statistics.quantiles(xs, n=4) *)
let test_quartiles () =
  let check xs (a, b, c) =
    let q1, q2, q3 = Quant.quartiles xs in
    Alcotest.check close "q1" a q1;
    Alcotest.check close "q2" b q2;
    Alcotest.check close "q3" c q3
  in
  check (seq 10) (2.75, 5.5, 8.25);
  check [ 3.0; 1.0; 2.0; 4.0 ] (1.25, 2.5, 3.75);
  check [ 1.0; 2.0 ] (0.75, 1.5, 2.25);
  Alcotest.check close "median even" 2.5 (Quant.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5) (Quant.spread (seq 10))

let test_percentiles () =
  Alcotest.check close "p90 of 1..100" 90.0 (Quant.percentile (seq 100) 90.0);
  Alcotest.check close "p50 of 1..100" 50.0 (Quant.percentile (seq 100) 50.0);
  Alcotest.check close "p90 of 1..10" 9.0 (Quant.percentile (seq 10) 90.0);
  Alcotest.(check int) "ten beyond p90 of 100" 10 (Quant.beyond 100 90.0);
  Alcotest.(check int) "nine beyond p90 of 99" 9 (Quant.beyond 99 90.0);
  let tail n = Quant.tail_percentile n in
  Alcotest.(check (option (float 0.0))) "19 samples: none" None (tail 19);
  Alcotest.(check (option (float 0.0))) "20 samples: p50" (Some 50.0) (tail 20);
  Alcotest.(check (option (float 0.0))) "99 samples: p50" (Some 50.0) (tail 99);
  Alcotest.(check (option (float 0.0))) "100 samples: p90" (Some 90.0) (tail 100);
  Alcotest.(check (option (float 0.0))) "1000 samples: p99" (Some 99.0) (tail 1000);
  Alcotest.(check (option (float 0.0))) "10000 samples: p99.9" (Some 99.9) (tail 10000);
  Alcotest.(check (list (float 0.0))) "best of rounds" [ 2.0; 1.0; 5.0 ]
    (Quant.best_of [ [ 3.0; 1.0 ]; [ 2.0; 4.0; 5.0 ] ])

let span ?(repeat = false) id parent name t0 t1 =
  { Trace.id; parent; name; run = 1; t0; t1; repeat; clock = false }

let test_self_times () =
  (* root [0,10] with children [1,3] and [2,6] (overlapping: union 5) and
     a grandchild [4,5] inside the second child *)
  let spans =
    [ span 0 (-1) "root" 0.0 10.0; span 1 0 "a" 1.0 3.0; span 2 0 "b" 2.0 6.0; span 3 2 "c" 4.0 5.0 ]
  in
  let self = Trace.self_times spans in
  Alcotest.check close "root" 5.0 (List.assoc 0 self);
  Alcotest.check close "a" 2.0 (List.assoc 1 self);
  Alcotest.check close "b" 3.0 (List.assoc 2 self);
  Alcotest.check close "c" 1.0 (List.assoc 3 self);
  (* self times of a tree with disjoint children add up to the root *)
  let disjoint = [ span 0 (-1) "root" 0.0 10.0; span 1 0 "a" 1.0 3.0; span 2 0 "a" 4.0 9.0; span 3 2 "b" 5.0 6.0 ] in
  let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 (Trace.self_times disjoint) in
  Alcotest.check close "sum of self = wall" 10.0 sum;
  Alcotest.(check (list (triple string (float 1e-9) (float 1e-9))))
    "by name" [ ("a", 7.0, 6.0); ("b", 1.0, 1.0); ("root", 10.0, 3.0) ] (Trace.by_name disjoint);
  (* a child sticking out of its parent only covers the overlap *)
  let clipped = [ span 0 (-1) "root" 0.0 2.0; span 1 0 "a" 1.0 5.0 ] in
  Alcotest.check close "clipped" 1.0 (List.assoc 0 (Trace.self_times clipped))

let test_canonical () =
  let tree steps =
    span 0 (-1) "serve" 0.0 100.0
    :: List.init steps (fun i -> span ~repeat:true (i + 1) 0 "step" (float_of_int i) (float_of_int i +. 0.5))
    @ [ span (steps + 1) 0 "hits" 50.0 51.0 ]
  in
  Alcotest.(check string) "timing-dependent repeats collapse" (Trace.canonical (tree 3)) (Trace.canonical (tree 5));
  Alcotest.(check string) "shape" "serve(step+,hits)" (Trace.canonical (tree 2));
  let plain = [ span 0 (-1) "r" 0.0 1.0; span 1 0 "x" 0.0 0.1; span 2 0 "x" 0.2 0.3 ] in
  Alcotest.(check string) "plain siblings keep their count" "r(x,x)" (Trace.canonical plain)

let spec ?(higher = true) ?(bound = 0.1) name = { Verdict.name; unit_ = "1/s"; higher_better = higher; bound }

let runs values = List.mapi (fun i v -> (i, v)) values

let verdict ?higher ?bound old_ new_ =
  Verdict.verdict_to_string (Verdict.judge (spec ?higher ?bound "m") ~old_runs:(runs old_) ~new_runs:(runs new_)).Verdict.verdict

let test_verdicts () =
  let base = [ 100.0; 101.0; 99.0; 100.5; 99.5; 100.2; 99.8; 100.1; 99.9; 100.3 ] in
  let str = Alcotest.string in
  Alcotest.check str "same runs" "within-bound" (verdict base base);
  Alcotest.check str "10% faster, every pair" "gain" (verdict base (List.map (fun v -> v *. 1.1) base));
  Alcotest.check str "lower is better" "gain" (verdict ~higher:false base (List.map (fun v -> v *. 0.9) base));
  Alcotest.check str "20% slower" "REGRESSION" (verdict base (List.map (fun v -> v *. 0.8) base));
  Alcotest.check str "5% slower, bound 10%" "within-bound" (verdict base (List.map (fun v -> v *. 0.95) base));
  (* a gain needs ten pairs *)
  let five = [ 100.0; 101.0; 99.0; 100.5; 99.5 ] in
  Alcotest.check str "five pairs" "within-bound" (verdict five (List.map (fun v -> v *. 1.1) five));
  (* wins 8 of 10: no gain *)
  let mixed = List.mapi (fun i v -> if i < 2 then v *. 0.99 else v *. 1.05) base in
  Alcotest.check str "8/10 wins" "within-bound" (verdict base mixed);
  (* spread wider than the bound *)
  let noisy = [ 60.0; 140.0; 80.0; 120.0; 100.0; 70.0; 130.0; 90.0; 110.0; 100.0 ] in
  Alcotest.check str "noisy" "unresolved" (verdict noisy noisy);
  Alcotest.check str "noisy but every run better" "better-every-run"
    (verdict noisy (List.map (fun v -> v +. 100.0) noisy))

let test_compare_rows () =
  let r workload seed v =
    { Verdict.workload; seed; correct = true; attempted = 1; failed = 0; metrics = [ ("m", v) ] }
  in
  let old_ = [ r "b" 1 1.0; r "a" 1 1.0; r "a" 2 1.0 ] in
  let new_ = [ r "a" 2 1.0; r "a" 1 1.0 ] in
  let rows = Verdict.compare [ spec "m"; spec "absent" ] ~old_ ~new_ in
  Alcotest.(check (list (pair string string)))
    "one row per workload and metric present on both sides" [ ("a", "m") ]
    (List.map (fun (x : Verdict.row) -> (x.Verdict.r_workload, x.Verdict.r_metric)) rows);
  let j = Verdict.result_to_json (r "a" 3 2.5) ~units:[ ("m", "1/s") ] in
  Alcotest.(check bool) "result round-trips" true
    (Verdict.result_of_json j = Some (r "a" 3 2.5))

let () =
  Alcotest.run "layerbench"
    [
      ( "quant",
        [ Alcotest.test_case "quartiles" `Quick test_quartiles; Alcotest.test_case "percentiles" `Quick test_percentiles ] );
      ( "trace",
        [ Alcotest.test_case "self times" `Quick test_self_times; Alcotest.test_case "canonical tree" `Quick test_canonical ] );
      ( "verdict",
        [ Alcotest.test_case "verdicts" `Quick test_verdicts; Alcotest.test_case "compare rows" `Quick test_compare_rows ] );
    ]
