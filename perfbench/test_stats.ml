(* Arithmetic of the benchmark: medians, quartiles (checked against
   values from Python's statistics.quantiles), nearest-rank percentiles,
   the tail-percentile rule and span self times. *)

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 3. (Stats.median [ 5.; 1.; 4.; 2.; 3. ]);
  Alcotest.check close "even" 3.75 (Stats.median [ 3.5; 1.25; 9.0; 4.0 ]);
  Alcotest.check close "one" 7. (Stats.median [ 7. ]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.median []))

let test_quartiles () =
  let check name xs (a, b, c) =
    let q1, q2, q3 = Stats.quartiles xs in
    Alcotest.check close (name ^ " q1") a q1;
    Alcotest.check close (name ^ " q2") b q2;
    Alcotest.check close (name ^ " q3") c q3
  in
  check "1..10" (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "four" [ 3.5; 1.25; 9.0; 4.0 ] (1.8125, 3.75, 7.75);
  check "two" [ 2.0; 7.0 ] (0.75, 4.5, 8.25);
  check "five" [ 5.; 1.; 4.; 2.; 3. ] (1.5, 3.0, 4.5);
  Alcotest.check close "iqr share" (5.5 /. 5.5) (Stats.iqr_share (List.init 10 (fun i -> float_of_int (i + 1))))

let test_percentile () =
  let xs = List.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (pair close int)) "p90" (900., 100) (Stats.percentile 90. xs);
  Alcotest.(check (pair close int)) "p99" (990., 10) (Stats.percentile 99. xs);
  Alcotest.(check (pair close int)) "p99.9" (999., 1) (Stats.percentile 99.9 xs);
  Alcotest.(check (pair close int)) "p50 of 3" (2., 1) (Stats.percentile 50. [ 3.; 1.; 2. ]);
  Alcotest.(check (option close)) "tail of 1000" (Some 99.) (Stats.tail_choice xs);
  Alcotest.(check (option close)) "tail of 10000" (Some 99.9)
    (Stats.tail_choice (List.init 10000 float_of_int));
  Alcotest.(check (option close)) "tail of 150" (Some 90.) (Stats.tail_choice (List.init 150 float_of_int));
  Alcotest.(check (option close)) "tail of 50" None (Stats.tail_choice (List.init 50 float_of_int))

let test_self_times () =
  let sp id name start stop parent = { Stats.id; name; start; stop; parent; op = 0 } in
  (* op [0,100] with children parse [10,30] and read [40,90]; read has
     a child [50,60] *)
  let spans =
    [| sp 0 "op" 0 100 (-1); sp 1 "parse" 10 30 0; sp 2 "read" 40 90 0; sp 3 "scan" 50 60 2 |]
  in
  let self = Stats.self_times spans in
  Alcotest.(check (array int)) "self" [| 30; 20; 40; 10 |] self;
  Alcotest.(check (list (pair int int))) "by op" [ (0, 40) ] (Stats.self_by_op spans self "read");
  let two = [| sp 0 "op" 0 10 (-1); { (sp 1 "read" 0 4 0) with op = 0 }; { (sp 2 "op" 20 30 (-1)) with op = 1 };
               { (sp 3 "read" 21 29 2) with op = 1 } |] in
  Alcotest.(check (list (pair int int))) "two ops" [ (0, 4); (1, 8) ]
    (Stats.self_by_op two (Stats.self_times two) "read")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "self times" `Quick test_self_times;
        ] );
    ]
