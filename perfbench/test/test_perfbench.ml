(* The benchmark's own arithmetic: percentile choice, failure accounting,
   the ladder rule and probe x count attribution. *)

open Perfbench

let feq = Alcotest.float 1e-9

let tail_percentile () =
  let check n expect =
    Alcotest.(check (option (float 0.0)))
      (Printf.sprintf "n=%d" n) expect (Arith.tail_percentile ~n)
  in
  (* At least ten samples must lie beyond the chosen percentile. *)
  check 19 None;
  check 20 (Some 50.0);
  check 99 (Some 50.0);
  check 100 (Some 90.0);
  check 999 (Some 90.0);
  check 1000 (Some 99.0);
  check 9999 (Some 99.0);
  check 10_000 (Some 99.9);
  check 100_000 (Some 99.99)

let nearest_rank () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p50" 50.0 (Arith.percentile a 50.0);
  Alcotest.check feq "p99" 99.0 (Arith.percentile a 99.0);
  Alcotest.check feq "p100" 100.0 (Arith.percentile a 100.0);
  Alcotest.check feq "p0 is the minimum" 1.0 (Arith.percentile a 0.0);
  (* Failures count as missing any limit: an infinite sample is the tail. *)
  let b = Array.append (Array.make 98 1.0) [| infinity; infinity |] in
  Alcotest.(check bool) "p99 of 2% failures" true (Arith.percentile b 99.0 = infinity)

let quartiles () =
  (* Python: statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
     = [2.75, 5.5, 8.25] *)
  let q1, m, q3 = Arith.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check feq "q1" 2.75 q1;
  Alcotest.check feq "median" 5.5 m;
  Alcotest.check feq "q3" 8.25 q3;
  (* statistics.quantiles([3, 1, 2], n=4) = [1.0, 2.0, 3.0] *)
  let q1, m, q3 = Arith.quartiles [ 3.0; 1.0; 2.0 ] in
  Alcotest.check feq "q1 of 3" 1.0 q1;
  Alcotest.check feq "median of 3" 2.0 m;
  Alcotest.check feq "q3 of 3" 3.0 q3;
  Alcotest.check feq "single" 4.0 (Arith.median [ 4.0 ]);
  (* A window that failed outright has an infinite tail; the median of
     the windows must stay finite when it lands on a finite sample. *)
  Alcotest.check feq "median beside infinity" 2.0
    (Arith.median [ 1.0; 2.0; infinity ])

let fail_share () =
  let t = { Arith.offered = 1000; refused = 5; late = 15 } in
  Alcotest.(check int) "failed" 20 (Arith.failed t);
  Alcotest.check feq "share" 0.02 (Arith.fail_share t);
  Alcotest.check feq "clean" 0.0
    (Arith.fail_share { Arith.offered = 10; refused = 0; late = 0 });
  Alcotest.check_raises "nothing offered"
    (Invalid_argument "Arith.fail_share: nothing offered") (fun () ->
      ignore (Arith.fail_share { Arith.offered = 0; refused = 0; late = 0 }))

let rung ?(mid = 10) ?(end_ = 10) rate tail_ms =
  { Arith.rate; achieved = rate -. 1.0; tail_ms; backlog_mid = mid; backlog_end = end_ }

let ladder () =
  let limit_ms = 100.0 in
  Alcotest.(check (option (float 0.0))) "all pass" (Some 3999.0)
    (Arith.max_rate ~limit_ms [ rung 1000.0 20.0; rung 2000.0 30.0; rung 4000.0 90.0 ]);
  Alcotest.(check (option (float 0.0))) "limit is inclusive" (Some 1999.0)
    (Arith.max_rate ~limit_ms [ rung 1000.0 20.0; rung 2000.0 100.0; rung 4000.0 101.0 ]);
  (* The walk stops at the first failing rung, even if a higher one passes. *)
  Alcotest.(check (option (float 0.0))) "stops at first failure" (Some 999.0)
    (Arith.max_rate ~limit_ms [ rung 1000.0 20.0; rung 2000.0 150.0; rung 4000.0 50.0 ]);
  Alcotest.(check (option (float 0.0))) "lowest fails" None
    (Arith.max_rate ~limit_ms [ rung 1000.0 infinity ]);
  (* A growing backlog fails a rung whose latency is fine: more than 50 ms
     of arrivals (100 txs at 2000 tx/s) added between midpoint and end. *)
  Alcotest.(check bool) "backlog within slack" true
    (Arith.rung_ok ~limit_ms (rung ~mid:10 ~end_:110 2000.0 20.0));
  Alcotest.(check bool) "backlog growing" false
    (Arith.rung_ok ~limit_ms (rung ~mid:10 ~end_:111 2000.0 20.0));
  Alcotest.(check bool) "shrinking backlog" true
    (Arith.rung_ok ~limit_ms (rung ~mid:500 ~end_:0 2000.0 20.0))

let attribution () =
  let shares, rest =
    Arith.attribute ~busy_s:2.0
      [
        { Arith.layer = "block"; ns_per_call = 200_000.0; calls = 1000 };
        { layer = "sim"; ns_per_call = 500.0; calls = 1_000_000 };
      ]
  in
  (* 0.2 s of blocks and 0.5 s of events over 2 s busy. *)
  Alcotest.check feq "block" 0.1 (List.assoc "block" shares);
  Alcotest.check feq "sim" 0.25 (List.assoc "sim" shares);
  Alcotest.check feq "unattributed" 0.65 rest;
  let _, over =
    Arith.attribute ~busy_s:1.0
      [ { Arith.layer = "x"; ns_per_call = 2e9; calls = 1 } ]
  in
  Alcotest.check feq "over-explained goes negative" (-1.0) over;
  Alcotest.check_raises "no busy time"
    (Invalid_argument "Arith.attribute: busy time must be positive") (fun () ->
      ignore (Arith.attribute ~busy_s:0.0 []))

let () =
  Alcotest.run "perfbench"
    [
      ( "arith",
        [
          Alcotest.test_case "tail percentile choice" `Quick tail_percentile;
          Alcotest.test_case "nearest-rank percentile" `Quick nearest_rank;
          Alcotest.test_case "quartiles as Python computes them" `Quick quartiles;
          Alcotest.test_case "fail_share accounting" `Quick fail_share;
          Alcotest.test_case "max_rate ladder rule" `Quick ladder;
          Alcotest.test_case "probe x count attribution" `Quick attribution;
        ] );
    ]
