module Stats = Bamboo_util.Stats

let feed xs =
  let t = Stats.create () in
  List.iter (Stats.add t) xs;
  t

let test_empty () =
  let t = Stats.create () in
  Alcotest.(check int) "count" 0 (Stats.count t);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Stats.mean t);
  Alcotest.(check (float 0.0)) "stddev" 0.0 (Stats.stddev t);
  Alcotest.(check (float 0.0)) "percentile" 0.0 (Stats.percentile t 50.0)

let test_basic_moments () =
  let t = feed [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean t);
  Alcotest.(check (float 1e-9)) "total" 40.0 (Stats.total t);
  (* Sample variance with n-1 denominator: 32/7. *)
  Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0) (Stats.variance t);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.min_value t);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.max_value t)

let test_percentiles () =
  let t = feed (List.init 101 float_of_int) in
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Stats.percentile t 0.0);
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile t 50.0);
  Alcotest.(check (float 1e-9)) "p95" 95.0 (Stats.percentile t 95.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile t 100.0);
  Alcotest.(check (float 1e-9)) "median" 50.0 (Stats.median t)

let test_percentile_interpolation () =
  let t = feed [ 10.0; 20.0 ] in
  Alcotest.(check (float 1e-9)) "p50 interpolates" 15.0 (Stats.percentile t 50.0);
  Alcotest.(check (float 1e-9)) "p25" 12.5 (Stats.percentile t 25.0)

let test_percentile_after_more_adds () =
  (* Adding after a percentile query must re-sort correctly. *)
  let t = feed [ 3.0; 1.0 ] in
  ignore (Stats.median t);
  Stats.add t 2.0;
  Alcotest.(check (float 1e-9)) "median" 2.0 (Stats.median t)

let test_merge () =
  let a = feed [ 1.0; 2.0 ] and b = feed [ 3.0; 4.0 ] in
  let m = Stats.merge a b in
  Alcotest.(check int) "count" 4 (Stats.count m);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean m)

let test_single_sample () =
  let t = feed [ 42.0 ] in
  Alcotest.(check (float 1e-9)) "mean" 42.0 (Stats.mean t);
  Alcotest.(check (float 1e-9)) "variance" 0.0 (Stats.variance t);
  Alcotest.(check (float 1e-9)) "median" 42.0 (Stats.median t)

let test_list_helpers () =
  Alcotest.(check (float 1e-9)) "mean_of" 2.0 (Stats.mean_of [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean_of empty" 0.0 (Stats.mean_of []);
  Alcotest.(check (float 1e-9)) "stddev_of" 1.0 (Stats.stddev_of [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev_of single" 0.0 (Stats.stddev_of [ 5.0 ])

let test_invalid_percentile () =
  let t = feed [ 1.0 ] in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile t 101.0))

(* Reference percentile: a copy sorted with [Array.sort Float.compare],
   then the same closest-rank interpolation as [Stats.percentile]. *)
let reference_percentile xs p =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let len = Array.length a in
  let rank = p /. 100.0 *. float_of_int (len - 1) in
  let lo = int_of_float rank in
  let hi = min (len - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)

let test_percentiles_match_reference_sort () =
  let rng = Random.State.make [| 12 |] in
  let inputs len =
    let random = Array.init len (fun _ -> Random.State.float rng 1000.0) in
    let sorted = Array.copy random in
    Array.sort Float.compare sorted;
    [
      ("random", random);
      ( "duplicates",
        Array.init len (fun _ -> float_of_int (Random.State.int rng 4)) );
      ("sorted", sorted);
      ("reversed", Array.of_list (List.rev (Array.to_list sorted)));
    ]
  in
  List.iter
    (fun len ->
      List.iter
        (fun (kind, xs) ->
          let t = Stats.create () in
          Array.iter (Stats.add t) xs;
          List.iter
            (fun p ->
              let name = Printf.sprintf "%s, %d samples, p%g" kind len p in
              Alcotest.(check int64) name
                (Int64.bits_of_float (reference_percentile xs p))
                (Int64.bits_of_float (Stats.percentile t p)))
            [ 0.0; 50.0; 95.0; 99.0; 100.0 ])
        (inputs len))
    [ 1; 2; 3; 64; 65; 1000; 4097 ]

(* [Latency] keeps running means only; each must equal, bit for bit, the
   mean of a [Stats] accumulator fed the same samples. *)
let test_latency_means_match_stats () =
  let module Latency = Bamboo_obs.Latency in
  let rng = Random.State.make [| 7 |] in
  let lat = Latency.create () in
  let refs = Array.init 7 (fun _ -> Stats.create ()) in
  for _ = 1 to 5000 do
    let x = Array.init 7 (fun _ -> Random.State.float rng 0.05) in
    Array.iteri (fun i v -> Stats.add refs.(i) v) x;
    Latency.record lat
      {
        client_wire = x.(0);
        cpu_queue = x.(1);
        cpu_service = x.(2);
        mempool_wait = x.(3);
        nic_serialization = x.(4);
        consensus_wait = x.(5);
      }
      ~total:x.(6)
  done;
  let s = Latency.summarize lat in
  Alcotest.(check int) "samples" 5000 s.samples;
  List.iteri
    (fun i (name, v) ->
      Alcotest.(check int64) name
        (Int64.bits_of_float (Stats.mean refs.(i)))
        (Int64.bits_of_float v))
    [
      ("client_wire", s.client_wire);
      ("cpu_queue", s.cpu_queue);
      ("cpu_service", s.cpu_service);
      ("mempool_wait", s.mempool_wait);
      ("nic_serialization", s.nic_serialization);
      ("consensus_wait", s.consensus_wait);
      ("total", s.total);
    ]

let welford_matches_naive =
  let open QCheck in
  let gen = Gen.list_size (Gen.int_range 2 50) (Gen.float_range (-100.) 100.) in
  Test.make ~name:"streaming variance matches naive computation" ~count:300
    (make ~print:(fun xs -> string_of_int (List.length xs)) gen)
    (fun xs ->
      let t = feed xs in
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let naive =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
        /. (n -. 1.0)
      in
      Float.abs (Stats.variance t -. naive) < 1e-6 *. (1.0 +. naive))

let percentile_bounds =
  let open QCheck in
  let gen =
    Gen.pair
      (Gen.list_size (Gen.int_range 1 50) (Gen.float_range (-1000.) 1000.))
      (Gen.float_range 0.0 100.0)
  in
  Test.make ~name:"percentiles lie within [min, max]" ~count:300
    (make ~print:(fun (xs, p) -> Printf.sprintf "%d samples, p=%g" (List.length xs) p) gen)
    (fun (xs, p) ->
      let t = feed xs in
      let v = Stats.percentile t p in
      v >= Stats.min_value t -. 1e-9 && v <= Stats.max_value t +. 1e-9)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "moments" `Quick test_basic_moments;
    Alcotest.test_case "percentiles" `Quick test_percentiles;
    Alcotest.test_case "interpolation" `Quick test_percentile_interpolation;
    Alcotest.test_case "re-sort after add" `Quick test_percentile_after_more_adds;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "single sample" `Quick test_single_sample;
    Alcotest.test_case "list helpers" `Quick test_list_helpers;
    Alcotest.test_case "invalid percentile" `Quick test_invalid_percentile;
    Alcotest.test_case "percentiles match reference sort" `Quick
      test_percentiles_match_reference_sort;
    Alcotest.test_case "latency means match stats" `Quick
      test_latency_means_match_stats;
    QCheck_alcotest.to_alcotest welford_matches_naive;
    QCheck_alcotest.to_alcotest percentile_bounds;
  ]
