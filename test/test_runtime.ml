(* End-to-end simulator runs: protocol progress, metric sanity, Byzantine
   behaviour, fault injection, determinism, and the cross-replica safety
   property under every protocol. *)

module Runtime = Bamboo.Runtime
module Workload = Bamboo.Workload
module Config = Bamboo.Config
module Schedule = Bamboo_faults.Schedule

let base =
  { Config.default with runtime = 1.5; warmup = 0.3; seed = 5 }

let run config rate =
  Runtime.run ~config ~workload:(Workload.open_loop ~rate ()) ()

let check_healthy name (r : Runtime.result) =
  Alcotest.(check bool) (name ^ ": consistent") true r.consistent;
  Alcotest.(check bool) (name ^ ": no violation") false r.any_violation

let test_happy_path_all_protocols () =
  List.iter
    (fun protocol ->
      let name = Config.protocol_name protocol in
      let r = run { base with protocol } 5000.0 in
      check_healthy name r;
      let s = r.summary in
      Alcotest.(check bool) (name ^ ": throughput tracks arrivals") true
        (Float.abs (s.throughput -. 5000.0) < 500.0);
      Alcotest.(check bool) (name ^ ": latency sane") true
        (s.latency_mean > 0.001 && s.latency_mean < 0.2);
      Alcotest.(check bool) (name ^ ": CGR ~ 1") true (s.cgr > 0.98);
      Alcotest.(check int) (name ^ ": no forks") 0 s.forked_blocks)
    [ Config.Hotstuff; Config.Twochain; Config.Streamlet; Config.Fasthotstuff ]

let test_block_interval_constants () =
  let bi protocol = (run { base with protocol } 5000.0).summary.block_interval in
  Alcotest.(check (float 0.05)) "HS BI = 3" 3.0 (bi Config.Hotstuff);
  Alcotest.(check (float 0.05)) "2CHS BI = 2" 2.0 (bi Config.Twochain);
  Alcotest.(check (float 0.05)) "SL BI = 2" 2.0 (bi Config.Streamlet)

let test_twochain_latency_below_hotstuff () =
  let lat protocol = (run { base with protocol } 5000.0).summary.latency_mean in
  Alcotest.(check bool) "one voting round cheaper" true
    (lat Config.Twochain < lat Config.Hotstuff)

let test_determinism () =
  let r1 = run base 8000.0 and r2 = run base 8000.0 in
  Alcotest.(check int) "txs identical" r1.summary.committed_txs
    r2.summary.committed_txs;
  Alcotest.(check (float 1e-12)) "latency identical" r1.summary.latency_mean
    r2.summary.latency_mean;
  let r3 = run { base with seed = 6 } 8000.0 in
  Alcotest.(check bool) "seed changes trajectory" true
    (r3.summary.committed_txs <> r1.summary.committed_txs
    || r3.summary.latency_mean <> r1.summary.latency_mean)

let test_closed_loop () =
  let r =
    Runtime.run ~config:base ~workload:(Workload.closed_loop ~clients:20) ()
  in
  check_healthy "closed loop" r;
  Alcotest.(check bool) "commits" true (r.summary.committed_txs > 0);
  Alcotest.(check bool) "latency measured" true (r.summary.latency_samples > 0)

let test_broadcast_workload () =
  let r =
    Runtime.run ~config:base
      ~workload:(Workload.open_loop ~broadcast:true ~rate:2000.0 ())
      ()
  in
  check_healthy "broadcast" r;
  (* Deduplication must prevent double commits: committed distinct txs
     cannot exceed arrivals. *)
  Alcotest.(check bool) "no duplication inflation" true
    (r.summary.throughput < 2500.0);
  Alcotest.(check bool) "commits" true (r.summary.committed_txs > 0)

let byz_base =
  {
    base with
    n = 8;
    byz_no = 2;
    runtime = 2.5;
    timeout = 0.05;
    seed = 17;
  }

let test_forking_attack_hotstuff () =
  let r = run { byz_base with strategy = Config.Fork } 4000.0 in
  check_healthy "HS fork" r;
  let s = r.summary in
  Alcotest.(check bool) "forks observed" true (s.forked_blocks > 0);
  Alcotest.(check bool) "CGR degraded" true (s.cgr < 0.9);
  Alcotest.(check bool) "BI above happy-path 3" true (s.block_interval > 3.0)

let test_forking_attack_depth_ordering () =
  let cgr protocol =
    (run { byz_base with protocol; strategy = Config.Fork } 4000.0).summary.cgr
  in
  let hs = cgr Config.Hotstuff and tchs = cgr Config.Twochain in
  Alcotest.(check bool) "2CHS more fork-resilient than HS" true (tchs > hs)

let test_forking_attack_streamlet_immune () =
  let r =
    run { byz_base with protocol = Config.Streamlet; strategy = Config.Fork }
      4000.0
  in
  check_healthy "SL fork" r;
  Alcotest.(check bool) "CGR stays 1" true (r.summary.cgr > 0.99)

let test_silence_attack () =
  let r = run { byz_base with strategy = Config.Silence } 4000.0 in
  check_healthy "HS silence" r;
  let s = r.summary in
  Alcotest.(check bool) "overwrites happen" true (s.forked_blocks > 0);
  Alcotest.(check bool) "CGR degraded" true (s.cgr < 1.0);
  Alcotest.(check bool) "BI grows" true (s.block_interval > 3.0)

let test_silence_attack_streamlet_no_forks () =
  let r =
    run { byz_base with protocol = Config.Streamlet; strategy = Config.Silence }
      4000.0
  in
  check_healthy "SL silence" r;
  Alcotest.(check int) "no forks" 0 r.summary.forked_blocks;
  Alcotest.(check bool) "CGR stays 1" true (r.summary.cgr > 0.99)

let test_crash_fault () =
  let config =
    {
      base with
      runtime = 2.0;
      faults =
        [ { Schedule.at = 1.0; until = None; spec = Schedule.Crash { node = 3 } } ];
    }
  in
  let r = run config 4000.0 in
  check_healthy "crash" r;
  (* One crashed replica of four: liveness retained via timeouts. *)
  Alcotest.(check bool) "still commits after crash" true
    (r.summary.committed_txs > 0);
  (* The crashed node's view falls behind the others. *)
  let crashed_view = r.final_views.(3) in
  Alcotest.(check bool) "crashed node lags" true
    (Array.exists (fun v -> v > crashed_view) r.final_views)

let test_fluctuation_recovers () =
  let config =
    {
      base with
      runtime = 3.0;
      seed = 23;
      faults =
        [
          {
            Schedule.at = 1.0;
            until = Some 1.5;
            spec = Schedule.Fluctuation { lo = 0.01; hi = 0.05 };
          };
        ];
    }
  in
  let r = run config 3000.0 in
  check_healthy "fluctuation" r;
  (* Throughput in the last second must recover to arrival rate. *)
  let tail =
    List.filter (fun (t, _) -> t >= 2.0 && t < 3.0) r.series
    |> List.map snd
  in
  let mean = List.fold_left ( +. ) 0.0 tail /. float_of_int (List.length tail) in
  Alcotest.(check bool) "recovered" true (mean > 1500.0)

let test_series_covers_run () =
  let r = run base 3000.0 in
  Alcotest.(check bool) "has buckets" true (List.length r.series >= 2);
  List.iter
    (fun (t, thr) ->
      if t < 0.0 || thr < 0.0 then Alcotest.fail "bad series point")
    r.series

let test_static_leader () =
  let r = run { base with election = Config.Static 0 } 4000.0 in
  check_healthy "static" r;
  Alcotest.(check bool) "commits" true (r.summary.committed_txs > 0)

let test_hashed_election () =
  let r = run { base with election = Config.Hashed } 4000.0 in
  check_healthy "hashed" r;
  Alcotest.(check bool) "commits" true (r.summary.committed_txs > 0)

let test_mempool_backpressure () =
  (* Tiny mempool at a high rate: rejections must be reported and the run
     stays healthy. *)
  let r = run { base with memsize = 50 } 200_000.0 in
  check_healthy "backpressure" r;
  Alcotest.(check bool) "rejections counted" true (r.summary.rejected_txs > 0)

let test_lossy_network () =
  (* 5% independent message loss: block synchronization and timeout
     re-broadcast keep the cluster live and consistent. *)
  let config = { base with timeout = 0.05; loss = 0.05; runtime = 2.5 } in
  let r = run config 4000.0 in
  check_healthy "lossy" r;
  Alcotest.(check bool) "still commits most traffic" true
    (r.summary.throughput > 2500.0);
  (* Heavier loss: slower, but never inconsistent. *)
  let r = run { config with loss = 0.2 } 2000.0 in
  check_healthy "very lossy" r;
  Alcotest.(check bool) "progress under 20% loss" true
    (r.summary.committed_txs > 0)

let test_backoff_restores_liveness () =
  (* View timer below the real round trip: fixed timers expire before any
     proposal can arrive and the cluster starves; geometric backoff
     stretches them until progress resumes (paper §VI-D discusses timeout
     settings; the backoff pacemaker is this repo's extension). *)
  let config =
    {
      base with
      timeout = 0.010;
      extra_delay_mu = 0.010;
      extra_delay_sigma = 0.0;
      runtime = 2.0;
    }
  in
  let starved = run config 2000.0 in
  Alcotest.(check int) "fixed timers starve" 0
    starved.summary.committed_txs;
  let recovered = run { config with backoff = 2.0 } 2000.0 in
  Alcotest.(check bool) "backoff restores throughput" true
    (recovered.summary.throughput > 1000.0);
  check_healthy "backoff" recovered

let test_cpu_utilization_reported () =
  let r = run base 20_000.0 in
  Alcotest.(check int) "one entry per replica" base.n
    (Array.length r.cpu_utilization);
  Array.iter
    (fun u ->
      if u <= 0.0 || u > 1.0 then
        Alcotest.failf "utilization out of range: %f" u)
    r.cpu_utilization;
  (* Higher load must consume more CPU. *)
  let light = run base 2_000.0 in
  Alcotest.(check bool) "monotone in load" true
    (r.cpu_utilization.(0) > light.cpu_utilization.(0))

let test_invalid_config_rejected () =
  match run { base with n = 0 } 100.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid config accepted"

(* Golden results: the exact outcome of three short runs, floats compared
   by bit pattern. Any change to the per-transaction bookkeeping (issue,
   ingest, batching, completion, dedup, latency statistics) that is meant
   to be behaviour-preserving must leave every value here unchanged. *)
let fingerprint (r : Runtime.result) =
  let s = r.summary and d = r.decomposition in
  let int x = Int64.of_int x and bits = Int64.bits_of_float in
  [
    ("sim_events", int r.sim_events);
    ("committed_txs", int s.committed_txs);
    ("committed_blocks", int s.committed_blocks);
    ("forked_blocks", int s.forked_blocks);
    ("views", int s.views);
    ("rejected_txs", int s.rejected_txs);
    ("latency_mean", bits s.latency_mean);
    ("latency_p50", bits s.latency_p50);
    ("latency_p99", bits s.latency_p99);
    ("decomp_samples", int d.samples);
    ("decomp_client_wire", bits d.client_wire);
    ("decomp_cpu_queue", bits d.cpu_queue);
    ("decomp_cpu_service", bits d.cpu_service);
    ("decomp_mempool_wait", bits d.mempool_wait);
    ("decomp_nic_serialization", bits d.nic_serialization);
    ("decomp_consensus_wait", bits d.consensus_wait);
    ("decomp_total", bits d.total);
  ]

let golden =
  [
    (* Single-target open loop; the first 0.5 ms tick already carries
       more than 64 transactions. *)
    ( "open loop",
      (fun () -> run { base with runtime = 1.0 } 160_000.0),
      [
        ("sim_events", 30451L);
        ("committed_txs", 112498L);
        ("committed_blocks", 284L);
        ("forked_blocks", 0L);
        ("views", 284L);
        ("rejected_txs", 0L);
        ("latency_mean", 4580358931733424956L);
        ("latency_p50", 4580350515405155440L);
        ("latency_p99", 4582083837114840644L);
        ("decomp_samples", 109936L);
        ("decomp_client_wire", 4562256043917659305L);
        ("decomp_cpu_queue", 4549689999100058682L);
        ("decomp_cpu_service", 4557831464541402118L);
        ("decomp_mempool_wait", 4573675479715264724L);
        ("decomp_nic_serialization", 4550099425867821329L);
        ("decomp_consensus_wait", 4575994311928963118L);
        ("decomp_total", 4580358931733424956L);
      ] );
    (* Broadcast: every replica commits each tx, counted once. *)
    ( "broadcast",
      (fun () ->
        Runtime.run ~config:base
          ~workload:(Workload.open_loop ~broadcast:true ~rate:2000.0 ())
          ()),
      [
        ("sim_events", 42141L);
        ("committed_txs", 2428L);
        ("committed_blocks", 620L);
        ("forked_blocks", 0L);
        ("views", 620L);
        ("rejected_txs", 0L);
        ("latency_mean", 4575722592516571059L);
        ("latency_p50", 4575708138818323792L);
        ("latency_p99", 4576569392857289292L);
        ("decomp_samples", 0L);
        ("decomp_client_wire", 0L);
        ("decomp_cpu_queue", 0L);
        ("decomp_cpu_service", 0L);
        ("decomp_mempool_wait", 0L);
        ("decomp_nic_serialization", 0L);
        ("decomp_consensus_wait", 0L);
        ("decomp_total", 0L);
      ] );
    (* Closed loop with a forking replica: forked txs are requeued and
       completions reissue. *)
    ( "closed loop, fork",
      (fun () ->
        Runtime.run
          ~config:
            {
              base with
              byz_no = 1;
              strategy = Config.Fork;
              election = Config.Hashed;
            }
          ~workload:(Workload.closed_loop ~clients:20)
          ()),
      [
        ("sim_events", 26203L);
        ("committed_txs", 808L);
        ("committed_blocks", 362L);
        ("forked_blocks", 265L);
        ("views", 627L);
        ("rejected_txs", 0L);
        ("latency_mean", 4584290460831546364L);
        ("latency_p50", 4581696343947789184L);
        ("latency_p99", 4594896497504489952L);
        ("decomp_samples", 788L);
        ("decomp_client_wire", 4562253117346207968L);
        ("decomp_cpu_queue", 4547755832853570661L);
        ("decomp_cpu_service", 4552759247849902127L);
        ("decomp_mempool_wait", 4581836980677868136L);
        ("decomp_nic_serialization", 4532929555258986021L);
        ("decomp_consensus_wait", 4574901473104247946L);
        ("decomp_total", 4584290460831546364L);
      ] );
  ]

let test_golden_results () =
  List.iter
    (fun (name, go, expected) ->
      Alcotest.(check (list (pair string int64))) name expected
        (fingerprint (go ())))
    golden

(* Safety property: across random seeds, protocols and faults, no two
   replicas ever commit conflicting blocks and no local violation occurs. *)
let safety_prop =
  let open QCheck in
  let gen =
    Gen.quad (Gen.int_range 0 3) (Gen.int_range 0 2) (Gen.int_range 0 1000)
      (Gen.oneofl [ 0.005; 0.02; 0.1 ])
  in
  Test.make ~name:"no conflicting commits under random runs" ~count:12
    (make
       ~print:(fun (p, s, seed, t) ->
         Printf.sprintf "proto=%d strat=%d seed=%d timeout=%g" p s seed t)
       gen)
    (fun (p, s, seed, timeout) ->
      let protocol =
        List.nth
          [ Config.Hotstuff; Config.Twochain; Config.Streamlet; Config.Fasthotstuff ]
          p
      in
      let strategy = List.nth [ Config.Honest; Config.Silence; Config.Fork ] s in
      let config =
        {
          base with
          protocol;
          strategy;
          n = 7;
          byz_no = (if strategy = Config.Honest then 0 else 2);
          timeout;
          runtime = 1.0;
          warmup = 0.2;
          seed;
        }
      in
      let r = run config 3000.0 in
      r.consistent && not r.any_violation)

(* --- ledgers shared across replicas --- *)

let ledger_block (b : Bamboo_types.Block.t) =
  {
    Runtime.l_height = b.height;
    l_hash = b.hash;
    l_view = b.view;
    l_txs = List.map (fun (tx : Bamboo_types.Tx.t) -> tx.id) b.txs;
  }

(* The reference: every replica's chain built on its own. *)
let per_replica_ledgers forests =
  Array.map
    (fun f ->
      Array.init (Bamboo_forest.Forest.committed_height f) (fun i ->
          match Bamboo_forest.Forest.committed_at f (i + 1) with
          | Some b -> ledger_block b
          | None -> Alcotest.fail "committed prefix has a gap"))
    forests

let check_shared name (ledgers : Runtime.ledger array) =
  let common = Array.fold_left (fun acc l -> min acc (Array.length l)) max_int ledgers in
  Alcotest.(check bool) (name ^ ": committed something") true (common > 0);
  Array.iteri
    (fun i l ->
      for h = 0 to common - 1 do
        if not (l.(h) == ledgers.(0).(h)) then
          Alcotest.failf "%s: replica %d, height %d not shared" name i (h + 1)
      done)
    ledgers

let test_ledgers_shared () =
  let config = { base with n = 7 } in
  let r = run config 3000.0 in
  check_healthy "n=7" r;
  check_shared "n=7" r.ledgers;
  (* The same run's forests, exposed through a pass-through scheduler,
     against a per-replica build. *)
  let nodes = ref [||] in
  let scheduler (v : Runtime.sched_view) =
    nodes := v.sv_nodes;
    {
      Runtime.sh_controller = { Bamboo_sim.Sim.window = 0.0; choose = (fun ~now:_ _ -> 0) };
      sh_on_exec = ignore;
    }
  in
  let r =
    Runtime.run ~config ~workload:(Workload.open_loop ~rate:3000.0 ()) ~scheduler ()
  in
  let forests = Array.map Bamboo.Node.forest !nodes in
  Alcotest.(check int) "all replicas captured" 7 (Array.length forests);
  check_shared "controlled n=7" r.ledgers;
  Alcotest.(check bool) "equal to a per-replica build" true
    (r.ledgers = per_replica_ledgers forests)

(* A block that claims another's hash and view but carries a different tx
   list (a hash collision, made by hand) must get its own entry. *)
let test_ledgers_collision_not_shared () =
  let open Bamboo_types in
  let module Forest = Bamboo_forest.Forest in
  let reg = Helpers.registry () in
  let b1 = Helpers.child ~reg ~view:1 ~txs:(Helpers.txs 3) Block.genesis in
  let b2 = Helpers.child ~reg ~view:2 ~txs:(Helpers.txs ~client:1 2) b1 in
  let forged = { b2 with Block.txs = Helpers.txs ~client:2 2 } in
  let forest blocks =
    let f = Forest.create () in
    List.iter (fun b -> ignore (Forest.add f b : Forest.add_result)) blocks;
    (match Forest.commit f (List.nth blocks (List.length blocks - 1)).Block.hash with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "commit failed");
    f
  in
  let forests = [| forest [ b1; b2 ]; forest [ b1; forged ]; forest [ b1 ] |] in
  let shared = Runtime.ledgers_of_forests forests in
  Alcotest.(check bool) "equal to a per-replica build" true
    (shared = per_replica_ledgers forests);
  Alcotest.(check bool) "same block shared" true
    (shared.(1).(0) == shared.(0).(0) && shared.(2).(0) == shared.(0).(0));
  Alcotest.(check bool) "colliding block not shared" false
    (shared.(1).(1) == shared.(0).(1));
  Alcotest.(check bool) "colliding block keeps its txs" true
    (shared.(1).(1).l_txs = List.map (fun (tx : Tx.t) -> tx.id) forged.txs
    && shared.(1).(1).l_txs <> shared.(0).(1).l_txs)

let suite =
  [
    Alcotest.test_case "ledgers shared across replicas" `Quick test_ledgers_shared;
    Alcotest.test_case "ledger collision not shared" `Quick
      test_ledgers_collision_not_shared;
    Alcotest.test_case "happy path, all protocols" `Quick
      test_happy_path_all_protocols;
    Alcotest.test_case "block interval constants" `Quick
      test_block_interval_constants;
    Alcotest.test_case "2CHS latency < HS" `Quick
      test_twochain_latency_below_hotstuff;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "closed loop" `Quick test_closed_loop;
    Alcotest.test_case "broadcast workload" `Quick test_broadcast_workload;
    Alcotest.test_case "forking attack (HS)" `Quick test_forking_attack_hotstuff;
    Alcotest.test_case "fork depth ordering" `Quick
      test_forking_attack_depth_ordering;
    Alcotest.test_case "streamlet fork immunity" `Quick
      test_forking_attack_streamlet_immune;
    Alcotest.test_case "silence attack" `Quick test_silence_attack;
    Alcotest.test_case "streamlet silence: no forks" `Quick
      test_silence_attack_streamlet_no_forks;
    Alcotest.test_case "crash fault" `Quick test_crash_fault;
    Alcotest.test_case "fluctuation recovery" `Quick test_fluctuation_recovers;
    Alcotest.test_case "series sanity" `Quick test_series_covers_run;
    Alcotest.test_case "static leader" `Quick test_static_leader;
    Alcotest.test_case "hashed election" `Quick test_hashed_election;
    Alcotest.test_case "mempool backpressure" `Quick test_mempool_backpressure;
    Alcotest.test_case "lossy network" `Quick test_lossy_network;
    Alcotest.test_case "backoff restores liveness" `Quick
      test_backoff_restores_liveness;
    Alcotest.test_case "cpu utilization" `Quick test_cpu_utilization_reported;
    Alcotest.test_case "invalid config" `Quick test_invalid_config_rejected;
    Alcotest.test_case "golden results" `Quick test_golden_results;
    QCheck_alcotest.to_alcotest safety_prop;
  ]
