(* Integration: real OS threads + real crypto over the channel and TCP
   transports, via the wall-clock runtime. Short real-time runs. *)

module Config = Bamboo.Config
module Chan = Bamboo_network.Chan_transport
module Tcp = Bamboo_network.Tcp_transport
module Ring = Bamboo_network.Ring_transport
module Chan_runtime = Bamboo.Threaded_runtime.Make (Bamboo_network.Chan_transport)
module Tcp_runtime = Bamboo.Threaded_runtime.Make_batched (Bamboo_network.Tcp_transport)

(* The ring transport is batched natively: Make_batched drains a whole
   wakeup's worth of messages per lock-free pass instead of one recv per
   handler dispatch. *)
module Ring_runtime = Bamboo.Threaded_runtime.Make_batched (Bamboo_network.Ring_transport)

let config =
  { Config.default with n = 4; bsize = 50; timeout = 0.2; memsize = 10_000 }

let test_chan_cluster_progress () =
  let cluster = Chan.create_cluster ~n:4 in
  let endpoints = Array.init 4 (Chan.endpoint cluster) in
  let report =
    Chan_runtime.run ~config ~endpoints ~duration:1.5 ~rate:300.0 ()
  in
  Alcotest.(check bool) "committed txs" true (report.committed_txs > 0);
  Alcotest.(check bool) "all replicas commit blocks" true
    (Array.for_all (fun c -> c > 0) report.committed_blocks);
  Alcotest.(check bool) "consistent" true report.consistent;
  Alcotest.(check bool) "no violation" false report.any_violation;
  Alcotest.(check bool) "latency measured" true (report.latency_count > 0);
  Alcotest.(check bool) "latency sane" true
    (report.latency_mean > 0.0 && report.latency_mean < 1.0)

let test_chan_streamlet () =
  let cluster = Chan.create_cluster ~n:4 in
  let endpoints = Array.init 4 (Chan.endpoint cluster) in
  let config = { config with protocol = Config.Streamlet } in
  let report =
    Chan_runtime.run ~config ~endpoints ~duration:1.5 ~rate:200.0 ()
  in
  Alcotest.(check bool) "streamlet commits" true (report.committed_txs > 0);
  Alcotest.(check bool) "consistent" true report.consistent

let test_chan_with_silent_byzantine () =
  let cluster = Chan.create_cluster ~n:4 in
  let endpoints = Array.init 4 (Chan.endpoint cluster) in
  let config =
    { config with byz_no = 1; strategy = Config.Silence; timeout = 0.1 }
  in
  let report =
    Chan_runtime.run ~config ~endpoints ~duration:2.0 ~rate:200.0 ()
  in
  Alcotest.(check bool) "liveness with f silent" true (report.committed_txs > 0);
  Alcotest.(check bool) "consistent" true report.consistent;
  Alcotest.(check bool) "no violation" false report.any_violation

let test_kv_execution () =
  (* Submit real key-value commands through start/submit/stop and check
     that every replica executed the same state. *)
  let cluster = Chan.create_cluster ~n:4 in
  let endpoints = Array.init 4 (Chan.endpoint cluster) in
  let c = Chan_runtime.start ~config ~endpoints () in
  let kv_tx seq key value =
    Bamboo_types.Tx.make_with_data ~client:2 ~seq
      ~data:(Bamboo.Kvstore.encode_command (Bamboo.Kvstore.Put { key; value }))
  in
  Chan_runtime.submit c ~replica:0 [ kv_tx 1 "alpha" "1"; kv_tx 2 "beta" "2" ];
  Chan_runtime.submit c ~replica:3 [ kv_tx 3 "alpha" "override" ];
  Alcotest.(check bool) "commits within deadline" true
    (Chan_runtime.wait_committed c ~count:3 ~timeout_s:5.0);
  Alcotest.(check bool) "tx_committed" true
    (Chan_runtime.tx_committed c { Bamboo_types.Tx.client = 2; seq = 1 });
  (* Let stragglers apply the blocks, then compare executed state. *)
  Thread.delay 0.3;
  let v = Chan_runtime.kv_get c ~replica:1 "beta" in
  Alcotest.(check (option string)) "replica 1 executed" (Some "2") v;
  let report = Chan_runtime.stop c in
  Alcotest.(check bool) "kv consistent" true report.kv_consistent;
  Alcotest.(check bool) "chain consistent" true report.consistent

let test_ring_cluster_progress () =
  let cluster = Ring.create_cluster ~n:4 () in
  let endpoints = Array.init 4 (Ring.endpoint cluster) in
  let report =
    Ring_runtime.run ~config ~endpoints ~duration:1.5 ~rate:300.0 ()
  in
  Alcotest.(check bool) "committed over ring" true (report.committed_txs > 0);
  Alcotest.(check bool) "all replicas commit blocks" true
    (Array.for_all (fun c -> c > 0) report.committed_blocks);
  Alcotest.(check bool) "consistent" true report.consistent;
  Alcotest.(check bool) "no violation" false report.any_violation

(* The generator draws each batch over the wall time since the previous
   one, so late wakeups do not shed load. 0.95x the nominal count is 7
   standard deviations below the Poisson mean at 20,000 txs. *)
let test_run_offers_nominal_rate () =
  let cluster = Ring.create_cluster ~n:4 () in
  let endpoints = Array.init 4 (Ring.endpoint cluster) in
  let rate = 20_000.0 and duration = 1.0 in
  let report = Ring_runtime.run ~config ~endpoints ~duration ~rate () in
  let floor = 0.95 *. rate *. duration in
  if float_of_int report.offered_txs < floor then
    Alcotest.failf "offered %d txs, expected at least %.0f"
      report.offered_txs floor

let test_tcp_cluster_progress () =
  let addresses = Tcp.loopback_addresses ~n:4 ~base_port:29600 in
  let endpoints =
    Array.of_list (List.map (fun (self, _) -> Tcp.create ~self ~addresses ()) addresses)
  in
  let report =
    Tcp_runtime.run ~config ~endpoints ~duration:2.0 ~rate:200.0 ()
  in
  Alcotest.(check bool) "committed over TCP" true (report.committed_txs > 0);
  Alcotest.(check bool) "consistent" true report.consistent;
  Alcotest.(check bool) "no violation" false report.any_violation

let suite =
  [
    Alcotest.test_case "channel cluster" `Slow test_chan_cluster_progress;
    Alcotest.test_case "channel streamlet" `Slow test_chan_streamlet;
    Alcotest.test_case "channel + silent byzantine" `Slow
      test_chan_with_silent_byzantine;
    Alcotest.test_case "kv execution layer" `Slow test_kv_execution;
    Alcotest.test_case "ring cluster" `Slow test_ring_cluster_progress;
    Alcotest.test_case "run offers nominal rate" `Slow
      test_run_offers_nominal_rate;
    Alcotest.test_case "tcp cluster" `Slow test_tcp_cluster_progress;
  ]
