(* The benchmark of record. One invocation runs one workload:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--profile P]

   --trace 0 measures the end-to-end metrics; --trace 1 runs the workload
   again with spans, registry counts, GC telemetry and layer-cost probes
   and reports the per-layer metrics. Human-readable lines (conditions,
   each metric with its quartiles and sample count) come first; the last
   line is one JSON object. Any failed correctness check exits 1 without
   that line. *)

open Perfbench
module Config = Bamboo.Config

type workload = Sim of Sim_load.spec | Real

let workloads =
  [
    ( "sim-hs-n4-sat",
      Sim
        {
          Sim_load.n = 4;
          byz_no = 0;
          strategy = Config.Honest;
          election = Config.Rotation;
          rate = 130_000.0;
          horizon = 2.0;
          warmup = 0.5;
        } );
    ( "sim-hs-n64",
      Sim
        {
          Sim_load.n = 64;
          byz_no = 0;
          strategy = Config.Honest;
          election = Config.Rotation;
          rate = 2_400.0;
          horizon = 4.0;
          warmup = 1.0;
        } );
    ( "sim-hs-n4-fork",
      Sim
        {
          Sim_load.n = 4;
          byz_no = 1;
          strategy = Config.Fork;
          election = Config.Hashed;
          rate = 33_000.0;
          horizon = 3.0;
          warmup = 0.5;
        } );
    ("real-tcp-n4", Real);
  ]

(* {1 Output} *)

type metric = { name : string; value : float; unit_ : string }

let metrics : metric list ref = ref []

let report ?(detail = "") name unit_ value =
  if not (Float.is_finite value) then
    failwith (Printf.sprintf "metric %s is not finite (%f)" name value);
  metrics := { name; value; unit_ } :: !metrics;
  Printf.printf "metric %-26s %14.6f %-6s %s\n" name value unit_ detail

(* A median metric with its quartiles and sample count. *)
let report_median name unit_ values =
  let q1, m, q3 = Arith.quartiles values in
  report name unit_ m
    ~detail:
      (Printf.sprintf "(median; q1 %.6g q3 %.6g; n=%d)" q1 q3 (List.length values))

let ratio a b = if b = 0.0 then 0.0 else a /. b

let json_line ~attempted ~failed =
  let body =
    String.concat ", "
      (List.rev_map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_)
         !metrics)
  in
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    attempted failed body

let conditions ~workload ~seed ~seconds ~trace ~profile ~repeats =
  Printf.printf
    "# conditions: workload=%s seed=%d seconds=%g trace=%d nproc=%d ocaml=%s \
     profile=%s repeats=%d calib_ms=%.3f\n"
    workload seed seconds trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version profile repeats
    (Arith.median (List.init 5 (fun _ -> Calib.pass_ms ())))

(* Repeats [f] at least [min] times, then while the next call is
   predicted to fit in [budget] seconds, up to [max] calls. *)
let repeat ~min ~max ~budget f =
  let t0 = Meter.wall () in
  let rec go acc k =
    let w = Meter.wall () in
    let v = f () in
    let dt = Meter.wall () -. w in
    let acc = v :: acc in
    if k + 1 >= max then List.rev acc
    else if k + 1 < min || Meter.wall () -. t0 +. dt <= budget then go acc (k + 1)
    else List.rev acc
  in
  go [] 0

(* {1 Simulator workloads} *)

(* One timed repeat, paired with calibration passes taken just before
   and just after it; times are normalized to the reference machine speed
   by their mean. Only what the report needs is kept, so earlier repeats
   do not weigh on later ones. *)
type repeat_sample = {
  wall : float;
  cpu : float;
  pass : float;  (** calibration pass, ms *)
  setups : float list;  (** normalized set-up times *)
  digest : string;
  summary : Bamboo.Metrics.summary;
}

(* Runs [f] between two calibration passes; returns its result and the
   factor that scales its times to the reference machine speed. *)
let calibrated f =
  let before = Calib.pass_ms () in
  let v = f () in
  let pass = (before +. Calib.pass_ms ()) /. 2.0 in
  (v, Calib.normalize ~pass 1.0)

(* Set-ups measured next to each repeat, spread over the whole run. *)
let setups_per_repeat = 20

let sim_end_to_end name spec ~seed ~seconds =
  (* The major heap is never handed back to the system, so the peak is
     read after the first run: later runs reuse (and fragment) it. *)
  let top_heap = ref 0.0 in
  let one () =
    let before = Calib.pass_ms () in
    let setups =
      List.init setups_per_repeat (fun _ ->
          Calib.normalize ~pass:before (Sim_load.setup_once spec ~seed))
    in
    Gc.compact ();
    let t = Sim_load.run spec ~seed in
    let pass = (before +. Calib.pass_ms ()) /. 2.0 in
    Sim_load.check name t.Sim_load.result;
    if !top_heap = 0.0 then top_heap := Meter.top_heap_mb ();
    {
      wall = Calib.normalize ~pass t.wall_s;
      cpu = Calib.normalize ~pass t.cpu_s;
      pass;
      setups;
      digest = Sim_load.digest t.result;
      summary = t.result.Bamboo.Runtime.summary;
    }
  in
  let runs = repeat ~min:3 ~max:50 ~budget:seconds one in
  let first = List.hd runs in
  List.iter
    (fun r ->
      if not (String.equal r.digest first.digest) then
        failwith (name ^ ": repeats of one seed behaved differently"))
    runs;
  let s = first.summary in
  if s.throughput < 0.9 *. spec.Sim_load.rate then
    failwith
      (Printf.sprintf "%s: committed %.0f tx/s of %.0f offered" name s.throughput
         spec.Sim_load.rate);
  Printf.printf "# digest: %s\n" first.digest;
  Printf.printf "# latency samples: %d (virtual ms; exact percentiles)\n"
    s.latency_samples;
  let h = spec.Sim_load.horizon in
  let q1, m, q3 = Arith.quartiles (List.map (fun r -> r.pass) runs) in
  Printf.printf
    "# calibration pass: median %.3f ms (q1 %.3f q3 %.3f); times below are \
     scaled to the reference %.0f ms\n"
    m q1 q3 Calib.reference_ms;
  report_median "setup_s" "s" (List.concat_map (fun r -> r.setups) runs);
  report_median "sim_wall_per_vs" "s" (List.map (fun r -> r.wall /. h) runs);
  report_median "sim_cpu_per_vs" "s" (List.map (fun r -> r.cpu /. h) runs);
  report "top_heap_mb" "MB" !top_heap ~detail:"(first run)";
  report "commit_p50_ms" "ms" (s.latency_p50 *. 1e3) ~detail:"(virtual)";
  report "commit_p99_ms" "ms" (s.latency_p99 *. 1e3) ~detail:"(virtual)";
  report "max_rate_tx_s" "tx/s" s.throughput
    ~detail:"(committed at the workload's one rate)";
  report_median "cpu_ms_per_ktx" "ms"
    (List.map (fun r -> r.cpu /. h /. s.throughput *. 1e6) runs);
  (List.length runs, s.committed_txs + s.rejected_txs, s.rejected_txs)

let gc_metrics (d : Meter.gc_delta) (p : Meter.pauses) =
  report "gc.minor_mwords" "Mwords" (d.minor_words /. 1e6);
  report "gc.promoted_mwords" "Mwords" (d.promoted_words /. 1e6);
  report "gc.minor_collections" "count" (float_of_int d.minor_collections);
  report "gc.major_collections" "count" (float_of_int d.major_collections);
  report "gc.pause_ms_total" "ms" (p.Meter.total_ns /. 1e6);
  report "gc.pause_ms_max" "ms" (p.Meter.max_ns /. 1e6);
  if p.Meter.lost > 0 then Printf.printf "# runtime events lost: %d\n" p.Meter.lost

let probe_metrics (c : Probe.costs) =
  report "sim.schedule_ns" "ns" c.sim_event_ns;
  report "forest.add_us" "us" (c.forest_add_ns /. 1e3);
  report "mempool.add_us" "us" (c.mempool_add_ns /. 1e3);
  report "mempool.batch_us" "us" (c.mempool_batch_ns /. 1e3);
  report "quorum.voted_us" "us" (c.quorum_voted_ns /. 1e3);
  report "crypto.block_root_us" "us" (c.block_ns /. 1e3);
  report "crypto.merkle_root_us" "us" (c.merkle_ns /. 1e3);
  report "crypto.sign_us" "us" (c.sign_ns /. 1e3);
  report "crypto.verify_us" "us" (c.verify_ns /. 1e3);
  report "codec.encode_us" "us" (c.encode_ns /. 1e3);
  report "codec.decode_us" "us" (c.decode_ns /. 1e3)

(* Reports the share of every layer in [layers], summing a layer's
   entries in [costs]. *)
let attribution ~busy_s ~layers costs =
  let shares, rest = Arith.attribute ~busy_s costs in
  List.iter
    (fun layer ->
      report ("attrib." ^ layer ^ "_share") "share"
        (List.fold_left
           (fun acc (l, share) -> if String.equal l layer then acc +. share else acc)
           0.0 shares))
    layers;
  report "attrib.unattributed_share" "share" rest

let sim_per_layer name spec ~seed =
  (* Untraced and traced runs alternate, each keeping only what the
     report needs, so the live heap, and with it the GC's work, is the
     same for every run. *)
  let untraced () =
    Gc.compact ();
    let t, scale = calibrated (fun () -> Sim_load.run spec ~seed) in
    Sim_load.check name t.Sim_load.result;
    (Sim_load.digest t.result, t.wall_s, scale)
  in
  let traced ~reg ~spans () =
    Gc.compact ();
    let t, scale =
      calibrated (fun () ->
          Sim_load.run ~metrics:reg ~wrap_safety:(Sim_load.wrap_safety spans) spec
            ~seed)
    in
    let r = t.Sim_load.result in
    Sim_load.check name r;
    (Sim_load.digest r, r.Bamboo.Runtime.metrics, r.Bamboo.Runtime.summary, t.wall_s, scale)
  in
  (* The first run pays for growing the heap and is not compared. *)
  let cold_digest, _, _ = untraced () in
  let spans = Sim_load.rule_spans () in
  let g0 = Gc.quick_stat () in
  let (dt, snap, s, traced_wall, traced_scale), pauses =
    Meter.with_pauses (traced ~reg:(Bamboo_metrics.Registry.create ()) ~spans)
  in
  let g1 = Gc.quick_stat () in
  let du, untraced_wall, untraced_scale = untraced () in
  (* A second pair, alternating, for the overhead. *)
  let dt2, _, _, traced_wall2, traced_scale2 =
    traced ~reg:(Bamboo_metrics.Registry.create ()) ~spans:(Sim_load.rule_spans ()) ()
  in
  let du2, untraced_wall2, untraced_scale2 = untraced () in
  Printf.printf "# digest untraced: %s\n# digest traced:   %s\n" du dt;
  if not (List.for_all (String.equal du) [ dt; cold_digest; dt2; du2 ]) then
    failwith (name ^ ": tracing changed the run");
  let c = Bamboo_metrics.Snapshot.counter_value snap in
  let fired = c "sim_events_fired" and pushed = c "sim_events_pushed" in
  let sends = c "net_sends" and batches = c "mempool_batches" in
  let batched = c "mempool_batched_txs" in
  let views = c "replica_view_changes" and timeouts = c "replica_timeouts_fired" in
  let f = float_of_int in
  let bsize = Config.default.bsize in
  report "sim.events_fired" "count" (f fired);
  report "sim.events_pushed" "count" (f pushed);
  report "sim.queue_peak_depth" "count" (Sim_load.gauge_max snap "sim_queue_peak_depth");
  report "sim.events_per_send" "ratio" (ratio (f fired) (f sends));
  report "machine.cpu_ops" "count" (f (c "machine_cpu_ops"));
  report "machine.nic_out_ops" "count" (f (c "machine_nic_out_ops"));
  report "machine.nic_in_ops" "count" (f (c "machine_nic_in_ops"));
  report "net.sends" "count" (f sends);
  report "net.drops" "count" (f (c "net_base_drops" + c "net_fault_drops"));
  report "node.view_changes" "count" (f views);
  report "node.timeouts_fired" "count" (f timeouts);
  report "node.timeout_view_share" "share" (ratio (f timeouts) (f views));
  report "node.commits" "count" (f (c "replica_commits"));
  report "safety.calls" "count" (f spans.Sim_load.calls);
  report "safety.propose_calls" "count" (f spans.Sim_load.propose_calls);
  report "safety.busy_ms" "ms" (spans.Sim_load.busy_ns /. 1e6);
  report "forest.committed_blocks" "count" (f s.committed_blocks);
  report "forest.forked_blocks" "count" (f s.forked_blocks);
  report "mempool.batches" "count" (f batches);
  report "mempool.batch_fill" "share" (ratio (f batched) (f (batches * bsize)));
  report "mempool.peak_occupancy" "count" (Sim_load.gauge_max snap "mempool_peak_occupancy");
  report "mempool.rejected_full" "count" (f (c "mempool_rejected_full"));
  report "mempool.rejected_dup" "count" (f (c "mempool_rejected_dup"));
  report "crypto.signs" "count" (f (c "crypto_signs"));
  report "crypto.verifies" "count" (f (c "crypto_verifies"));
  gc_metrics (Meter.gc_delta g0 g1) pauses;
  let shape =
    {
      Probe.n = spec.Sim_load.n;
      fill = max 1 (batched / max 1 batches);
      root = `Flat;
      payload = (fun seq -> Bamboo_types.Tx.make ~client:0 ~seq ~payload_len:0);
      queue_depth = int_of_float (Sim_load.gauge_max snap "sim_queue_peak_depth") / 2;
    }
  in
  let p = Probe.all shape in
  probe_metrics p;
  let n = spec.Sim_load.n in
  (* Probes run at the machine's current speed, so the busy time they
     are set against is the raw (unscaled) untraced wall. *)
  attribution ~busy_s:((untraced_wall +. untraced_wall2) /. 2.0)
    ~layers:[ "block"; "mempool"; "forest"; "quorum"; "sim"; "crypto"; "safety" ]
    [
      (* Safety is measured by its spans, not probed. *)
      { Arith.layer = "safety"; ns_per_call = spans.Sim_load.busy_ns; calls = 1 };
      { layer = "block"; ns_per_call = p.block_ns; calls = batches };
      { layer = "mempool"; ns_per_call = p.mempool_add_ns; calls = batched };
      { layer = "mempool"; ns_per_call = p.mempool_batch_ns; calls = batches };
      { layer = "forest"; ns_per_call = p.forest_add_ns; calls = batches * n };
      { layer = "quorum"; ns_per_call = p.quorum_voted_ns; calls = batches * n };
      { layer = "sim"; ns_per_call = p.sim_event_ns; calls = pushed };
      { layer = "crypto"; ns_per_call = p.sign_ns; calls = c "crypto_signs" };
      { layer = "crypto"; ns_per_call = p.verify_ns; calls = c "crypto_verifies" };
    ];
  let u = ((untraced_wall *. untraced_scale) +. (untraced_wall2 *. untraced_scale2)) /. 2.0 in
  let t = ((traced_wall *. traced_scale) +. (traced_wall2 *. traced_scale2)) /. 2.0 in
  Printf.printf "# wall at reference speed, mean of two: untraced %.4f s traced %.4f s\n" u t;
  report "trace.overhead_share" "share" (ratio (t -. u) u);
  (s.committed_txs + s.rejected_txs, s.rejected_txs)

(* {1 The TCP cluster} *)

module Plain = Real_load.Gen (Real_load.Plain)
module Traced = Real_load.Gen (Timed_tcp)

let real_config ~seed = { Config.default with seed; jobs = 1 }

let check_report (r : Bamboo.Threaded_runtime.report) =
  if not r.consistent then failwith "real-tcp-n4: replicas disagree";
  if not r.kv_consistent then failwith "real-tcp-n4: key-value stores disagree";
  if r.any_violation then failwith "real-tcp-n4: safety violation"

let no_submit_span ~ns:_ ~txs:_ ~admitted:_ = ()

(* Transactions still uncommitted after a grace period: these failed. *)
let never_committed committed ids =
  let deadline = Meter.wall () +. 1.0 in
  let rec wait () =
    let left = List.filter (fun id -> not (committed id)) ids in
    if left = [] || Meter.wall () > deadline then List.length left
    else begin
      Thread.delay 0.01;
      wait ()
    end
  in
  wait ()

let window_p50 (w : Real_load.window) =
  if Array.length w.samples = 0 then infinity
  else Arith.percentile_sorted w.samples 50.0

let real_end_to_end ~seed ~seconds =
  let config = real_config ~seed in
  let seq = ref 0 and attempt = ref 0 in
  let setups = ref [] and cluster = ref None in
  for i = 1 to 3 do
    let c, _, s, a = Plain.setup ~config ~attempt:!attempt ~seq in
    attempt := a;
    setups := s :: !setups;
    if i < 3 then check_report (Plain.C.stop c) else cluster := Some c
  done;
  let c = Option.get !cluster in
  let rng = Bamboo_util.Rng.create ~seed in
  let rung rate windows =
    Plain.run_rung c ~n:config.n ~rng ~seq ~rate ~windows ~on_submit:no_submit_span
  in
  let upper = List.length Real_load.upper_rungs * Real_load.upper_windows in
  let ref_windows =
    max 3
      (int_of_float (seconds /. Real_load.window_s) - Real_load.warm_windows - upper)
  in
  let warm = rung Real_load.reference_rate Real_load.warm_windows in
  let reference = rung Real_load.reference_rate ref_windows in
  let rec climb acc = function
    | [] -> List.rev acc
    | rate :: rest ->
        let ws = rung rate Real_load.upper_windows in
        let acc = ws :: acc in
        if Arith.rung_ok ~limit_ms:Real_load.limit_ms (Real_load.rung_of ws) then
          climb acc rest
        else List.rev acc
  in
  let upper =
    if Arith.rung_ok ~limit_ms:Real_load.limit_ms (Real_load.rung_of reference) then
      climb [] Real_load.upper_rungs
    else []
  in
  let all = warm @ reference @ List.concat upper in
  let failed_ids = List.concat_map (fun (w : Real_load.window) -> w.unfinished) all in
  let lost = never_committed (Plain.C.tx_committed c) failed_ids in
  check_report (Plain.C.stop c);
  let tally = Real_load.tally_of all in
  let failed = tally.refused + lost in
  let pooled =
    Array.concat (List.map (fun (w : Real_load.window) -> w.samples) reference)
  in
  Array.sort Float.compare pooled;
  let n = Array.length pooled in
  (match Arith.tail_percentile ~n with
  | Some p ->
      Printf.printf
        "# reference rung %.0f tx/s: %d samples over %d windows; highest \
         supported percentile p%g = %.3f ms\n"
        Real_load.reference_rate n ref_windows p (Arith.percentile_sorted pooled p)
  | None -> ());
  let rungs = Real_load.rung_of reference :: List.map Real_load.rung_of upper in
  List.iter
    (fun (r : Arith.rung) ->
      Printf.printf "# rung %.0f tx/s: achieved %.1f p99 %.3f ms backlog %d -> %d %s\n"
        r.rate r.achieved r.tail_ms r.backlog_mid r.backlog_end
        (if Arith.rung_ok ~limit_ms:Real_load.limit_ms r then "ok" else "over limit"))
    rungs;
  let per f = List.map f reference in
  report_median "setup_s" "s" !setups;
  report_median "sim_wall_per_vs" "s"
    (per (fun w -> w.Real_load.wall_s /. Real_load.window_s));
  report_median "sim_cpu_per_vs" "s"
    (per (fun w -> w.Real_load.cpu_s /. Real_load.window_s));
  report "top_heap_mb" "MB" (Meter.top_heap_mb ());
  report_median "commit_p50_ms" "ms" (per window_p50);
  report_median "commit_p99_ms" "ms" (per (fun w -> w.Real_load.rung.Arith.tail_ms));
  (match Arith.max_rate ~limit_ms:Real_load.limit_ms rungs with
  | Some r -> report "max_rate_tx_s" "tx/s" r ~detail:(Printf.sprintf "(limit p99 <= %.0f ms)" Real_load.limit_ms)
  | None -> failwith "real-tcp-n4: even the reference rung misses the latency limit");
  report_median "cpu_ms_per_ktx" "ms"
    (per (fun w -> w.Real_load.cpu_s *. 1e6 /. float_of_int (max 1 w.Real_load.committed)));
  Printf.printf "# fail_share (refused or over %.0f ms, all windows): %.6f\n"
    Real_load.limit_ms (Arith.fail_share tally);
  (tally.offered, failed)

let real_per_layer ~seed =
  let config = real_config ~seed in
  let seq = ref 0 in
  let rng = Bamboo_util.Rng.create ~seed in
  let cpu_per_ktx ws =
    Arith.median
      (List.map
         (fun (w : Real_load.window) ->
           w.cpu_s *. 1e6 /. float_of_int (max 1 w.committed))
         ws)
  in
  (* Untraced reference windows, for the tracing overhead. *)
  let c, _, _, attempt = Plain.setup ~config ~attempt:0 ~seq in
  let rung rate windows =
    Plain.run_rung c ~n:config.n ~rng ~seq ~rate ~windows ~on_submit:no_submit_span
  in
  ignore (rung Real_load.reference_rate Real_load.warm_windows : Real_load.window list);
  let untraced = rung Real_load.reference_rate 3 in
  check_report (Plain.C.stop c);
  (* The traced run. *)
  Gc.compact ();
  let submit_ns = Meter.samples () in
  let submitted = ref 0 and admitted = ref 0 in
  let on_submit ~ns ~txs ~admitted:a =
    Meter.add submit_ns ns;
    submitted := !submitted + txs;
    admitted := !admitted + a
  in
  let g0 = Gc.quick_stat () and cpu0 = Meter.cpu () in
  let (traced, upper, eps, rep), pauses =
    Meter.with_pauses (fun () ->
        let c, eps, _, _ = Traced.setup ~config ~attempt ~seq in
        let rung rate windows =
          Traced.run_rung c ~n:config.n ~rng ~seq ~rate ~windows ~on_submit
        in
        ignore (rung Real_load.reference_rate Real_load.warm_windows : Real_load.window list);
        let traced = rung Real_load.reference_rate 3 in
        let upper = List.concat_map (fun r -> rung r 2) Real_load.upper_rungs in
        (* Tallies are read after [stop] has joined every thread. *)
        let rep = Traced.C.stop c in
        (traced, upper, eps, rep))
  in
  let busy_s = Meter.cpu () -. cpu0 in
  let g1 = Gc.quick_stat () in
  check_report rep;
  let f = float_of_int in
  let sum g = Array.fold_left (fun acc e -> acc + g e) 0 eps in
  let asum g = sum (fun e -> Atomic.get (g e)) in
  let tcp g = sum (fun (e : Timed_tcp.t) -> g (Real_load.Tcp.stats e.inner)) in
  let proposals = asum (fun e -> e.Timed_tcp.proposals_out) in
  let proposal_txs = asum (fun e -> e.Timed_tcp.proposal_txs) in
  let timeouts = asum (fun e -> e.Timed_tcp.timeouts_out) in
  let signs = asum (fun e -> e.Timed_tcp.signed_out) in
  let verifies = asum (fun e -> e.Timed_tcp.signed_in) in
  let batches = sum (fun e -> e.Timed_tcp.batches) in
  let commits = Array.fold_left ( + ) 0 rep.committed_blocks in
  let all = traced @ upper in
  let tally = Real_load.tally_of all in
  (* The threaded runtime reports no view counter; a view with a
     proposal shows as the proposal its leader broadcasts. *)
  report "node.view_changes" "count" (f proposals);
  report "node.timeouts_fired" "count" (f timeouts);
  report "node.timeout_view_share" "share" (ratio (f timeouts) (f proposals));
  report "node.commits" "count" (f commits);
  report "node.loop_self_ms" "ms"
    (Array.fold_left (fun acc e -> acc +. e.Timed_tcp.self_ns) 0.0 eps /. 1e6);
  report "node.loop_batches" "count" (f (sum (fun e -> e.Timed_tcp.passes)));
  report "forest.committed_blocks" "count"
    (f (Array.fold_left max 0 rep.committed_blocks));
  report "mempool.batches" "count" (f proposals);
  report "mempool.batch_fill" "share"
    (ratio (f proposal_txs) (f (proposals * config.bsize)));
  report "mempool.rejected_full" "count" (f tally.refused);
  report "crypto.signs" "count" (f signs);
  report "crypto.verifies" "count" (f verifies);
  report "transport.sends" "count" (f (tcp (fun s -> s.sends)));
  let send_ns = Meter.samples () in
  Array.iter
    (fun e -> Array.iter (Meter.add send_ns) (Meter.to_array e.Timed_tcp.send_ns))
    eps;
  report "transport.send_us_p50" "us" (Meter.pct send_ns 50.0 /. 1e3);
  report "transport.recv_batches" "count" (f batches);
  report "transport.recv_batch_mean" "count"
    (ratio (f (sum (fun e -> e.Timed_tcp.msgs))) (f batches));
  report "transport.dropped_full" "count" (f (tcp (fun s -> s.dropped_full)));
  report "transport.reconnects" "count" (f (tcp (fun s -> s.reconnects)));
  report "ingest.submit_us_p50" "us" (Meter.pct submit_ns 50.0 /. 1e3);
  report "ingest.submit_us_p99" "us" (Meter.pct submit_ns 99.0 /. 1e3);
  report "ingest.admit_ratio" "share" (ratio (f !admitted) (f !submitted));
  let lags = Array.concat (List.map (fun (w : Real_load.window) -> w.lag) traced) in
  report "gen.lag_p99_ms" "ms"
    (if Array.length lags = 0 then 0.0 else Arith.percentile lags 99.0);
  report "gen.fail_share" "share" (Arith.fail_share (Real_load.tally_of traced));
  gc_metrics (Meter.gc_delta g0 g1) pauses;
  let shape =
    {
      Probe.n = config.n;
      fill = max 1 (proposal_txs / max 1 proposals);
      root = `Merkle;
      payload = (fun seq -> Real_load.make_tx ~seq);
      queue_depth = 1;
    }
  in
  let p = Probe.all shape in
  probe_metrics p;
  let proposal_msgs = proposals * (config.n - 1) in
  attribution ~busy_s
    ~layers:[ "block"; "mempool"; "forest"; "quorum"; "codec"; "crypto" ]
    [
      { Arith.layer = "block"; ns_per_call = p.block_ns; calls = proposals };
      { layer = "mempool"; ns_per_call = p.mempool_add_ns; calls = !admitted };
      { layer = "mempool"; ns_per_call = p.mempool_batch_ns; calls = proposals };
      { layer = "forest"; ns_per_call = p.forest_add_ns; calls = proposals * config.n };
      { layer = "quorum"; ns_per_call = p.quorum_voted_ns; calls = verifies };
      { layer = "codec"; ns_per_call = p.encode_ns +. p.decode_ns; calls = proposal_msgs };
      { layer = "crypto"; ns_per_call = p.sign_ns; calls = signs };
      { layer = "crypto"; ns_per_call = p.verify_ns; calls = verifies };
    ];
  let u = cpu_per_ktx untraced and t = cpu_per_ktx traced in
  Printf.printf "# cpu_ms_per_ktx at the reference rate: untraced %.3f traced %.3f\n" u t;
  report "trace.overhead_share" "share" (ratio (t -. u) u);
  (tally.offered, tally.refused)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let profile = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--profile", Arg.Set_string profile, "P build profile, recorded only");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
      Printf.eprintf "unknown workload %S; known: %s\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  | Some w -> (
      try
        let repeats, attempted, failed =
          match (w, !trace) with
          | Sim spec, 0 ->
              sim_end_to_end !workload spec ~seed:!seed ~seconds:!seconds
          | Sim spec, _ ->
              (* Two (traced, untraced) pairs. *)
              let a, f = sim_per_layer !workload spec ~seed:!seed in
              (2, a, f)
          | Real, 0 ->
              let a, f = real_end_to_end ~seed:!seed ~seconds:!seconds in
              (1, a, f)
          | Real, _ ->
              let a, f = real_per_layer ~seed:!seed in
              (1, a, f)
        in
        if !trace <> 0 then
          report "cond.calib_ms" "ms"
            (Arith.median (List.init 5 (fun _ -> Calib.pass_ms ())));
        conditions ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
          ~profile:!profile ~repeats;
        json_line ~attempted ~failed
      with Failure msg ->
        Printf.printf "%!";
        Printf.eprintf "perfbench: %s\n" msg;
        exit 1)
