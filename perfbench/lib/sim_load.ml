(* Simulator workloads: a fixed virtual horizon per workload, run through
   [Bamboo.Runtime.run] with an open-loop Poisson client at an absolute
   rate. Every count of a run is a function of (workload, seed), so
   repeats differ only in time. *)

module Config = Bamboo.Config
module Runtime = Bamboo.Runtime
module Safety = Bamboo.Safety
module Snapshot = Bamboo_metrics.Snapshot

type spec = {
  n : int;
  byz_no : int;
  strategy : Config.strategy;
  election : Config.election;
  rate : float;  (** offered tx/s *)
  horizon : float;  (** virtual seconds simulated per run *)
  warmup : float;  (** virtual seconds excluded from latency/commit tallies *)
}

let config spec ~seed =
  {
    Config.default with
    protocol = Config.Hotstuff;
    n = spec.n;
    byz_no = spec.byz_no;
    strategy = spec.strategy;
    election = spec.election;
    runtime = spec.horizon;
    warmup = spec.warmup;
    seed;
    jobs = 1;
  }

let workload spec = Bamboo.Workload.open_loop ~rate:spec.rate ()

(* What a run did, independent of how fast: equal digests mean equal
   behaviour. Latencies are virtual, so they belong here. *)
let digest (r : Runtime.result) =
  let s = r.Runtime.summary in
  Printf.sprintf
    "events=%d committed_txs=%d committed_blocks=%d forked_blocks=%d \
     views=%d p50_ms=%.6f p99_ms=%.6f"
    r.Runtime.sim_events s.committed_txs s.committed_blocks s.forked_blocks
    s.views (s.latency_p50 *. 1e3) (s.latency_p99 *. 1e3)

(* The correctness gate: agreement, no local conflict, progress. *)
let check name (r : Runtime.result) =
  if not r.Runtime.consistent then failwith (name ^ ": replicas disagree");
  if r.Runtime.any_violation then failwith (name ^ ": safety violation");
  if r.Runtime.summary.committed_txs < 1 then
    failwith (name ^ ": nothing committed")

type timed = { result : Runtime.result; wall_s : float; cpu_s : float }

let run ?metrics ?wrap_safety spec ~seed =
  let config = config spec ~seed in
  let workload = workload spec in
  let w0 = Meter.wall () and c0 = Meter.cpu () in
  let result = Runtime.run ~config ~workload ?metrics ?wrap_safety () in
  let wall_s = Meter.wall () -. w0 and cpu_s = Meter.cpu () -. c0 in
  { result; wall_s; cpu_s }

(* Set-up as the program does it: a run whose horizon ends before the
   first client arrival is processed, so what it costs is building the
   replicas, keychains, machines and network model, and booting. *)
let setup_once spec ~seed =
  let config = { (config spec ~seed) with runtime = 1e-6; warmup = 0.0 } in
  let w0 = Meter.wall () in
  ignore (Runtime.run ~config ~workload:(workload spec) () : Runtime.result);
  Meter.wall () -. w0

(* {2 Safety-rule spans} *)

type rule_spans = {
  mutable calls : int;
  mutable propose_calls : int;
  mutable busy_ns : float;
}

let rule_spans () = { calls = 0; propose_calls = 0; busy_ns = 0.0 }

(* Wraps every rule of a replica's [Safety.t] in a span; results pass
   through untouched, so the run is unchanged (the digest proves it). *)
let wrap_safety spans _replica (s : Safety.t) =
  let span f =
    let t0 = Meter.now_ns () in
    let v = f () in
    spans.busy_ns <- spans.busy_ns +. Meter.elapsed_ns t0;
    spans.calls <- spans.calls + 1;
    v
  in
  {
    s with
    Safety.propose =
      (fun ~view ~tc ->
        spans.propose_calls <- spans.propose_calls + 1;
        span (fun () -> s.Safety.propose ~view ~tc));
    should_vote = (fun ~block ~tc -> span (fun () -> s.Safety.should_vote ~block ~tc));
    on_vote_sent = (fun b -> span (fun () -> s.Safety.on_vote_sent b));
    on_qc = (fun qc -> span (fun () -> s.Safety.on_qc qc));
    note_view_abandoned = (fun v -> span (fun () -> s.Safety.note_view_abandoned v));
    high_qc = (fun () -> span s.Safety.high_qc);
    timeout_high_qc = (fun () -> span s.Safety.timeout_high_qc);
    locked = (fun () -> span s.Safety.locked);
    last_voted_view = (fun () -> span s.Safety.last_voted_view);
  }

(* {2 Gauges from the metrics registry} *)

(* Largest value of a gauge across its label sets. *)
let gauge_max snap name =
  List.fold_left
    (fun acc (m : Snapshot.metric) ->
      if String.equal m.name name then
        match m.value with
        | Snapshot.Gauge g -> Float.max acc g.max_v
        | Snapshot.Counter _ | Snapshot.Histogram _ -> acc
      else acc)
    0.0 snap.Snapshot.metrics
