(* The benchmark's own arithmetic: percentile choice, failure accounting,
   the load-ladder rule, robust summaries and probe x count attribution.
   Pure functions only, so the test suite can pin every rule down. *)

(* 1-based nearest rank of the [p]th percentile of [n] samples. The
   tolerance keeps float noise (99.9% of 10000 is 9990.000000000002) from
   pushing an exact rank up by one. *)
let rank ~n p = int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9))

(* Nearest-rank percentile of an ascending array: the smallest sample with
   at least [p]% of the samples at or below it. *)
let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Arith.percentile_sorted: no samples";
  sorted.(max 0 (min (n - 1) (rank ~n p - 1)))

let percentile samples p =
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  percentile_sorted sorted p

(* Candidate tail percentiles, lowest first. *)
let tail_ladder = [ 50.0; 90.0; 99.0; 99.9; 99.99 ]

(* Samples strictly beyond the nearest-rank [p]th percentile of [n]. *)
let beyond ~n p = n - rank ~n p

(* The highest candidate percentile that leaves at least ten samples
   beyond it, or [None] when even the median does not. *)
let tail_percentile ~n =
  List.fold_left
    (fun acc p -> if beyond ~n p >= 10 then Some p else acc)
    None tail_ladder

(* Median and quartiles, as Python's [statistics.quantiles(v, n=4)] with
   its default exclusive method computes them; a single sample is its own
   median and quartiles. A quantile that falls exactly on a sample is that
   sample, so an infinite neighbour cannot turn it into NaN. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Arith.quartiles: no samples";
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      if delta = 0 then a.(j - 1)
      else
        let d = float_of_int delta in
        ((a.(j - 1) *. (4.0 -. d)) +. (a.(j) *. d)) /. 4.0
    in
    (q 1, q 2, q 3)

let median values =
  let _, m, _ = quartiles values in
  m

(* Failure accounting: a transaction fails when admission refused it or
   it did not commit within the latency limit (never committing included).
   The share is taken against everything offered. *)
type tally = { offered : int; refused : int; late : int }

let failed t = t.refused + t.late

let fail_share t =
  if t.offered <= 0 then invalid_arg "Arith.fail_share: nothing offered";
  float_of_int (failed t) /. float_of_int t.offered

(* One rung of the open-loop ladder, as measured. [backlog_mid] and
   [backlog_end] are the transactions due but not yet committed at the
   rung's midpoint and at its end. *)
type rung = {
  rate : float;  (** nominal offered tx/s *)
  achieved : float;  (** committed tx/s over the rung *)
  tail_ms : float;  (** p99 latency, failures counted as missing *)
  backlog_mid : int;
  backlog_end : int;
}

(* A rung may end with more outstanding than its midpoint by at most this
   many seconds' worth of arrivals before its backlog counts as growing. *)
let backlog_slack_s = 0.05

let rung_ok ~limit_ms r =
  r.tail_ms <= limit_ms
  && float_of_int (r.backlog_end - r.backlog_mid)
     <= backlog_slack_s *. r.rate

(* The ladder is walked in ascending rate order and stops at the first
   rung that fails, so the answer is the last passing rung before it: the
   committed rate there, or [None] if the lowest rung already fails. *)
let max_rate ~limit_ms rungs =
  let rec go best = function
    | [] -> best
    | r :: rest -> if rung_ok ~limit_ms r then go (Some r.achieved) rest else best
  in
  go None rungs

(* Probe x count attribution. Each layer's estimated busy time is its
   probed per-call cost times the run's call count; its share is that over
   the run's busy time. The remainder is what the probes do not explain;
   it goes negative when the probes over-explain the run (a probe input
   costlier than the run's typical one). *)
type layer_cost = { layer : string; ns_per_call : float; calls : int }

let attribute ~busy_s costs =
  if busy_s <= 0.0 then invalid_arg "Arith.attribute: busy time must be positive";
  let shares =
    List.map
      (fun c ->
        (c.layer, c.ns_per_call *. float_of_int c.calls *. 1e-9 /. busy_s))
      costs
  in
  let explained = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 shares in
  (shares, 1.0 -. explained)
