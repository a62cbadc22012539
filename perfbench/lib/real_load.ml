(* The real workload: four replicas of [Threaded_runtime.Make_batched]
   over loopback TCP inside this process, driven by an open-loop Poisson
   generator that walks a fixed ladder of rates.

   The generator is the benchmark's own, not [Threaded_runtime.run]: that
   loop sleeps a fixed 2 ms between Poisson draws and so delivers less
   than its nominal rate. Here every transaction has a due time drawn in
   advance, is submitted as soon as it is due, and is timed from its due
   time, so a stall in the generator counts against latency and shows as
   generator lag. *)

module Config = Bamboo.Config
module Tx = Bamboo_types.Tx
module Tcp = Bamboo_network.Tcp_transport

(* The latency limit the ladder's p99 must meet. *)
let limit_ms = 100.0

(* The load is offered in one-second windows; a rung is a run of windows
   at one rate and reports the median over its windows, so a single stall
   of the shared machine does not decide a rung. Each window drains (up to
   the limit) before the next starts. *)
let window_s = 1.0

(* Windows run first and not measured, while the cluster's tables and
   heap grow to their working size. *)
let warm_windows = 2

(* The reference rung, where latency and CPU are reported, and the higher
   rungs of the ladder, in ascending order. *)
let reference_rate = 2000.0
let upper_rungs = [ 4000.0; 6000.0 ]
let upper_windows = 3

(* A transport the benchmark can instantiate the runtime over: the TCP
   transport itself, or the same wrapped in spans. *)
module type TRANSPORT = sig
  include Bamboo_network.Transport.S_batched

  val create : self:int -> addresses:(int * Unix.sockaddr) list -> t
end

module Plain = struct
  include Tcp

  let create ~self ~addresses = Tcp.create ~self ~addresses ()
end

(* The workload's transaction: a key-value write, so committed blocks
   exercise the execution layer. 1024 keys are overwritten in turn. *)
let make_tx ~seq =
  let cmd =
    Bamboo.Kvstore.Put
      { key = Printf.sprintf "k%d" (seq mod 1024); value = string_of_int seq }
  in
  Tx.make_with_data ~client:7 ~seq ~data:(Bamboo.Kvstore.encode_command cmd)

(* One due transaction, tracked until its commit is observed. *)
type pending = { id : Tx.id; due : float }

type window = {
  rung : Arith.rung;  (** this window alone, as a one-window rung *)
  unfinished : Tx.id list;  (** admitted but not committed when the drain ended *)
  tally : Arith.tally;
  samples : float array;  (** ms, failures as infinity *)
  lag : float array;  (** ms the generator submitted behind schedule *)
  cpu_s : float;
  wall_s : float;  (** first due time to the last observed commit *)
  committed : int;
}

module Gen (T : TRANSPORT) = struct
  module C = Bamboo.Threaded_runtime.Make_batched (T)

  (* Creates one listening endpoint per replica on consecutive loopback
     ports, moving to another port range when one is taken. Returns the
     endpoints and the attempt that succeeded. *)
  let endpoints ~n ~attempt =
    let rec go attempt =
      if attempt > 20 then failwith "real-tcp-n4: no free loopback port range";
      let base_port =
        20_000 + (((Unix.getpid () * 7) + (attempt * 97)) mod 30_000)
      in
      let addresses = Tcp.loopback_addresses ~n ~base_port in
      let made = ref [] in
      match
        for self = 0 to n - 1 do
          made := T.create ~self ~addresses :: !made
        done
      with
      | () -> (Array.of_list (List.rev !made), attempt)
      | exception Unix.Unix_error _ ->
          List.iter T.close !made;
          go (attempt + 1)
    in
    go attempt

  (* Draws the rung's arrivals: due offsets and target replicas. *)
  let arrivals rng ~n ~rate ~duration =
    let rec go t acc =
      let t = t +. Bamboo_util.Dist.exponential rng ~rate in
      if t >= duration then Array.of_list (List.rev acc)
      else go t ((t, Bamboo_util.Rng.int rng n) :: acc)
    in
    go 0.0 []

  (* Offers one window of load and drains it. [on_submit] sees every
     submit_admission call: its duration in ns, its size, and how many of
     its transactions were admitted. *)
  let run_window cluster ~n ~rng ~seq ~rate ~on_submit =
    let duration = window_s in
    let plan = arrivals rng ~n ~rate ~duration in
    let queues = Array.init n (fun _ -> Queue.create ()) in
    let latencies = ref [] and lags = ref [] in
    let refused = ref 0 and late = ref 0 and committed = ref 0 in
    let outstanding = ref 0 in
    let limit_s = limit_ms /. 1e3 in
    let poll now =
      Array.iter
        (fun q ->
          let rec drain () =
            match Queue.peek_opt q with
            | Some p when C.tx_committed cluster p.id ->
                ignore (Queue.pop q : pending);
                decr outstanding;
                incr committed;
                let l = now -. p.due in
                if l > limit_s then incr late;
                latencies := (l *. 1e3) :: !latencies;
                drain ()
            | Some _ | None -> ()
          in
          drain ())
        queues
    in
    let batch = Array.make n [] in
    let c0 = Meter.cpu () in
    let start = Meter.wall () in
    let next = ref 0 and backlog_mid = ref (-1) and backlog_end = ref (-1) in
    let total = Array.length plan in
    let last_commit = ref start in
    let finished = ref false in
    while not !finished do
      let now = Meter.wall () in
      (* Submit everything due, one admission call per target replica. *)
      while !next < total && start +. fst plan.(!next) <= now do
        let off, target = plan.(!next) in
        incr seq;
        batch.(target) <- (make_tx ~seq:!seq, start +. off) :: batch.(target);
        incr next
      done;
      Array.iteri
        (fun target txs ->
          if txs <> [] then begin
            let txs = List.rev txs in
            batch.(target) <- [];
            let t0 = Meter.now_ns () in
            let admitted =
              C.submit_admission cluster ~replica:target (List.map fst txs)
            in
            on_submit ~ns:(Meter.elapsed_ns t0) ~txs:(List.length txs) ~admitted;
            let submitted_at = Meter.wall () in
            (* A full pool refuses the tail of a batch. *)
            List.iteri
              (fun i ((tx : Tx.t), due) ->
                lags := ((submitted_at -. due) *. 1e3) :: !lags;
                if i < admitted then begin
                  Queue.push { id = tx.Tx.id; due } queues.(target);
                  incr outstanding
                end
                else incr refused)
              txs
          end)
        batch;
      let before = !committed in
      poll (Meter.wall ());
      if !committed > before then last_commit := Meter.wall ();
      let now = Meter.wall () in
      if !backlog_mid < 0 && now -. start >= duration /. 2.0 then
        backlog_mid := !outstanding;
      if !backlog_end < 0 && now -. start >= duration then
        backlog_end := !outstanding;
      if !next >= total && (!outstanding = 0 || now -. start >= duration +. limit_s)
      then finished := true
      else begin
        let wake =
          if !next < total then Float.min (start +. fst plan.(!next)) (now +. 0.0005)
          else now +. 0.0005
        in
        if wake > now then Thread.delay (wake -. now)
      end
    done;
    let cpu_s = Meter.cpu () -. c0 in
    (* Whatever is still outstanding never committed within the limit. *)
    late := !late + !outstanding;
    if !backlog_end < 0 then backlog_end := !outstanding;
    let samples =
      Array.of_list
        (List.rev_append !latencies (List.init (!refused + !outstanding) (fun _ -> infinity)))
    in
    Array.sort Float.compare samples;
    let tail_ms =
      if Array.length samples = 0 then infinity
      else Arith.percentile_sorted samples 99.0
    in
    {
      rung =
        {
          Arith.rate;
          achieved = float_of_int !committed /. duration;
          tail_ms;
          backlog_mid = max 0 !backlog_mid;
          backlog_end = !backlog_end;
        };
      tally = { Arith.offered = total; refused = !refused; late = !late };
      samples;
      lag = Array.of_list !lags;
      cpu_s;
      wall_s = !last_commit -. start;
      committed = !committed;
      unfinished =
        Array.fold_left
          (fun acc q -> Queue.fold (fun acc p -> p.id :: acc) acc q)
          [] queues;
    }

  let run_rung cluster ~n ~rng ~seq ~rate ~windows ~on_submit =
    List.init windows (fun _ -> run_window cluster ~n ~rng ~seq ~rate ~on_submit)

  (* Set-up: endpoints listening, replicas started, and a first
     transaction committed. Returns the cluster (kept for the run), its
     endpoints, the set-up time and the next port attempt. *)
  let setup ~config ~attempt ~seq =
    let t0 = Meter.wall () in
    let eps, attempt = endpoints ~n:config.Config.n ~attempt in
    let cluster = C.start ~config ~endpoints:eps () in
    incr seq;
    let tx = make_tx ~seq:!seq in
    ignore (C.submit_admission cluster ~replica:0 [ tx ] : int);
    let deadline = t0 +. 10.0 in
    while (not (C.tx_committed cluster tx.Tx.id)) && Meter.wall () < deadline do
      Thread.delay 0.0002
    done;
    if not (C.tx_committed cluster tx.Tx.id) then begin
      ignore (C.stop cluster : Bamboo.Threaded_runtime.report);
      failwith "real-tcp-n4: first transaction did not commit within 10 s"
    end;
    (cluster, eps, Meter.wall () -. t0, attempt + 1)
end

(* A rung as the median of its windows. *)
let rung_of (ws : window list) =
  let med f = Arith.median (List.map f ws) in
  let rate = (List.hd ws).rung.Arith.rate in
  {
    Arith.rate;
    achieved = med (fun w -> w.rung.Arith.achieved);
    tail_ms = med (fun w -> w.rung.Arith.tail_ms);
    backlog_mid = int_of_float (med (fun w -> float_of_int w.rung.Arith.backlog_mid));
    backlog_end = int_of_float (med (fun w -> float_of_int w.rung.Arith.backlog_end));
  }

let tally_of (ws : window list) =
  List.fold_left
    (fun (acc : Arith.tally) w ->
      {
        Arith.offered = acc.offered + w.tally.Arith.offered;
        refused = acc.refused + w.tally.Arith.refused;
        late = acc.late + w.tally.Arith.late;
      })
    { Arith.offered = 0; refused = 0; late = 0 }
    ws
