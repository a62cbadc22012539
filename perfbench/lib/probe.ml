(* Layer-cost probes: each layer's public function timed on inputs shaped
   like the workload's (batch fill, root mode, cluster size, queue depth,
   transaction payload). Multiplied by a run's call counts they estimate
   how busy each layer kept the run. *)

open Bamboo_types
module Sig = Bamboo_crypto.Sig

(* Nanoseconds per call of [f], as the median over five batches, each
   grown until it lasts at least 10 ms. [setup] builds a fresh input per
   batch, outside the timed region; [f] gets it and the call index. *)
let ns_per_call ?(max_k = 1 lsl 22) ~setup f =
  let time k =
    let input = setup k in
    let t0 = Meter.now_ns () in
    for i = 0 to k - 1 do
      f input i
    done;
    Meter.elapsed_ns t0
  in
  let rec calibrate k = if k >= max_k || time k >= 1e7 then k else calibrate (k * 2) in
  let k = calibrate 1 in
  Arith.median (List.init 5 (fun _ -> time k /. float_of_int k))

type shape = {
  n : int;
  fill : int;  (** transactions per block *)
  root : [ `Merkle | `Flat ];
  payload : int -> Tx.t;  (** the workload's transaction for a sequence number *)
  queue_depth : int;  (** simulator queue depth to probe at *)
}

let txs shape ~from k = List.init k (fun i -> shape.payload (from + i))

let genesis_qc = Qc.genesis ~block:Block.genesis_hash

let block ?(root = `Flat) ~view ~parent txs =
  Block.create ~root ~view ~parent ~justify:genesis_qc ~proposer:0 ~txs ()

let block_create shape =
  let batch = txs shape ~from:0 shape.fill in
  ns_per_call
    ~setup:(fun _ -> ())
    (fun () i ->
      ignore (block ~root:shape.root ~view:(i + 1) ~parent:Block.genesis batch : Block.t))

(* The Merkle construction at the workload's fill, whatever mode the
   workload itself uses: the cost a "hash less" change would cut. *)
let merkle_root shape =
  let batch = txs shape ~from:0 shape.fill in
  ns_per_call ~setup:(fun _ -> ()) (fun () _ -> ignore (Block.merkle_root batch : Ids.hash))

let mempool_add shape =
  let pool = ref (Bamboo_mempool.Mempool.create ~capacity:1 ()) in
  ns_per_call
    ~setup:(fun k ->
      pool := Bamboo_mempool.Mempool.create ~capacity:(k + 1) ();
      Array.of_list (txs shape ~from:0 k))
    (fun batch i -> ignore (Bamboo_mempool.Mempool.add !pool batch.(i) : bool))

let mempool_batch shape =
  let fill = max 1 shape.fill in
  ns_per_call ~max_k:256
    ~setup:(fun k ->
      let pool = Bamboo_mempool.Mempool.create ~capacity:((k * fill) + 1) () in
      List.iter
        (fun tx -> ignore (Bamboo_mempool.Mempool.add pool tx : bool))
        (txs shape ~from:0 (k * fill));
      pool)
    (fun pool _ -> ignore (Bamboo_mempool.Mempool.batch pool ~max:fill : Tx.t list))

(* Appending to a chain, the honest path. The root mode does not matter
   to the forest, so the chain is built with cheap flat roots. *)
let forest_add shape =
  let batch = txs shape ~from:0 shape.fill in
  ns_per_call ~max_k:4096
    ~setup:(fun k ->
      let chain = Array.make k Block.genesis in
      let parent = ref Block.genesis in
      for i = 0 to k - 1 do
        chain.(i) <- block ~view:(i + 1) ~parent:!parent batch;
        parent := chain.(i)
      done;
      (Bamboo_forest.Forest.create (), chain))
    (fun (forest, chain) i ->
      ignore (Bamboo_forest.Forest.add forest chain.(i) : Bamboo_forest.Forest.add_result))

(* One vote of a full round: n votes per view, a QC forms at the quorum. *)
let quorum_voted shape =
  let reg = Sig.setup ~n:shape.n ~master:"perfbench" in
  ns_per_call ~max_k:(1 lsl 16)
    ~setup:(fun k ->
      ( Bamboo_quorum.Quorum.create ~n:shape.n,
        Array.init k (fun i ->
            let view = (i / shape.n) + 1 in
            Vote.create reg ~voter:(i mod shape.n)
              ~block:(Printf.sprintf "%032d" view) ~view ~height:view) ))
    (fun (q, votes) i ->
      ignore (Bamboo_quorum.Quorum.voted q votes.(i) : Qc.t option))

(* One event through the simulator's queue (schedule plus fire) with
   [queue_depth] events already pending. *)
let sim_event shape =
  let depth = max 1 shape.queue_depth in
  ns_per_call
    ~setup:(fun k ->
      let sim = Bamboo_sim.Sim.create () in
      for i = 1 to depth do
        Bamboo_sim.Sim.schedule sim ~delay:(1e3 +. float_of_int i) ignore
      done;
      (sim, k))
    (fun (sim, k) i ->
      Bamboo_sim.Sim.schedule sim ~delay:(float_of_int ((i * 7919) mod 1000) *. 1e-3) ignore;
      if i = k - 1 then Bamboo_sim.Sim.run_until sim 1.0)

let proposal shape =
  let b = block ~root:shape.root ~view:1 ~parent:Block.genesis (txs shape ~from:0 shape.fill) in
  Message.Proposal { block = b; tc = None }

let codec_encode shape =
  let m = proposal shape in
  ns_per_call ~setup:(fun _ -> ()) (fun () _ -> ignore (Codec.encode m : string))

let codec_decode shape =
  let s = Codec.encode (proposal shape) in
  ns_per_call ~setup:(fun _ -> ()) (fun () _ -> ignore (Codec.decode s : Message.t))

let payload = Qc.signed_payload ~block:(String.make 32 'h') ~view:7

let sig_sign shape =
  let reg = Sig.setup ~n:shape.n ~master:"perfbench" in
  ns_per_call ~setup:(fun _ -> ()) (fun () i ->
      ignore (Sig.sign reg ~signer:(i mod shape.n) payload : Sig.t))

let sig_verify shape =
  let reg = Sig.setup ~n:shape.n ~master:"perfbench" in
  let s = Sig.sign reg ~signer:0 payload in
  ns_per_call ~setup:(fun _ -> ()) (fun () _ -> ignore (Sig.verify reg s payload : bool))

type costs = {
  block_ns : float;
  merkle_ns : float;
  mempool_add_ns : float;
  mempool_batch_ns : float;
  forest_add_ns : float;
  quorum_voted_ns : float;
  sim_event_ns : float;
  encode_ns : float;
  decode_ns : float;
  sign_ns : float;
  verify_ns : float;
}

let all shape =
  {
    block_ns = block_create shape;
    merkle_ns = merkle_root shape;
    mempool_add_ns = mempool_add shape;
    mempool_batch_ns = mempool_batch shape;
    forest_add_ns = forest_add shape;
    quorum_voted_ns = quorum_voted shape;
    sim_event_ns = sim_event shape;
    encode_ns = codec_encode shape;
    decode_ns = codec_decode shape;
    sign_ns = sig_sign shape;
    verify_ns = sig_verify shape;
  }
