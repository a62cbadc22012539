(* The TCP transport wrapped in spans, for the traced real run: it counts
   and times [send], [broadcast] and [recv_batch] and derives the replica
   loop's self time, without changing what is sent or received.

   A replica thread alternates between [recv_batch] and handling what it
   returned. The gap from one [recv_batch] return to the next call is the
   loop's handling time; minus the sends the same thread made in that gap,
   it is the loop's self time. Sends made from other threads (the
   generator's submissions) are counted but not timed. *)

module Tcp = Bamboo_network.Tcp_transport
module Message = Bamboo_types.Message

type t = {
  inner : Tcp.t;
  mutable loop_tid : int;  (** thread that calls [recv_batch] *)
  mutable returned_at : int64;  (** last [recv_batch] return, 0 = none *)
  mutable gap_send_ns : float;  (** loop-thread send time since then *)
  mutable self_ns : float;
  mutable passes : int;  (** [recv_batch] calls *)
  mutable batches : int;  (** non-empty returns *)
  mutable msgs : int;
  send_ns : Meter.samples;  (** loop-thread send durations *)
  signed_out : int Atomic.t;  (** votes and timeouts this replica originated *)
  signed_in : int Atomic.t;  (** votes and timeouts received *)
  proposals_out : int Atomic.t;
  proposal_txs : int Atomic.t;  (** transactions in those proposals *)
  timeouts_out : int Atomic.t;
}

let create ~self ~addresses =
  {
    inner = Tcp.create ~self ~addresses ();
    loop_tid = -1;
    returned_at = 0L;
    gap_send_ns = 0.0;
    self_ns = 0.0;
    passes = 0;
    batches = 0;
    msgs = 0;
    send_ns = Meter.samples ();
    signed_out = Atomic.make 0;
    signed_in = Atomic.make 0;
    proposals_out = Atomic.make 0;
    proposal_txs = Atomic.make 0;
    timeouts_out = Atomic.make 0;
  }

let self t = Tcp.self t.inner
let n t = Tcp.n t.inner
let close t = Tcp.close t.inner

(* Tallies a message this endpoint sends, once per send or broadcast. *)
let note_out t (msg : Message.t) =
  let me = Tcp.self t.inner in
  match msg with
  | Message.Vote v when v.Bamboo_types.Vote.voter = me -> Atomic.incr t.signed_out
  | Message.Timeout tm when tm.Bamboo_types.Timeout_msg.sender = me ->
      Atomic.incr t.signed_out;
      Atomic.incr t.timeouts_out
  | Message.Proposal { block; _ } when block.Bamboo_types.Block.proposer = me ->
      Atomic.incr t.proposals_out;
      ignore
        (Atomic.fetch_and_add t.proposal_txs (List.length block.Bamboo_types.Block.txs)
          : int)
  | Message.Proposal _ | Message.Vote _ | Message.Timeout _
  | Message.Request_block _ ->
      ()

let timed t f =
  if Thread.id (Thread.self ()) = t.loop_tid then begin
    let t0 = Meter.now_ns () in
    f ();
    let d = Meter.elapsed_ns t0 in
    t.gap_send_ns <- t.gap_send_ns +. d;
    Meter.add t.send_ns d
  end
  else f ()

let send t ~dst msg =
  note_out t msg;
  timed t (fun () -> Tcp.send t.inner ~dst msg)

let broadcast t msg =
  note_out t msg;
  timed t (fun () -> Tcp.broadcast t.inner msg)

let recv_batch t ~timeout_s ~max =
  t.loop_tid <- Thread.id (Thread.self ());
  if t.returned_at <> 0L then
    t.self_ns <- t.self_ns +. Meter.elapsed_ns t.returned_at -. t.gap_send_ns;
  t.gap_send_ns <- 0.0;
  let msgs = Tcp.recv_batch t.inner ~timeout_s ~max in
  t.returned_at <- Meter.now_ns ();
  t.passes <- t.passes + 1;
  (match msgs with
  | [] -> ()
  | _ ->
      t.batches <- t.batches + 1;
      List.iter
        (fun (m : Message.t) ->
          t.msgs <- t.msgs + 1;
          match m with
          | Message.Vote _ | Message.Timeout _ -> Atomic.incr t.signed_in
          | Message.Proposal _ | Message.Request_block _ -> ())
        msgs);
  msgs

let recv t ~timeout_s =
  match recv_batch t ~timeout_s ~max:1 with m :: _ -> Some m | [] -> None
