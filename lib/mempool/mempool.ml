open Bamboo_types
module Deque = Bamboo_util.Deque

module Int_tbl = Hashtbl.Make (Int)

let bitmap_cap_bits = 1 lsl 16

(* The committed seqs of one client, exactly and without eviction:
   - every seq in the run [lo, hi);
   - seqs in the window (hi, hi + nbits) whose bit is set in [bits], a
     ring indexed by [seq land (nbits - 1)]; the window slides with [hi],
     and the bit at [hi]'s own position is always clear;
   - seqs in [extra]: those that arrived below [lo - 1] or past the
     window. [extra] is drained whenever [lo] or [hi] moves onto one of
     them, so a client whose seqs are eventually dense collapses back to a
     bare run.
   The bitmap doubles while the new size stays within [bitmap_cap_bits]
   and within 64 bits per committed seq held above [hi]; past either
   limit a seq goes to [extra]. Sparse or adversarial seqs therefore never
   make the bitmap cost more than a table entry would. [max_int] is always
   kept in [extra] so that [hi] never overflows. *)
module Committed = struct
  type t = {
    mutable lo : int;
    mutable hi : int;
    mutable bits : Bytes.t;
    mutable live : int; (* bits set *)
    extra : unit Int_tbl.t;
  }

  let create () =
    { lo = 0; hi = 0; bits = Bytes.empty; live = 0; extra = Int_tbl.create 1 }

  let nbits t = 8 * Bytes.length t.bits

  let bit_get bits nbits s =
    let p = s land (nbits - 1) in
    Char.code (Bytes.unsafe_get bits (p lsr 3)) land (1 lsl (p land 7)) <> 0

  let bit_flip bits nbits s =
    let p = s land (nbits - 1) in
    let b = Char.code (Bytes.unsafe_get bits (p lsr 3)) in
    Bytes.unsafe_set bits (p lsr 3) (Char.unsafe_chr (b lxor (1 lsl (p land 7))))

  (* The distance [s - hi] when [s] lies in the window above [hi], else 0.
     [s > hi] rules out a wrapped subtraction landing in range. *)
  let above t s =
    let d = s - t.hi in
    if s > t.hi && d > 0 then d else 0

  let in_extra t s = Int_tbl.length t.extra > 0 && Int_tbl.mem t.extra s

  let take_extra t s =
    in_extra t s
    && begin
         Int_tbl.remove t.extra s;
         if Int_tbl.length t.extra = 0 then Int_tbl.reset t.extra;
         true
       end

  let mem t s =
    (s >= t.lo && s < t.hi)
    || (let d = above t s in
        d > 0 && d < nbits t && bit_get t.bits (nbits t) s)
    || in_extra t s

  let rec drain_up t =
    let n = nbits t in
    if t.hi < max_int then
      if n > 0 && bit_get t.bits n t.hi then begin
        bit_flip t.bits n t.hi;
        t.live <- t.live - 1;
        t.hi <- t.hi + 1;
        drain_up t
      end
      else if take_extra t t.hi then begin
        t.hi <- t.hi + 1;
        drain_up t
      end

  let rec drain_down t =
    if t.lo > min_int && take_extra t (t.lo - 1) then begin
      t.lo <- t.lo - 1;
      drain_down t
    end

  (* Re-lays the window's set bits out in a ring of [size] bits. *)
  let grow t size =
    let n = nbits t and fresh = Bytes.make (size / 8) '\000' in
    if t.live > 0 then
      for d = 1 to n - 1 do
        let s = t.hi + d in
        if bit_get t.bits n s then bit_flip fresh size s
      done;
    t.bits <- fresh

  let fits_window t d =
    d < nbits t
    || d < bitmap_cap_bits
       &&
       let size = ref (Int.max 64 (2 * nbits t)) in
       while !size <= d do
         size := 2 * !size
       done;
       !size <= 64 * (t.live + 1)
       && begin
            grow t !size;
            true
          end

  let add t s =
    if not (mem t s) then
      if s = max_int then Int_tbl.replace t.extra s ()
      else if t.lo = t.hi then begin
        (* empty run: anchor it here *)
        t.lo <- s;
        t.hi <- s + 1;
        drain_up t;
        drain_down t
      end
      else if s = t.hi then begin
        t.hi <- s + 1;
        drain_up t
      end
      else if s < t.lo && s = t.lo - 1 then begin
        t.lo <- s;
        drain_down t
      end
      else
        let d = above t s in
        if d > 0 && fits_window t d then begin
          bit_flip t.bits (nbits t) s;
          t.live <- t.live + 1
        end
        else Int_tbl.replace t.extra s ()
end

(* Only ids this pool still owes a decision: bounded by the capacity plus
   the txs of batches not yet committed or requeued. *)
type status = Queued | In_flight

(* Keyed by the boxed [Tx.id] record, so lookups go through the
   monomorphic hash/equal of [Tx.Id_tbl] rather than the polymorphic
   primitives. *)
type t = {
  queue : Tx.t Deque.t;
  status : status Tx.Id_tbl.t;
  committed : Committed.t Int_tbl.t; (* by client *)
  cap : int;
  (* observe-only tallies, surfaced through [stats] *)
  mutable peak : int;
  mutable n_batches : int;
  mutable n_batched : int;
  mutable n_rejected_full : int;
  mutable n_rejected_dup : int;
}

type stats = {
  peak_occupancy : int;
  batches : int;
  batched_txs : int;
  rejected_full : int;
  rejected_dup : int;
}

let create ?(capacity = 1000) () =
  if capacity <= 0 then invalid_arg "Mempool.create: capacity must be positive";
  {
    queue = Deque.create ();
    status = Tx.Id_tbl.create 256;
    committed = Int_tbl.create 4;
    cap = capacity;
    peak = 0;
    n_batches = 0;
    n_batched = 0;
    n_rejected_full = 0;
    n_rejected_dup = 0;
  }

let stats t =
  {
    peak_occupancy = t.peak;
    batches = t.n_batches;
    batched_txs = t.n_batched;
    rejected_full = t.n_rejected_full;
    rejected_dup = t.n_rejected_dup;
  }

let length t = Deque.length t.queue
let is_empty t = Deque.is_empty t.queue
let capacity t = t.cap

let is_committed t (id : Tx.id) =
  match Int_tbl.find_opt t.committed id.client with
  | Some set -> Committed.mem set id.seq
  | None -> false

let add t (tx : Tx.t) =
  if Deque.length t.queue >= t.cap then begin
    t.n_rejected_full <- t.n_rejected_full + 1;
    false
  end
  else if Tx.Id_tbl.mem t.status tx.id || is_committed t tx.id then begin
    t.n_rejected_dup <- t.n_rejected_dup + 1;
    false
  end
  else begin
    Tx.Id_tbl.add t.status tx.id Queued;
    Deque.push_back t.queue tx;
    let len = Deque.length t.queue in
    if len > t.peak then t.peak <- len;
    true
  end

let requeue_front t txs =
  (* Preserve relative order: pushing front in reverse keeps the original
     order at the head of the queue. *)
  let count = ref 0 in
  List.iter
    (fun (tx : Tx.t) ->
      match Tx.Id_tbl.find_opt t.status tx.id with
      | Some Queued -> ()
      | None ->
          (* Committed, or not from this replica's pool: the forked block
             was proposed by another node; its proposer re-queues it
             there. *)
          ()
      | Some In_flight ->
          if Deque.length t.queue < t.cap then begin
            Tx.Id_tbl.replace t.status tx.id Queued;
            Deque.push_front t.queue tx;
            incr count
          end
          else Tx.Id_tbl.remove t.status tx.id)
    (List.rev txs);
  let len = Deque.length t.queue in
  if len > t.peak then t.peak <- len;
  !count

let batch t ~max =
  if max < 0 then invalid_arg "Mempool.batch: negative max";
  let rec take acc k =
    if k = 0 then List.rev acc
    else
      match Deque.pop_front t.queue with
      | None -> List.rev acc
      | Some tx ->
          (* A queued tx without a status was committed meanwhile through
             a block proposed elsewhere (client-broadcast mode); skip it. *)
          if Tx.Id_tbl.mem t.status tx.Tx.id then begin
            Tx.Id_tbl.replace t.status tx.Tx.id In_flight;
            take (tx :: acc) (k - 1)
          end
          else take acc k
  in
  let taken = take [] max in
  t.n_batches <- t.n_batches + 1;
  t.n_batched <- t.n_batched + List.length taken;
  taken

let committed_for t client =
  match Int_tbl.find_opt t.committed client with
  | Some set -> set
  | None ->
      let set = Committed.create () in
      Int_tbl.add t.committed client set;
      set

(* A block's txs mostly share one client: its set is looked up once per
   run of equal clients. *)
let forget t txs =
  let rec go client set = function
    | [] -> ()
    | (tx : Tx.t) :: rest ->
        let id = tx.id in
        Tx.Id_tbl.remove t.status id;
        let set = if id.client = client then set else committed_for t id.client in
        Committed.add set id.seq;
        go id.client set rest
  in
  match txs with
  | [] -> ()
  | (tx : Tx.t) :: _ -> go tx.id.client (committed_for t tx.id.client) txs

let contains t id = Tx.Id_tbl.mem t.status id
