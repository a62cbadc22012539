module Mempool = Bamboo_mempool.Mempool
open Bamboo_types

let tx = Helpers.tx

let test_add_and_batch_fifo () =
  let p = Mempool.create () in
  let txs = Helpers.txs 5 in
  List.iter (fun t -> ignore (Mempool.add p t)) txs;
  Alcotest.(check int) "length" 5 (Mempool.length p);
  let batch = Mempool.batch p ~max:3 in
  Alcotest.(check int) "batch size" 3 (List.length batch);
  Alcotest.(check bool) "FIFO order" true
    (List.for_all2 Tx.equal batch (List.filteri (fun i _ -> i < 3) txs));
  Alcotest.(check int) "remaining" 2 (Mempool.length p)

let test_batch_more_than_available () =
  let p = Mempool.create () in
  ignore (Mempool.add p (tx 1));
  let batch = Mempool.batch p ~max:10 in
  Alcotest.(check int) "takes what exists" 1 (List.length batch)

let test_dedup () =
  let p = Mempool.create () in
  Alcotest.(check bool) "first add" true (Mempool.add p (tx 1));
  Alcotest.(check bool) "duplicate rejected" false (Mempool.add p (tx 1));
  Alcotest.(check int) "length" 1 (Mempool.length p)

let test_inflight_dedup () =
  let p = Mempool.create () in
  ignore (Mempool.add p (tx 1));
  ignore (Mempool.batch p ~max:1);
  Alcotest.(check bool) "in-flight still rejected" false (Mempool.add p (tx 1));
  Alcotest.(check bool) "contains in-flight" true
    (Mempool.contains p (tx 1).Tx.id)

let test_capacity () =
  let p = Mempool.create ~capacity:2 () in
  Alcotest.(check bool) "1" true (Mempool.add p (tx 1));
  Alcotest.(check bool) "2" true (Mempool.add p (tx 2));
  Alcotest.(check bool) "3 rejected" false (Mempool.add p (tx 3));
  ignore (Mempool.batch p ~max:1);
  Alcotest.(check bool) "space after batch" true (Mempool.add p (tx 3))

let test_rejection_stats_split () =
  let p = Mempool.create ~capacity:2 () in
  ignore (Mempool.add p (tx 1));
  ignore (Mempool.add p (tx 1));
  (* duplicate *)
  ignore (Mempool.add p (tx 2));
  ignore (Mempool.add p (tx 3));
  (* full *)
  ignore (Mempool.add p (tx 4));
  (* full *)
  let s = Mempool.stats p in
  Alcotest.(check int) "rejected_full" 2 s.Mempool.rejected_full;
  Alcotest.(check int) "rejected_dup" 1 s.Mempool.rejected_dup;
  (* capacity is checked before dedup: a duplicate hitting a full pool
     is tallied as backpressure, not as a duplicate *)
  ignore (Mempool.add p (tx 2));
  let s = Mempool.stats p in
  Alcotest.(check int) "full takes precedence" 3 s.Mempool.rejected_full;
  Alcotest.(check int) "dup unchanged" 1 s.Mempool.rejected_dup

let test_requeue_front_order () =
  let p = Mempool.create () in
  List.iter (fun t -> ignore (Mempool.add p t)) [ tx 1; tx 2; tx 3; tx 4 ];
  let batch = Mempool.batch p ~max:2 in
  (* queue: [3;4], forked batch [1;2] goes back to the FRONT in order. *)
  let n = Mempool.requeue_front p batch in
  Alcotest.(check int) "requeued" 2 n;
  let next = Mempool.batch p ~max:4 in
  Alcotest.(check (list int)) "front order preserved"
    [ 1; 2; 3; 4 ]
    (List.map (fun (t : Tx.t) -> t.id.seq) next)

let test_requeue_skips_committed () =
  let p = Mempool.create () in
  ignore (Mempool.add p (tx 1));
  let batch = Mempool.batch p ~max:1 in
  Mempool.forget p batch;
  Alcotest.(check int) "committed not requeued" 0 (Mempool.requeue_front p batch)

let test_requeue_skips_foreign () =
  let p = Mempool.create () in
  (* A forked block proposed by another replica contains txs this pool has
     never seen: they must not be adopted. *)
  Alcotest.(check int) "foreign skipped" 0
    (Mempool.requeue_front p [ tx 42 ]);
  Alcotest.(check int) "still empty" 0 (Mempool.length p)

let test_requeue_skips_queued () =
  let p = Mempool.create () in
  ignore (Mempool.add p (tx 1));
  Alcotest.(check int) "already queued" 0 (Mempool.requeue_front p [ tx 1 ])

let test_forget_blocks_readds () =
  let p = Mempool.create () in
  ignore (Mempool.add p (tx 1));
  let batch = Mempool.batch p ~max:1 in
  Mempool.forget p batch;
  Alcotest.(check bool) "committed never re-added" false (Mempool.add p (tx 1));
  Alcotest.(check bool) "not contained" false (Mempool.contains p (tx 1).Tx.id)

let test_batch_skips_committed_in_queue () =
  (* Client-broadcast mode: a tx committed through another replica's block
     while still queued here must be dropped by batch, not proposed again. *)
  let p = Mempool.create () in
  ignore (Mempool.add p (tx 1));
  ignore (Mempool.add p (tx 2));
  Mempool.forget p [ tx 1 ];
  let batch = Mempool.batch p ~max:2 in
  Alcotest.(check (list int)) "only live tx"
    [ 2 ]
    (List.map (fun (t : Tx.t) -> t.id.seq) batch)

let test_requeue_respects_capacity () =
  let p = Mempool.create ~capacity:3 () in
  List.iter (fun t -> ignore (Mempool.add p t)) [ tx 1; tx 2; tx 3 ];
  let batch = Mempool.batch p ~max:2 in
  ignore (Mempool.add p (tx 4));
  ignore (Mempool.add p (tx 5));
  (* queue full again: [3;4;5]; requeueing 2 can only fit 0. *)
  Alcotest.(check int) "capacity respected" 0 (Mempool.requeue_front p batch)

let no_duplicate_batches_prop =
  let open QCheck in
  let gen = Gen.list_size (Gen.int_range 0 120) (Gen.int_range 0 30) in
  Test.make ~name:"a tx is never batched twice unless requeued" ~count:200
    (make ~print:(fun l -> string_of_int (List.length l)) gen)
    (fun seqs ->
      let p = Mempool.create ~capacity:1000 () in
      List.iter (fun s -> ignore (Mempool.add p (tx s))) seqs;
      let b1 = Mempool.batch p ~max:10 in
      let b2 = Mempool.batch p ~max:10 in
      let ids b = List.map (fun (t : Tx.t) -> t.Tx.id) b in
      List.for_all (fun i -> not (List.mem i (ids b2))) (ids b1))

(* A reference model of the pool's semantics: one status per id ever seen
   (committed ids included) and the queue as a front-first list. *)
module Model = struct
  type st = Queued | In_flight | Committed

  type t = {
    mutable queue : Tx.t list;
    status : (int * int, st) Hashtbl.t;
    cap : int;
  }

  let key (tx : Tx.t) = (tx.id.client, tx.id.seq)
  let create cap = { queue = []; status = Hashtbl.create 64; cap }
  let length m = List.length m.queue

  let add m tx =
    if length m >= m.cap || Hashtbl.mem m.status (key tx) then false
    else begin
      Hashtbl.replace m.status (key tx) Queued;
      m.queue <- m.queue @ [ tx ];
      true
    end

  let requeue_front m txs =
    List.fold_left
      (fun n tx ->
        match Hashtbl.find_opt m.status (key tx) with
        | Some In_flight ->
            if length m < m.cap then begin
              Hashtbl.replace m.status (key tx) Queued;
              m.queue <- tx :: m.queue;
              n + 1
            end
            else begin
              Hashtbl.remove m.status (key tx);
              n
            end
        | Some Queued | Some Committed | None -> n)
      0 (List.rev txs)

  let batch m k =
    let rec take acc k =
      match m.queue with
      | tx :: rest when k > 0 ->
          m.queue <- rest;
          if Hashtbl.find_opt m.status (key tx) = Some Committed then take acc k
          else begin
            Hashtbl.replace m.status (key tx) In_flight;
            take (tx :: acc) (k - 1)
          end
      | _ -> List.rev acc
    in
    take [] k

  let forget m txs = List.iter (fun tx -> Hashtbl.replace m.status (key tx) Committed) txs

  let contains m tx =
    match Hashtbl.find_opt m.status (key tx) with
    | Some Queued | Some In_flight -> true
    | Some Committed | None -> false
end

(* Dense, sparse, negative and extreme seqs over three clients, so that
   runs, bitmap windows (including the cap edge) and the overflow table
   all see traffic. *)
let universe =
  let dense = List.init 48 Fun.id in
  let odd =
    [ 1 lsl 40; (1 lsl 40) + 1; (1 lsl 40) + (1 lsl 17); -1; -2; -3; -64;
      65_535; 65_536; 65_537; 131_072; max_int; max_int - 1; min_int;
      min_int + 1 ]
  in
  Array.of_list
    (List.concat_map
       (fun client -> List.map (fun seq -> tx ~client seq) (dense @ odd))
       [ 0; 1; 7 ])

type op =
  | Add of int
  | Batch of int
  | Forget of int list
  | Forget_last_batch
  | Requeue of int list
  | Requeue_last_batch
  | Contains of int

let show_op = function
  | Add i -> Printf.sprintf "add %d" i
  | Batch k -> Printf.sprintf "batch %d" k
  | Forget l -> "forget [" ^ String.concat ";" (List.map string_of_int l) ^ "]"
  | Forget_last_batch -> "forget last batch"
  | Requeue l -> "requeue [" ^ String.concat ";" (List.map string_of_int l) ^ "]"
  | Requeue_last_batch -> "requeue last batch"
  | Contains i -> Printf.sprintf "contains %d" i

let model_prop =
  let open QCheck in
  let idx = Gen.int_bound (Array.length universe - 1) in
  let op =
    Gen.frequency
      [
        (6, Gen.map (fun i -> Add i) idx);
        (2, Gen.map (fun k -> Batch k) (Gen.int_range 0 6));
        (2, Gen.map (fun l -> Forget l) (Gen.list_size (Gen.int_range 0 12) idx));
        (2, Gen.return Forget_last_batch);
        (1, Gen.map (fun l -> Requeue l) (Gen.list_size (Gen.int_range 0 6) idx));
        (1, Gen.return Requeue_last_batch);
        (2, Gen.map (fun i -> Contains i) idx);
      ]
  in
  let gen = Gen.pair (Gen.int_range 1 24) (Gen.list_size (Gen.int_range 0 300) op) in
  Test.make ~name:"pool agrees with the reference model" ~count:500
    (make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "cap %d: %s" cap (String.concat ", " (List.map show_op ops)))
       gen)
    (fun (cap, ops) ->
      let p = Mempool.create ~capacity:cap () and m = Model.create cap in
      let last = ref [] in
      let ids l = List.map (fun (t : Tx.t) -> (t.id.client, t.id.seq)) l in
      let txs l = List.map (fun i -> universe.(i)) l in
      List.for_all
        (fun op ->
          let same =
            match op with
            | Add i -> Mempool.add p universe.(i) = Model.add m universe.(i)
            | Batch k ->
                let got = Mempool.batch p ~max:k in
                last := got;
                ids got = ids (Model.batch m k)
            | Forget l ->
                Mempool.forget p (txs l);
                Model.forget m (txs l);
                true
            | Forget_last_batch ->
                Mempool.forget p !last;
                Model.forget m !last;
                true
            | Requeue l -> Mempool.requeue_front p (txs l) = Model.requeue_front m (txs l)
            | Requeue_last_batch ->
                Mempool.requeue_front p !last = Model.requeue_front m !last
            | Contains i ->
                Mempool.contains p universe.(i).id = Model.contains m universe.(i)
          in
          same && Mempool.length p = Model.length m)
        ops
      (* every id's final verdict agrees too: committed ones are refused *)
      && Array.for_all
           (fun t -> Mempool.contains p t.Tx.id = Model.contains m t)
           universe)

(* Committed membership stays exact over long shuffled, sparse and
   adversarial streams: afterwards exactly the forgotten ids are refused. *)
let committed_exact_prop =
  let open QCheck in
  let seq_gen =
    Gen.frequency
      [
        (6, Gen.int_range 0 3000);
        (1, Gen.map (fun k -> (1 lsl 40) + (k * 97)) (Gen.int_range 0 50));
        (1, Gen.int_range (-200) (-1));
        (1, Gen.oneofl [ max_int; max_int - 1; min_int; min_int + 1; 65_536 ]);
      ]
  in
  let gen = Gen.list_size (Gen.int_range 0 3000) (Gen.pair (Gen.int_range 0 2) seq_gen) in
  Test.make ~name:"committed set is exact" ~count:100
    (make ~print:(fun l -> Printf.sprintf "%d forgets" (List.length l)) gen)
    (fun forgotten ->
      let p = Mempool.create ~capacity:max_int () in
      Mempool.forget p (List.map (fun (client, seq) -> tx ~client seq) forgotten);
      let gone = Hashtbl.create 64 in
      List.iter (fun k -> Hashtbl.replace gone k ()) forgotten;
      let probe = List.concat_map (fun (c, s) -> [ (c, s); (c, s + 1); (c, s - 1); (c + 1, s) ]) forgotten in
      List.for_all
        (fun (client, seq) ->
          Mempool.add p (tx ~client seq) = not (Hashtbl.mem gone (client, seq)))
        (List.sort_uniq compare probe))

let shuffled_windows ~seed ~window ~total f =
  let rng = Random.State.make [| seed |] in
  let w = Array.make window 0 in
  let base = ref 0 in
  while !base < total do
    for i = 0 to window - 1 do
      w.(i) <- !base + i
    done;
    for i = window - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let x = w.(i) in
      w.(i) <- w.(j);
      w.(j) <- x
    done;
    f (Array.to_list w);
    base := !base + window
  done

(* The committed record compacts: 1M dense commits, arriving shuffled
   within 4k windows, leave the pool a few KiB, not one table entry per
   id; and no seq past the last committed one reads as committed. *)
let test_footprint_dense () =
  let p = Mempool.create ~capacity:20_000 () in
  shuffled_windows ~seed:3 ~window:4096 ~total:1_000_000 (fun seqs ->
      Mempool.forget p (List.map tx seqs));
  let words = Obj.reachable_words (Obj.repr p) in
  if words > 640 then Alcotest.failf "pool holds %d words after 1M commits" words;
  Alcotest.(check bool) "first refused" false (Mempool.add p (tx 0));
  Alcotest.(check bool) "last refused" false (Mempool.add p (tx 1_003_519));
  for seq = 1_003_520 to 1_013_519 do
    if not (Mempool.add p (tx seq)) then Alcotest.failf "seq %d refused" seq
  done

(* Sparse or adversarial seqs cost a table entry each: the bitmap never
   grows past its cap, however far above the run a seq lands. *)
let test_footprint_adversarial () =
  let p = Mempool.create () in
  (* seq 0 missing: the run cannot advance, so 1..1500 fill the bitmap *)
  Mempool.forget p [ tx 5000 ];
  Mempool.forget p (List.init 1500 (fun i -> tx (5001 + i)));
  Mempool.forget p [ tx (-7) ];
  let before = Obj.reachable_words (Obj.repr p) in
  let far =
    [ 5000 + Mempool.bitmap_cap_bits - 1; 5000 + Mempool.bitmap_cap_bits;
      5000 + (4 * Mempool.bitmap_cap_bits); 1 lsl 40; max_int; min_int; -1_000_000 ]
  in
  Mempool.forget p (List.map tx far);
  let after = Obj.reachable_words (Obj.repr p) in
  let allowed = (Mempool.bitmap_cap_bits / 64) + 64 + (16 * List.length far) in
  if after - before > allowed then
    Alcotest.failf "adversarial seqs grew the pool by %d words (allowed %d)"
      (after - before) allowed;
  List.iter
    (fun seq -> Alcotest.(check bool) (string_of_int seq) false (Mempool.add p (tx seq)))
    far;
  Alcotest.(check bool) "gap still open" true (Mempool.add p (tx 4999));
  (* scattered single seqs on fresh clients never build a bitmap *)
  let q = Mempool.create () in
  Mempool.forget q [ tx ~client:1 0 ];
  let base = Obj.reachable_words (Obj.repr q) in
  Mempool.forget q (List.init 64 (fun k -> tx ~client:1 ((k + 1) * 1000)));
  let grown = Obj.reachable_words (Obj.repr q) - base in
  if grown > 512 then Alcotest.failf "64 sparse seqs cost %d words" grown

let test_forget_queued () =
  let p = Mempool.create ~capacity:3 () in
  List.iter (fun t -> ignore (Mempool.add p t)) [ tx 1; tx 2; tx 3 ];
  Mempool.forget p [ tx 2 ];
  Alcotest.(check bool) "not contained" false (Mempool.contains p (tx 2).Tx.id);
  Alcotest.(check int) "still occupies the queue" 3 (Mempool.length p);
  Alcotest.(check bool) "refused while full" false (Mempool.add p (tx 4));
  Alcotest.(check (list int)) "skipped by batch" [ 1; 3 ]
    (List.map (fun (t : Tx.t) -> t.id.seq) (Mempool.batch p ~max:3));
  Alcotest.(check bool) "refused after drain" false (Mempool.add p (tx 2))

let suite =
  [
    Alcotest.test_case "add/batch FIFO" `Quick test_add_and_batch_fifo;
    Alcotest.test_case "batch underflow" `Quick test_batch_more_than_available;
    Alcotest.test_case "dedup" `Quick test_dedup;
    Alcotest.test_case "in-flight dedup" `Quick test_inflight_dedup;
    Alcotest.test_case "capacity" `Quick test_capacity;
    Alcotest.test_case "rejection stats split" `Quick
      test_rejection_stats_split;
    Alcotest.test_case "requeue front order" `Quick test_requeue_front_order;
    Alcotest.test_case "requeue skips committed" `Quick test_requeue_skips_committed;
    Alcotest.test_case "requeue skips foreign" `Quick test_requeue_skips_foreign;
    Alcotest.test_case "requeue skips queued" `Quick test_requeue_skips_queued;
    Alcotest.test_case "forget blocks re-adds" `Quick test_forget_blocks_readds;
    Alcotest.test_case "batch skips committed" `Quick
      test_batch_skips_committed_in_queue;
    Alcotest.test_case "requeue capacity" `Quick test_requeue_respects_capacity;
    QCheck_alcotest.to_alcotest no_duplicate_batches_prop;
    Alcotest.test_case "forget queued" `Quick test_forget_queued;
    QCheck_alcotest.to_alcotest model_prop;
    QCheck_alcotest.to_alcotest committed_exact_prop;
    Alcotest.test_case "footprint: 1M shuffled dense" `Quick test_footprint_dense;
    Alcotest.test_case "footprint: adversarial seqs" `Quick
      test_footprint_adversarial;
  ]
