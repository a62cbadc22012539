module Sig = Bamboo_crypto.Sig
module Hmac = Bamboo_crypto.Hmac

let test_sign_verify () =
  let reg = Sig.setup ~n:4 ~master:"m" in
  let s = Sig.sign reg ~signer:2 "payload" in
  Alcotest.(check int) "signer recorded" 2 s.Sig.signer;
  Alcotest.(check bool) "verifies" true (Sig.verify reg s "payload");
  Alcotest.(check bool) "wrong payload" false (Sig.verify reg s "other")

let test_signer_binding () =
  let reg = Sig.setup ~n:4 ~master:"m" in
  let s = Sig.sign reg ~signer:1 "p" in
  let forged = { s with Sig.signer = 2 } in
  Alcotest.(check bool) "tag bound to signer" false (Sig.verify reg forged "p")

let test_out_of_range () =
  let reg = Sig.setup ~n:4 ~master:"m" in
  Alcotest.check_raises "sign out of range"
    (Invalid_argument "Sig.sign: signer out of range") (fun () ->
      ignore (Sig.sign reg ~signer:4 "p"));
  let s = Sig.sign reg ~signer:0 "p" in
  Alcotest.(check bool) "verify out of range is false" false
    (Sig.verify reg { s with Sig.signer = -1 } "p")

let test_distinct_masters () =
  let a = Sig.setup ~n:4 ~master:"alpha" in
  let b = Sig.setup ~n:4 ~master:"beta" in
  let s = Sig.sign a ~signer:0 "p" in
  Alcotest.(check bool) "cross-registry fails" false (Sig.verify b s "p")

let test_size () =
  let reg = Sig.setup ~n:7 ~master:"m" in
  Alcotest.(check int) "size" 7 (Sig.size reg);
  Alcotest.(check int) "wire size" 64 Sig.wire_size

let test_deterministic () =
  let a = Sig.setup ~n:4 ~master:"m" in
  let b = Sig.setup ~n:4 ~master:"m" in
  let sa = Sig.sign a ~signer:3 "p" and sb = Sig.sign b ~signer:3 "p" in
  Alcotest.(check string) "same tag from same master" sa.Sig.tag sb.Sig.tag

let test_invalid_setup () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Sig.setup: n must be positive")
    (fun () -> ignore (Sig.setup ~n:0 ~master:"m"))

(* Replica i's key is HMAC(master, "bamboo-replica-key-<i>"): the lazily
   prepared schedules must reproduce the plain RFC 2104 path bit for bit. *)
let test_tags_match_plain_hmac () =
  let master = "m" and msg = "vote|block|7" in
  let reg = Sig.setup ~n:7 ~master in
  for i = 0 to 6 do
    let key = Hmac.mac ~key:master ("bamboo-replica-key-" ^ string_of_int i) in
    Alcotest.(check string)
      (Printf.sprintf "signer %d" i)
      (Hmac.mac ~key msg) (Sig.sign reg ~signer:i msg).Sig.tag
  done

(* Four domains race on the first use of every key of a fresh registry. *)
let test_concurrent_first_use () =
  let n = 7 and rounds = 50 and domains = 4 in
  let msg i r = Printf.sprintf "msg-%d-%d" i r in
  let expected = Sig.setup ~n ~master:"race" in
  let want =
    Array.init n (fun i ->
        Array.init rounds (fun r -> (Sig.sign expected ~signer:i (msg i r)).Sig.tag))
  in
  let reg = Sig.setup ~n ~master:"race" in
  let ready = Atomic.make 0 in
  let work () =
    Atomic.incr ready;
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    Array.init n (fun i ->
        Array.init rounds (fun r -> (Sig.sign reg ~signer:i (msg i r)).Sig.tag))
  in
  let got = List.map Domain.join (List.init domains (fun _ -> Domain.spawn work)) in
  List.iter
    (fun tags ->
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun r tag -> Alcotest.(check string) "same tag" want.(i).(r) tag)
            row)
        tags)
    got;
  Alcotest.(check int) "exact sign count" (domains * n * rounds) (Sig.signs reg);
  Alcotest.(check int) "no verifies" 0 (Sig.verifies reg)

let suite =
  [
    Alcotest.test_case "sign/verify" `Quick test_sign_verify;
    Alcotest.test_case "signer binding" `Quick test_signer_binding;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
    Alcotest.test_case "distinct masters" `Quick test_distinct_masters;
    Alcotest.test_case "sizes" `Quick test_size;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "invalid setup" `Quick test_invalid_setup;
    Alcotest.test_case "tags match plain HMAC" `Quick test_tags_match_plain_hmac;
    Alcotest.test_case "concurrent first use" `Quick test_concurrent_first_use;
  ]
