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

(* Tags under prepared per-replica schedules, recorded from the int32
   reference kernel: a vote payload, a timeout payload and a 200-byte
   pattern spanning several blocks. *)
let pinned_tags =
  [
    ( Bamboo_types.Qc.signed_payload
        ~block:(Bamboo_crypto.Sha256.digest "pin-block")
        ~view:17,
      [
        "7b457b53be372b8b18119ba8e172e0e2d9446f4ad3485880526f25cc5464dbc7";
        "2580580933c0d0398ddf6468effd39439b31d22f304a9440717f2b63d1989871";
        "9788e10e9297b35b0720879131ed0a131da7fcef458fb0a7efb5e07adc198e57";
      ] );
    ( Bamboo_types.Timeout_msg.signed_payload ~view:123456,
      [
        "83849b03b72d72aeed40076e9c4909cbdb414fd9c82b7d006f1fd8389e2f9a1a";
        "ad731bbbad641f2fd79a88eabdee3ae8f35b5c2f26fe99f03f564d34577fbeb9";
        "c2c02ee705d98a028c8306fef0de27a061fdb61b130469cdfafae5f709b08d94";
      ] );
    ( String.init 200 (fun i -> Char.chr (((i * 31) + 7) land 0xff)),
      [
        "8f626150f7f7667084b13b432a16442e7eae975220cf6fbf34796dca0b7e0adc";
        "68b836296e6e905734aa58b119a9c002692bced24e1e685301f0a768678210cd";
        "0347ff114bd4b4d90d141cf8cdbfec178259368f01fced26a45479d790d571dc";
      ] );
  ]

let test_pinned_tags () =
  let reg = Sig.setup ~n:3 ~master:"pin-master" in
  List.iteri
    (fun pi (payload, tags) ->
      List.iteri
        (fun signer expected ->
          let s = Sig.sign reg ~signer payload in
          Alcotest.(check string)
            (Printf.sprintf "payload %d, replica %d" pi signer)
            expected
            (Bamboo_crypto.Sha256.hex s.Sig.tag);
          Alcotest.(check bool) "verifies" true (Sig.verify reg s payload))
        tags)
    pinned_tags

let suite =
  [
    Alcotest.test_case "pinned tags" `Quick test_pinned_tags;
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
