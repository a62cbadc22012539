module Sha256 = Bamboo_crypto.Sha256

(* NIST / well-known vectors. *)
let vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "The quick brown fox jumps over the lazy dog",
      "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
    ( String.make 1000000 'a',
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
  ]

let test_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "digest of %d bytes" (String.length input))
        expected (Sha256.digest_hex input))
    vectors

let test_incremental_equals_oneshot () =
  let msg = "hello, chained BFT world! " ^ String.make 200 'x' in
  let ctx = Sha256.init () in
  Sha256.feed ctx (String.sub msg 0 10);
  Sha256.feed ctx (String.sub msg 10 1);
  Sha256.feed ctx (String.sub msg 11 (String.length msg - 11));
  Alcotest.(check string) "same digest" (Sha256.digest msg) (Sha256.finalize ctx)

let test_feed_sub () =
  let msg = "0123456789" in
  let ctx = Sha256.init () in
  Sha256.feed_sub ctx msg ~pos:2 ~len:5;
  Alcotest.(check string) "substring digest" (Sha256.digest "23456")
    (Sha256.finalize ctx)

let test_feed_sub_bounds () =
  let ctx = Sha256.init () in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Sha256.feed_sub: range out of bounds") (fun () ->
      Sha256.feed_sub ctx "abc" ~pos:1 ~len:5)

let test_block_boundaries () =
  (* Lengths around the 64-byte block and 56-byte padding boundaries. *)
  List.iter
    (fun len ->
      let msg = String.init len (fun i -> Char.chr (i mod 256)) in
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.feed ctx (String.make 1 c)) msg;
      Alcotest.(check string)
        (Printf.sprintf "len %d byte-by-byte" len)
        (Sha256.digest_hex msg)
        (Sha256.hex (Sha256.finalize ctx)))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ]

let test_digest_size () =
  Alcotest.(check int) "32 bytes" 32 (String.length (Sha256.digest "x"))

let test_hex () =
  Alcotest.(check string) "hex" "00ff10" (Sha256.hex "\x00\xff\x10")

let incremental_prop =
  let open QCheck in
  let gen =
    Gen.pair
      (Gen.string_size ~gen:Gen.char (Gen.int_range 0 300))
      (Gen.int_range 0 300)
  in
  Test.make ~name:"random split incremental = one-shot" ~count:200
    (make ~print:(fun (s, i) -> Printf.sprintf "%d bytes, split %d" (String.length s) i) gen)
    (fun (s, split) ->
      let split = if String.length s = 0 then 0 else split mod (String.length s + 1) in
      let ctx = Sha256.init () in
      Sha256.feed ctx (String.sub s 0 split);
      Sha256.feed ctx (String.sub s split (String.length s - split));
      Sha256.finalize ctx = Sha256.digest s)

let collision_resistance_smoke =
  let open QCheck in
  let gen = Gen.pair (Gen.string_size ~gen:Gen.char (Gen.int_range 0 64))
      (Gen.string_size ~gen:Gen.char (Gen.int_range 0 64)) in
  Test.make ~name:"distinct inputs hash differently (smoke)" ~count:300
    (make ~print:(fun (a, b) -> Printf.sprintf "%S vs %S" a b) gen)
    (fun (a, b) -> a = b || Sha256.digest a <> Sha256.digest b)

let midstate_resume_prop =
  let open QCheck in
  let gen =
    Gen.pair (Gen.int_range 0 4) (Gen.string_size ~gen:Gen.char (Gen.int_range 0 200))
  in
  Test.make ~name:"midstate/resume = one-shot" ~count:200
    (make ~print:(fun (k, s) -> Printf.sprintf "%d blocks + %d bytes" k (String.length s)) gen)
    (fun (blocks, rest) ->
      let prefix = String.init (64 * blocks) (fun i -> Char.chr (i land 0xff)) in
      let ctx = Sha256.init () in
      Sha256.feed ctx prefix;
      let resumed = Sha256.resume (Sha256.midstate ctx) ~blocks in
      Sha256.feed resumed rest;
      Sha256.feed ctx rest;
      let d = Sha256.digest (prefix ^ rest) in
      String.equal (Sha256.finalize resumed) d && String.equal (Sha256.finalize ctx) d)

let test_midstate_partial_block () =
  let ctx = Sha256.init () in
  Sha256.feed ctx "abc";
  Alcotest.check_raises "partial block"
    (Invalid_argument "Sha256.midstate: partial block buffered") (fun () ->
      ignore (Sha256.midstate ctx : string));
  Alcotest.check_raises "short state"
    (Invalid_argument "Sha256.resume: state must be 32 bytes") (fun () ->
      ignore (Sha256.resume "abc" ~blocks:1 : Sha256.ctx))

(* Digests of a fixed byte pattern, recorded from the int32 reference
   kernel: lengths straddle the 55/56-byte padding edge and the 64-byte
   block edge, and the long ones run many compressions back to back. *)
let pattern len = String.init len (fun i -> Char.chr (((i * 31) + 7) land 0xff))

let pinned_digests =
  [
    (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    (1, "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879");
    (55, "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b");
    (56, "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63");
    (57, "5b46e502092be01b1100193e089fdda95638c12e19a1d24f308eb2c3d3ae849d");
    (63, "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076");
    (64, "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd");
    (65, "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0");
    (119, "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe");
    (120, "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656");
    (128, "cc548ca2dec1f6fe4f58b2e27aa9c7521607df1130d140b55a4dad0665302356");
    (129, "81e89a7b2911aaa7795f9e3d4910cb47d6cd2b00d83b8399481527261a1a7519");
    (1000, "5097e7d587352f5097062ae679f37bda5802d9f875aba14c8cb4d1a188ada179");
    (6000, "36999de9c7aebde858fa19a0741afe2b808b98e79294a9b01c67df1242e40a5b");
  ]

let test_pinned_digests () =
  List.iter
    (fun (len, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "pattern of %d bytes" len)
        expected
        (Sha256.digest_hex (pattern len)))
    pinned_digests;
  (* FIPS 180-2 appendix B.3: one million 'a's, fed in uneven pieces. *)
  let ctx = Sha256.init () in
  let chunk = String.make 999 'a' in
  for _ = 1 to 1001 do
    Sha256.feed ctx chunk
  done;
  Sha256.feed ctx "a";
  Alcotest.(check string) "1,000,000 x a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (Sha256.finalize ctx))

let suite =
  [
    Alcotest.test_case "pinned digests" `Quick test_pinned_digests;
    Alcotest.test_case "NIST vectors" `Quick test_vectors;
    Alcotest.test_case "incremental = one-shot" `Quick test_incremental_equals_oneshot;
    Alcotest.test_case "feed_sub" `Quick test_feed_sub;
    Alcotest.test_case "feed_sub bounds" `Quick test_feed_sub_bounds;
    Alcotest.test_case "block boundaries" `Quick test_block_boundaries;
    Alcotest.test_case "digest size" `Quick test_digest_size;
    Alcotest.test_case "hex" `Quick test_hex;
    QCheck_alcotest.to_alcotest incremental_prop;
    QCheck_alcotest.to_alcotest collision_resistance_smoke;
    QCheck_alcotest.to_alcotest midstate_resume_prop;
    Alcotest.test_case "midstate bounds" `Quick test_midstate_partial_block;
  ]
