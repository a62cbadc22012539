module Election = Bamboo.Election
module Config = Bamboo.Config

let test_rotation () =
  let e = Election.create Config.Rotation ~n:4 in
  Alcotest.(check int) "view 1" 1 (Election.leader e ~view:1);
  Alcotest.(check int) "view 4 wraps" 0 (Election.leader e ~view:4);
  Alcotest.(check int) "view 7" 3 (Election.leader e ~view:7);
  Alcotest.(check bool) "is_leader" true
    (Election.is_leader e ~view:2 ~self:2);
  Alcotest.(check bool) "not leader" false
    (Election.is_leader e ~view:2 ~self:3)

let test_rotation_fairness () =
  let e = Election.create Config.Rotation ~n:5 in
  let counts = Array.make 5 0 in
  for v = 1 to 100 do
    let l = Election.leader e ~view:v in
    counts.(l) <- counts.(l) + 1
  done;
  Array.iter (fun c -> Alcotest.(check int) "even rotation" 20 c) counts

let test_static () =
  let e = Election.create (Config.Static 2) ~n:4 in
  for v = 1 to 10 do
    Alcotest.(check int) "always 2" 2 (Election.leader e ~view:v)
  done

let test_hashed_deterministic_and_in_range () =
  let e1 = Election.create Config.Hashed ~n:7 in
  let e2 = Election.create Config.Hashed ~n:7 in
  for v = 1 to 200 do
    let l = Election.leader e1 ~view:v in
    Alcotest.(check int) "deterministic" l (Election.leader e2 ~view:v);
    if l < 0 || l >= 7 then Alcotest.fail "out of range"
  done

let test_hashed_covers_all () =
  let e = Election.create Config.Hashed ~n:4 in
  let seen = Array.make 4 false in
  for v = 1 to 100 do
    seen.(Election.leader e ~view:v) <- true
  done;
  Array.iter (fun s -> Alcotest.(check bool) "every replica leads" true s) seen

(* The hashed scheme caches recent views; any query order, with repeats and
   slot collisions, must give what a fresh (empty-cache) instance does. *)
let cached_hashed_prop =
  let open QCheck in
  let gen =
    Gen.pair (Gen.oneofl [ 4; 7; 64 ])
      (Gen.list_size (Gen.int_range 1 400) (Gen.int_range 0 10_000))
  in
  Test.make ~name:"hashed cache = uncached answers" ~count:50
    (make ~print:(fun (n, vs) -> Printf.sprintf "n=%d, %d queries" n (List.length vs)) gen)
    (fun (n, views) ->
      let e = Election.create Config.Hashed ~n in
      List.for_all
        (fun view ->
          Election.leader e ~view
          = Election.leader (Election.create Config.Hashed ~n) ~view)
        views)

let test_hashed_cache_all_views () =
  let n = 7 in
  let fresh view = Election.leader (Election.create Config.Hashed ~n) ~view in
  let want = Array.init 10_001 fresh in
  let e = Election.create Config.Hashed ~n in
  let rng = Random.State.make [| 13 |] in
  let order = Array.init 10_001 Fun.id in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- x
  done;
  Array.iter
    (fun view ->
      Alcotest.(check int) "shuffled" want.(view) (Election.leader e ~view);
      Alcotest.(check int) "repeat" want.(view) (Election.leader e ~view);
      let back = Int.max 0 (view - 4) in
      Alcotest.(check int) "recent" want.(back) (Election.leader e ~view:back))
    order

let test_invalid () =
  Alcotest.check_raises "n = 0"
    (Invalid_argument "Election.create: n must be positive") (fun () ->
      ignore (Election.create Config.Rotation ~n:0));
  Alcotest.check_raises "static out of range"
    (Invalid_argument "Election.create: static leader out of range") (fun () ->
      ignore (Election.create (Config.Static 4) ~n:4))

let suite =
  [
    Alcotest.test_case "rotation" `Quick test_rotation;
    Alcotest.test_case "rotation fairness" `Quick test_rotation_fairness;
    Alcotest.test_case "static" `Quick test_static;
    Alcotest.test_case "hashed deterministic" `Quick
      test_hashed_deterministic_and_in_range;
    Alcotest.test_case "hashed cache, views 0..10000" `Quick
      test_hashed_cache_all_views;
    QCheck_alcotest.to_alcotest cached_hashed_prop;
    Alcotest.test_case "hashed coverage" `Quick test_hashed_covers_all;
    Alcotest.test_case "invalid" `Quick test_invalid;
  ]
