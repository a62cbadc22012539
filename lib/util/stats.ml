type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable total : float;
  mutable samples : float array;
  mutable len : int;
  mutable sorted : bool;
}

let create () =
  {
    n = 0;
    mean = 0.0;
    m2 = 0.0;
    min = infinity;
    max = neg_infinity;
    total = 0.0;
    samples = Array.make 64 0.0;
    len = 0;
    sorted = true;
  }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  t.total <- t.total +. x;
  if t.len = Array.length t.samples then begin
    let buf = Array.make (2 * t.len) 0.0 in
    Array.blit t.samples 0 buf 0 t.len;
    t.samples <- buf
  end;
  t.samples.(t.len) <- x;
  t.len <- t.len + 1;
  t.sorted <- false

let count t = t.n
let mean t = if t.n = 0 then 0.0 else t.mean

let variance t =
  if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)
let min_value t = if t.n = 0 then 0.0 else t.min
let max_value t = if t.n = 0 then 0.0 else t.max
let total t = t.total

(* In-place heapsort of [a.(0 .. len-1)], ascending. Monomorphic on
   purpose: the float array is read and written unboxed and compared
   inline, where [Array.sort Float.compare] boxes every element it moves.
   Samples are never NaN, so the order is the one [Float.compare] gives. *)
let sort_prefix (a : float array) len =
  let rec sift i len =
    let child = (2 * i) + 1 in
    if child < len then begin
      let child =
        if child + 1 < len && a.(child + 1) > a.(child) then child + 1
        else child
      in
      if a.(child) > a.(i) then begin
        let x = a.(i) in
        a.(i) <- a.(child);
        a.(child) <- x;
        sift child len
      end
    end
  in
  for i = (len / 2) - 1 downto 0 do
    sift i len
  done;
  for last = len - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift 0 last
  done

let ensure_sorted t =
  if not t.sorted then begin
    sort_prefix t.samples t.len;
    t.sorted <- true
  end

let percentile t p =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  if t.len = 0 then 0.0
  else begin
    ensure_sorted t;
    let rank = p /. 100.0 *. float_of_int (t.len - 1) in
    let lo = int_of_float (Float.of_int (int_of_float rank)) in
    let hi = min (t.len - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (t.samples.(lo) *. (1.0 -. frac)) +. (t.samples.(hi) *. frac)
  end

let median t = percentile t 50.0

let merge a b =
  let t = create () in
  for i = 0 to a.len - 1 do
    add t a.samples.(i)
  done;
  for i = 0 to b.len - 1 do
    add t b.samples.(i)
  done;
  t

let mean_of l =
  match l with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let stddev_of l =
  match l with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean_of l in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 l in
      sqrt (ss /. float_of_int (List.length l - 1))
