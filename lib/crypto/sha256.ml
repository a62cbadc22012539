(* FIPS 180-4 SHA-256. Each 32-bit word lives in a native [int], masked
   to 32 bits after additions and rotations, so the kernel allocates
   nothing: the state, the message schedule and the table are flat int
   arrays, and words are read from and written to bytes as two
   big-endian 16-bit halves. The message schedule array is reused across
   blocks. *)

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
    0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
    0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
    0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
    0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
    0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
    0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
    0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
    0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
    0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
    0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 working hash values *)
  block : Bytes.t; (* 64-byte input buffer *)
  mutable fill : int; (* bytes buffered in [block] *)
  mutable total : int; (* total message bytes absorbed *)
  w : int array; (* 64-entry message schedule, reused *)
}

let mask = 0xFFFF_FFFF

let start h ~total = { h; block = Bytes.create 64; fill = 0; total; w = Array.make 64 0 }

let init () =
  start
    [|
      0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
      0x1f83d9ab; 0x5be0cd19;
    |]
    ~total:0

(* Big-endian 32-bit word at byte offset [i]. *)
let be32 b i = (Bytes.get_uint16_be b i lsl 16) lor Bytes.get_uint16_be b (i + 2)

(* [x] rotated right by [n] within 32 bits, with stray bits above bit 31
   left for the caller's final mask: [x] must already be 32-bit. *)
let rotr x n = (x lsr n) lor (x lsl (32 - n))

let compress ctx =
  let w = ctx.w and hs = ctx.h in
  for t = 0 to 15 do
    w.(t) <- be32 ctx.block (4 * t)
  done;
  for t = 16 to 63 do
    let x = w.(t - 15) and y = w.(t - 2) in
    let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
    let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
    w.(t) <- (w.(t - 16) + (s0 land mask) + w.(t - 7) + (s1 land mask)) land mask
  done;
  let a = ref hs.(0) and b = ref hs.(1) and c = ref hs.(2) in
  let d = ref hs.(3) and e = ref hs.(4) and f = ref hs.(5) in
  let g = ref hs.(6) and h = ref hs.(7) in
  for t = 0 to 63 do
    let e' = !e and a' = !a in
    let s1 = (rotr e' 6 lxor rotr e' 11 lxor rotr e' 25) land mask in
    let ch = (e' land !f) lxor (lnot e' land !g) in
    let t1 = !h + s1 + ch + k.(t) + w.(t) in
    let s0 = (rotr a' 2 lxor rotr a' 13 lxor rotr a' 22) land mask in
    let maj = (a' land !b) lxor (a' land !c) lxor (!b land !c) in
    h := !g;
    g := !f;
    f := e';
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := a';
    a := (t1 + s0 + maj) land mask
  done;
  hs.(0) <- (hs.(0) + !a) land mask;
  hs.(1) <- (hs.(1) + !b) land mask;
  hs.(2) <- (hs.(2) + !c) land mask;
  hs.(3) <- (hs.(3) + !d) land mask;
  hs.(4) <- (hs.(4) + !e) land mask;
  hs.(5) <- (hs.(5) + !f) land mask;
  hs.(6) <- (hs.(6) + !g) land mask;
  hs.(7) <- (hs.(7) + !h) land mask

let feed_sub ctx s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Sha256.feed_sub: range out of bounds";
  ctx.total <- ctx.total + len;
  let pos = ref pos and remaining = ref len in
  while !remaining > 0 do
    let take = min !remaining (64 - ctx.fill) in
    Bytes.blit_string s !pos ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.fill = 64 then begin
      compress ctx;
      ctx.fill <- 0
    end
  done

let feed ctx s = feed_sub ctx s ~pos:0 ~len:(String.length s)

let state_bytes ctx =
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let x = ctx.h.(i) in
    Bytes.set_uint16_be out (4 * i) (x lsr 16);
    Bytes.set_uint16_be out ((4 * i) + 2) (x land 0xFFFF)
  done;
  Bytes.unsafe_to_string out

let finalize ctx =
  let bitlen = Int64.mul (Int64.of_int ctx.total) 8L in
  (* Padding: 0x80, zeros, then the 64-bit big-endian bit length. *)
  Bytes.set ctx.block ctx.fill '\x80';
  ctx.fill <- ctx.fill + 1;
  if ctx.fill > 56 then begin
    Bytes.fill ctx.block ctx.fill (64 - ctx.fill) '\x00';
    compress ctx;
    ctx.fill <- 0
  end;
  Bytes.fill ctx.block ctx.fill (56 - ctx.fill) '\x00';
  Bytes.set_int64_be ctx.block 56 bitlen;
  compress ctx;
  state_bytes ctx

let digest s =
  let ctx = init () in
  feed ctx s;
  finalize ctx

let midstate ctx =
  if ctx.fill <> 0 then invalid_arg "Sha256.midstate: partial block buffered";
  state_bytes ctx

let resume state ~blocks =
  if String.length state <> 32 then invalid_arg "Sha256.resume: state must be 32 bytes";
  if blocks < 0 then invalid_arg "Sha256.resume: negative block count";
  let state = Bytes.unsafe_of_string state in
  start (Array.init 8 (fun i -> be32 state (4 * i))) ~total:(64 * blocks)

let hex s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let digest_hex s = hex (digest s)
