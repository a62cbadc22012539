let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  if String.length key = block_size then key
  else key ^ String.make (block_size - String.length key) '\x00'

let xor_pad key byte =
  String.init block_size (fun i -> Char.chr (Char.code key.[i] lxor byte))

let mac ~key msg =
  let key = normalize_key key in
  let inner = Sha256.init () in
  Sha256.feed inner (xor_pad key 0x36);
  Sha256.feed inner msg;
  let inner_digest = Sha256.finalize inner in
  let outer = Sha256.init () in
  Sha256.feed outer (xor_pad key 0x5c);
  Sha256.feed outer inner_digest;
  Sha256.finalize outer

let mac_hex ~key msg = Sha256.hex (mac ~key msg)

(* The SHA-256 chaining values after absorbing the one-block pads; each
   later tag resumes from them instead of re-hashing the pads. *)
type prepared = { inner : string; outer : string }

let pad_state key byte =
  let ctx = Sha256.init () in
  Sha256.feed ctx (xor_pad key byte);
  Sha256.midstate ctx

let prepare ~key =
  let key = normalize_key key in
  { inner = pad_state key 0x36; outer = pad_state key 0x5c }

let mac_prepared p msg =
  let inner = Sha256.resume p.inner ~blocks:1 in
  Sha256.feed inner msg;
  let inner_digest = Sha256.finalize inner in
  let outer = Sha256.resume p.outer ~blocks:1 in
  Sha256.feed outer inner_digest;
  Sha256.finalize outer

let verify p ~tag msg =
  let expected = mac_prepared p msg in
  if String.length expected <> String.length tag then false
  else begin
    let diff = ref 0 in
    String.iteri
      (fun i c -> diff := !diff lor (Char.code c lxor Char.code tag.[i]))
      expected;
    !diff = 0
  end
