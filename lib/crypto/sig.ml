type registry = {
  master : Hmac.prepared;
  keys : Hmac.prepared option Atomic.t array;
      (* replica key schedules, filled on first use *)
  n_signs : int Atomic.t;
  n_verifies : int Atomic.t;
}

type t = { signer : int; tag : string }

let wire_size = 64

let setup ~n ~master =
  if n <= 0 then invalid_arg "Sig.setup: n must be positive";
  {
    master = Hmac.prepare ~key:master;
    keys = Array.init n (fun _ -> Atomic.make None);
    n_signs = Atomic.make 0;
    n_verifies = Atomic.make 0;
  }

let size reg = Array.length reg.keys

(* Replica [i]'s key is HMAC(master, "bamboo-replica-key-<i>"). Domains
   racing on a first use derive identical schedules; compare_and_set
   stores whichever lands first, and a loser's copy is equally good. *)
let key reg i =
  let slot = reg.keys.(i) in
  match Atomic.get slot with
  | Some k -> k
  | None ->
      let secret =
        Hmac.mac_prepared reg.master ("bamboo-replica-key-" ^ string_of_int i)
      in
      let k = Hmac.prepare ~key:secret in
      ignore (Atomic.compare_and_set slot None (Some k) : bool);
      k

let sign reg ~signer msg =
  if signer < 0 || signer >= Array.length reg.keys then
    invalid_arg "Sig.sign: signer out of range";
  Atomic.incr reg.n_signs;
  { signer; tag = Hmac.mac_prepared (key reg signer) msg }

let verify reg s msg =
  if s.signer < 0 || s.signer >= Array.length reg.keys then false
  else begin
    Atomic.incr reg.n_verifies;
    Hmac.verify (key reg s.signer) ~tag:s.tag msg
  end

let signs reg = Atomic.get reg.n_signs
let verifies reg = Atomic.get reg.n_verifies
