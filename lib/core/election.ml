type scheme = Config.election

(* A [Hashed] leader costs a SHA-256 per query, and a replica asks about
   the same few views over and over (per proposal, vote and view change),
   so recent answers sit in a direct-mapped cache indexed by the view's
   low bits. Each slot is one immutable entry, replaced whole, so a
   reader never sees a view paired with another view's leader. *)
type entry = { view : int; leader : int }

let slots = 4
let empty = { view = 0; leader = -1 }

type t = { scheme : scheme; n : int; cache : entry array }

let create scheme ~n =
  if n <= 0 then invalid_arg "Election.create: n must be positive";
  (match scheme with
  | Config.Static i when i < 0 || i >= n ->
      invalid_arg "Election.create: static leader out of range"
  | Config.Static _ | Config.Rotation | Config.Hashed -> ());
  let cache =
    match scheme with
    | Config.Hashed -> Array.make slots empty
    | Config.Rotation | Config.Static _ -> [||]
  in
  { scheme; n; cache }

(* Derive the leader from a hash of the view so that the sequence is
   unpredictable but agreed upon by every replica. *)
let hashed_leader ~n view =
  let digest = Bamboo_crypto.Sha256.digest ("leader|" ^ string_of_int view) in
  let v =
    (Char.code digest.[0] lsl 24)
    lor (Char.code digest.[1] lsl 16)
    lor (Char.code digest.[2] lsl 8)
    lor Char.code digest.[3]
  in
  v mod n

let leader t ~view =
  match t.scheme with
  | Config.Rotation -> view mod t.n
  | Config.Static i -> i
  | Config.Hashed ->
      let slot = view land (slots - 1) in
      let e = t.cache.(slot) in
      if e.leader >= 0 && e.view = view then e.leader
      else begin
        let leader = hashed_leader ~n:t.n view in
        t.cache.(slot) <- { view; leader };
        leader
      end

let is_leader t ~view ~self = leader t ~view = self
