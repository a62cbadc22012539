type t = {
  hash : Ids.hash;
  view : Ids.view;
  height : Ids.height;
  parent : Ids.hash;
  justify : Qc.t;
  proposer : Ids.replica;
  txs : Tx.t list;
  tx_root : Ids.hash;
}

(* Leaves commit to both the id and the payload bytes so that an executed
   command cannot be substituted after certification. *)
let add_leaf_preimage buf (tx : Tx.t) =
  (* [Tx.id_to_string tx.id ^ "|" ^ tx.data], without the format
     interpreter: it dominated the cost of a flat root. *)
  Buffer.add_string buf (string_of_int tx.id.client);
  Buffer.add_char buf ':';
  Buffer.add_string buf (string_of_int tx.id.seq);
  Buffer.add_char buf '|';
  Buffer.add_string buf tx.data

let leaf_preimage tx =
  let buf = Buffer.create 32 in
  add_leaf_preimage buf tx;
  Buffer.contents buf

let merkle_root txs =
  match txs with
  | [] -> Bamboo_crypto.Sha256.digest ""
  | _ ->
      let leaves =
        List.map (fun tx -> Bamboo_crypto.Sha256.digest (leaf_preimage tx)) txs
      in
      let rec level nodes =
        match nodes with
        | [ root ] -> root
        | _ ->
            let rec pair acc = function
              | [] -> List.rev acc
              | [ last ] ->
                  (* Odd node: pair with itself (Bitcoin-style). *)
                  List.rev (Bamboo_crypto.Sha256.digest (last ^ last) :: acc)
              | a :: b :: rest ->
                  pair (Bamboo_crypto.Sha256.digest (a ^ b) :: acc) rest
            in
            level (pair [] nodes)
      in
      level leaves

let header_preimage ~view ~height ~parent ~(justify : Qc.t) ~proposer ~tx_root =
  Printf.sprintf "block|%d|%d|%s|%d|%s|%d|%s" view height parent justify.view
    justify.block proposer tx_root

let genesis =
  let tx_root = merkle_root [] in
  let parent = String.make 32 '\x00' in
  let justify = Qc.genesis ~block:parent in
  let preimage =
    header_preimage ~view:0 ~height:0 ~parent ~justify ~proposer:(-1) ~tx_root
  in
  let hash = Bamboo_crypto.Sha256.digest preimage in
  {
    hash;
    view = 0;
    height = 0;
    parent;
    justify = Qc.genesis ~block:hash;
    proposer = -1;
    txs = [];
    tx_root;
  }

let genesis_hash = genesis.hash

let flat_root txs =
  let buf = Buffer.create 256 in
  List.iter
    (fun tx ->
      add_leaf_preimage buf tx;
      Buffer.add_char buf ',')
    txs;
  Bamboo_crypto.Sha256.digest (Buffer.contents buf)

let create ?(root = `Merkle) ~view ~parent ~justify ~proposer ~txs () =
  let height = parent.height + 1 in
  let tx_root =
    match root with `Merkle -> merkle_root txs | `Flat -> flat_root txs
  in
  let preimage =
    header_preimage ~view ~height ~parent:parent.hash ~justify ~proposer ~tx_root
  in
  {
    hash = Bamboo_crypto.Sha256.digest preimage;
    view;
    height;
    parent = parent.hash;
    justify;
    proposer;
    txs;
    tx_root;
  }

let header_bytes b =
  header_preimage ~view:b.view ~height:b.height ~parent:b.parent
    ~justify:b.justify ~proposer:b.proposer ~tx_root:b.tx_root

let signed_payload b = "propose|" ^ b.hash

let header_wire_size = 32 + 8 + 8 + 32 + 8 + 32 (* hash,view,height,parent,proposer,root *)

let wire_size b =
  header_wire_size + Qc.wire_size b.justify
  + List.fold_left (fun acc tx -> acc + Tx.wire_size tx) 0 b.txs

let equal a b = String.equal a.hash b.hash

let pp fmt b =
  Format.fprintf fmt "B<v%d,h%d,%a,parent=%a,%d txs>" b.view b.height
    Ids.pp_hash b.hash Ids.pp_hash b.parent (List.length b.txs)
