(** HMAC-SHA256 (RFC 2104). *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA256 tag of [msg] under [key]. *)

val mac_hex : key:string -> string -> string

type prepared
(** A key schedule: the two SHA-256 chaining values after absorbing
    key⊕ipad and key⊕opad (64 bytes in all). Tagging with it costs two
    compressions for a message under 56 bytes instead of four. *)

val prepare : key:string -> prepared

val mac_prepared : prepared -> string -> string
(** [mac_prepared (prepare ~key) msg = mac ~key msg], bit for bit. *)

val verify : prepared -> tag:string -> string -> bool
(** Constant-time comparison of [tag] against the recomputed MAC. *)
