(** SHA-256 (FIPS 180-4), implemented from scratch on 32-bit words held in
    native [int]s (masked after additions), so hashing allocates only the
    context and the digest.

    Blocks are content-addressed by this hash (the paper's chains are
    "cryptographically linked together by hashes"). Both one-shot and
    incremental interfaces are provided; the incremental form is used by the
    wire codec to hash streamed fields without concatenation. *)

type ctx

val init : unit -> ctx

val feed : ctx -> string -> unit
(** [feed ctx s] absorbs all of [s]. May be called repeatedly. *)

val feed_sub : ctx -> string -> pos:int -> len:int -> unit

val finalize : ctx -> string
(** [finalize ctx] is the 32-byte raw digest. The context must not be used
    afterwards. *)

val digest : string -> string
(** One-shot 32-byte raw digest. *)

val midstate : ctx -> string
(** [midstate ctx] is the 32-byte chaining value after the whole blocks
    absorbed so far. Raises [Invalid_argument] if a partial block is
    buffered (the bytes fed are not a multiple of 64). The context stays
    usable. *)

val resume : string -> blocks:int -> ctx
(** [resume state ~blocks] continues a hash whose first [blocks] 64-byte
    blocks produced the chaining value [state] (as returned by
    {!midstate}): feeding the rest of the message and finalizing gives the
    same digest as hashing the whole message from {!init}. *)

val hex : string -> string
(** Lowercase hex rendering of a raw digest (or any string). *)

val digest_hex : string -> string
(** [digest_hex s = hex (digest s)]. *)
