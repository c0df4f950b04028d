(** SHA-256 message digest (FIPS 180-4), implemented from scratch because the
    sealed build environment provides no cryptography package. Used by the
    cloaking engine for page integrity hashes. *)

type t
(** Incremental hashing context. *)

val init : unit -> t
(** Fresh context. *)

val feed : t -> bytes -> pos:int -> len:int -> unit
(** Absorb [len] bytes of input starting at [pos]. *)

val feed_string : t -> string -> unit
(** Absorb a whole string. *)

val finalize : t -> bytes
(** Produce the 32-byte digest. The context must not be reused afterwards. *)

val digest : bytes -> bytes
(** One-shot digest of a byte buffer. *)

val digest_string : string -> bytes
(** One-shot digest of a string. *)

val hex : bytes -> string
(** Lowercase hexadecimal rendering of a digest. *)

val of_hex : string -> bytes option
(** Inverse of {!hex}: [None] on an odd length or on any character that is
    not a lowercase hexadecimal digit. *)
