(** Protected resources.

    Cloaked page metadata is keyed by (resource, page index) — a *logical*
    identity independent of where the OS happens to place the page in guest
    physical memory. This is what defeats relocation attacks: moving
    ciphertext to a different offset or resource changes the key under which
    it is verified. *)

type t =
  | Anon of int  (** the private memory of the cloaked process with this asid *)
  | Shm of int   (** a cloaked shared-memory object (also backs protected files) *)

val equal : t -> t -> bool
val tag : t -> string
(** Stable serialization mixed into the page MAC. *)

val of_tag : string -> t option
(** Parse a {!tag} back; [None] on malformed input (journal records from a
    corrupted log go through here, so this must never raise). *)
