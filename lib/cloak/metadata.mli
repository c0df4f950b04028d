(** VMM-private metadata for cloaked pages.

    For every (resource, page index) the VMM tracks the page's position in
    the cloaking state machine together with the IV, authentication tag and
    version of its latest encryption. The table lives in VMM memory: the
    guest can corrupt ciphertext but can never touch these records, so any
    tampering — including replaying a stale but correctly encrypted page —
    is caught when the tag is checked against the *current* version. *)

open Machine

type page_state =
  | Zero
      (** never touched: reads as a fresh zero-filled page, no crypto state *)
  | Plain of { home : Addr.mpn; mutable clean : bool }
      (** plaintext, resident at machine page [home], mapped only in the
          owner's App view. [clean] means unmodified since the last
          encryption: the App view maps it read-only so the first write
          traps, and a system view can re-encrypt it *deterministically*
          (same IV, same version, same MAC) at AES-only cost — the paper's
          read-only plaintext optimization. *)
  | Encrypted
      (** ciphertext resident in guest-visible memory (or on the guest's
          disk); metadata holds iv/mac/version *)

type entry = {
  mutable state : page_state;
  mutable iv : bytes;
  mutable mac : bytes;
  mutable version : int;
}

type t

val create : unit -> t
val find : t -> Resource.t -> int -> entry option
val find_or_add : t -> Resource.t -> int -> entry
val remove : t -> Resource.t -> int -> unit
(** Forget one page's record (munmap of its placement). *)

val drop_resource : t -> Resource.t -> unit
(** Forget all pages of a resource (process exit / object destruction).
    Plaintext homes are the caller's responsibility to scrub. *)

val iter_resource : t -> Resource.t -> (int -> entry -> unit) -> unit
val fold_resource : t -> Resource.t -> (int -> entry -> 'a -> 'a) -> 'a -> 'a

val mac_input :
  resource:Resource.t -> idx:int -> version:int -> iv:bytes -> cipher:bytes -> bytes
(** The byte string authenticated for a cloaked page: binds the ciphertext
    to its logical identity and version so relocation and rollback both
    invalidate the tag. *)
