(** Simulated machine memory: a pool of 4 KiB pages addressed by MPN.
    Owned by the VMM; the guest OS never sees MPNs directly.

    When built with a fault-injection engine, allocation, DMA writes and
    page release become hostile-world hook points ({!Inject.Phys_alloc},
    {!Inject.Phys_write}, {!Inject.Phys_free}): allocations can fail as if
    memory were exhausted, DMA payloads can be bit-flipped or torn, and
    freed pages can keep their contents (RAM remanence) and resurface
    unzeroed when the MPN is recycled. *)

type t

exception Out_of_memory

val create : ?engine:Inject.t -> pages:int -> unit -> t
(** A pool with capacity for [pages] machine pages. *)

val set_trace : t -> Trace.t -> unit
(** Point the pool's flight recorder at a sink ({!Trace.null} until set).
    {!free} emits a [Frame_free] event stamped with the freed MPN, which
    the trace invariant pass cross-checks against decrypt/scrub events. *)

val alloc : t -> Addr.mpn
(** Allocate a zero-filled page (or, under a [Fail_scrub] injection, a page
    still holding its previous owner's bytes). Raises {!Out_of_memory} when
    exhausted or when an [Exhaust] injection fires. *)

val free : t -> Addr.mpn -> unit
(** Return a page to the pool. The page contents are scrubbed unless a
    [Fail_scrub] injection fires. *)

val allocated : t -> Addr.mpn -> bool
(** Whether the MPN currently backs an allocation. *)

val page : t -> Addr.mpn -> bytes
(** Direct reference to the 4 KiB backing store of an allocated page.
    Mutations are visible to all holders — this models physical RAM.
    Raises {!Fault.Machine_check} if the MPN is not allocated (a stale
    translation reached freed memory). *)

val read : t -> Addr.mpn -> off:int -> len:int -> bytes
val write : t -> Addr.mpn -> off:int -> bytes -> unit
val get_byte : t -> Addr.mpn -> off:int -> int
val set_byte : t -> Addr.mpn -> off:int -> int -> unit
val copy_page : t -> src:Addr.mpn -> dst:Addr.mpn -> unit
val load_page : t -> Addr.mpn -> bytes -> unit
(** Overwrite a whole page from a 4 KiB buffer. *)

val iter_allocated : t -> (Addr.mpn -> bytes -> unit) -> unit
(** Every allocated page — the raw machine-memory surface an adversary with
    the hardware could scan. *)

val iter_remanent : t -> (Addr.mpn -> bytes -> unit) -> unit
(** Freed-but-unscrubbed page contents still lingering in the pool after
    [Fail_scrub] injections; part of the adversary-visible surface. *)
