(** Simulated block device with page-sized blocks. Transfers go through the
    VMM's physmap path, so DMA of a cloaked plaintext page encrypts it first
    — disk contents of protected pages are always ciphertext. The raw store
    is inspectable ([peek]/[poke]) for the security experiments: it is what
    a malicious OS or a disk thief can see and corrupt.

    The head of the device can be reserved for the VMM's metadata journal
    ([reserve]): reserved blocks are invisible to the guest-facing
    allocator and data path and reachable only through {!write_raw}/{!peek}. *)

type t

exception Io_error of string
(** A transient device error (injected at the [Blk_read]/[Blk_write] hook
    points). Retryable: the failed transfer had no effect. Callers retry
    with bounded backoff and surface [Errno.EIO] if the error persists. *)

exception Bad_block of { op : string; block : int; reason : string }
(** A structurally invalid block operation — out-of-range block number,
    guest access to the reserved journal region, or double free. Unlike
    {!Io_error} this is a caller bug (or an attack), not device weather:
    it is never retried. *)

val create : ?name:string -> ?reserve:int -> vmm:Cloak.Vmm.t -> blocks:int -> unit -> t
(** The device probes the VMM's fault-injection engine (if any) on every
    allocation and DMA. [name] (default ["blk"]) identifies the device in
    journal records; [reserve] (default 0) withholds the first blocks from
    allocation for the journal. Raises [Invalid_argument] unless
    [0 <= reserve < blocks]. *)

val block_count : t -> int
val name : t -> string
val reserved : t -> int

val alloc_block : t -> int
(** Allocate a free block (never a reserved one). Raises
    [Errno.Error ENOSPC] when full. *)

val free_block : t -> int -> unit
(** Scrub and release a block. Journals the release {e before} scrubbing
    so crash recovery never chases a freed bind into zeroed bytes. Raises
    {!Bad_block} on out-of-range, reserved, or unallocated (double-free)
    blocks. A [Fail_scrub] injection at [Blk_free] models disk remanence;
    a [Crash_point] there kills the VMM after the journal record but
    before the scrub. *)

val read_block : t -> int -> ppn:Machine.Addr.ppn -> unit
(** DMA one block into a guest physical page. May raise {!Io_error}, or DMA
    only a prefix under a short-read injection. *)

val write_block : t -> int -> ppn:Machine.Addr.ppn -> bool
(** DMA one guest physical page to a block and return whether the
    transfer landed clean — the one place that decides it. Journals the
    write intent of a DMA-bound cloaked page before the transfer and its
    commit only after a clean one; torn, corrupted or reordered transfers
    return [false] and leave the intent standing so recovery re-verifies
    the bytes (file writeback commits a protected object's page on the
    same answer). May raise {!Io_error}; a [Crash_point] injection lands
    half the payload and raises {!Inject.Vmm_crash}. *)

val write_raw : t -> int -> bytes -> unit
(** Host-side write of one full block, bypassing the guest physmap — the
    journal's path to its reserved region. Interprets only [Io_error] and
    [Crash_point] injections: anything subtler must be caught by the
    journal's own MAC chain, never silently absorbed. *)

val peek : t -> int -> bytes
(** Raw block contents, as visible to an adversary with the disk. *)

val poke : t -> int -> bytes -> unit
(** Overwrite raw block contents (tampering). *)
