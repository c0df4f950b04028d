(** Sealed checkpoints of cloaked processes — the state a supervisor may
    restart from.

    A checkpoint captures everything needed to respawn a cloaked process
    at a quiesce point without trusting the OS: the thread's saved
    register context, the per-page {iv, mac, version} protection metadata,
    and the ciphertext image of every cloaked page (the resource is sealed
    first, so the blob contains only what the OS is already allowed to
    see). The whole blob is MAC'd under a dedicated VMM key and may then
    live in OS-visible storage.

    Blob layout: an {!Envelope} with header
    [OVSCK1|tag|gen|npages|pc|sp|gp0,..|layout] whose payload holds, per
    page, either [E|idx|version|iv|mac\n] followed by one raw page of
    ciphertext, or [Z|idx\n] for a never-touched page.

    Freshness: each capture bumps the resource's {e seal generation},
    journaled write-ahead ({!Vmm.bump_seal_generation}). {!unseal}
    refuses any blob whose generation is below the journal-anchored
    latest with a {!Violation.Stale_checkpoint} violation — an OS that
    feeds the supervisor an old (validly MAC'd) checkpoint gets caught,
    so supervised restart never becomes a rollback oracle. *)

type page = {
  idx : int;
  version : int;
  iv : bytes;
  mac : bytes;
  cipher : bytes option;  (** [None]: the page was still zero when sealed *)
}

type restored = {
  resource : Resource.t;
  gen : int;
  regs : Transfer.regs;
  layout : string;   (** opaque supervisor payload (address-space layout) *)
  pages : page list;
}

val capture :
  Vmm.t ->
  resource:Resource.t ->
  regs:Transfer.regs ->
  layout:string ->
  read_page:(int -> bytes) ->
  bytes
(** Seal the resource, bump and journal its seal generation, and build the
    authenticated blob. [read_page idx] must return the page-sized
    ciphertext image of metadata page [idx] (the kernel reads it through
    its Sys/physmap view); every image is re-authenticated against its
    {i iv/mac/version} metadata before it is sealed, so a frame that
    hostile RAM tore or flipped after encryption (plaintext residue)
    raises an [Integrity] violation instead of leaking into the
    OS-visible blob — and it does so {e before} the generation bump, so
    an aborted capture never stales the previous checkpoint. [layout] is
    stored verbatim in the header and must not contain ['|'] or control
    characters. Subject to the [Seal_write] injection site (torn or
    bit-flipped output). *)

val unseal : Vmm.t -> bytes -> restored
(** Authenticate and parse a checkpoint blob. Raises
    {!Violation.Security_fault} with [Metadata_forged] on any tampering or
    truncation, and with [Stale_checkpoint] if the blob's generation is
    older than the resource's journal-anchored latest. On success the seal
    generation table absorbs the blob's generation. Subject to the
    [Restore] injection site (torn or bit-flipped input). *)

val install :
  ?consume:bool -> Vmm.t -> restored -> write_page:(int -> bytes -> unit) -> unit
(** Reinstall a verified checkpoint into a fresh incarnation: restores
    each page's metadata entry in the Encrypted state and hands the
    ciphertext to [write_page idx cipher] (the kernel writes it into the
    respawned process's pages through its Sys view; the next App-view
    touch decrypts and verifies as usual).

    [~consume:true] makes the restore {e single-use}: after installation
    the blob's generation is retired ({!Vmm.retire_seal_generation},
    journal-anchored), so re-unsealing the same blob — at this VMM or any
    VMM that inherits the journal — raises [Stale_checkpoint]. Migration
    uses this at the destination so a replayed or double-delivered blob
    can never produce a second incarnation. Default [false], preserving
    the supervisor's restart-from-latest behaviour. *)
