(** Crash recovery: rebuild cloaking metadata from the journal.

    After a simulated power cut ({!Inject.Vmm_crash}) everything in VMM
    memory is gone — the metadata table, the freshness generations, the
    page-to-block bindings. What survives is the block device: the
    journal's reserved region plus whatever ciphertext the guest had made
    durable. [replay] reconstructs the metadata table in a fresh VMM
    created from the same seed (so the crypto keys re-derive identically),
    classifying every page the journal tracked:

    - {e Committed}: the journal holds a commit record and the on-device
      bytes authenticate against the journaled {iv, mac, version} — the
      page is reinstalled and will decrypt and verify normally.
    - {e Redone}: the journal holds only a write intent (the crash hit
      between the device write and its commit record), but the bytes
      authenticate — the write actually completed, so it is promoted.
    - {e Torn}: an intent whose bytes fail authentication (or whose device
      vanished) — the crash interrupted the write. The owning resource is
      quarantined with {!Violation.Torn_state}; a torn page is never
      silently served.

    The three recovery invariants the crash harness enforces on top of
    this: no committed page is lost, no torn page is accepted, and two
    replays from the same seed produce byte-identical audit trails. *)

type status = Committed | Redone | Torn

val status_to_string : status -> string

type page = {
  resource : Resource.t;
  idx : int;
  dev : string;
  block : int;
  status : status;
}

type t = {
  epoch : int;            (** journal epoch recovery came up on *)
  replayed : int;         (** log records replayed after the checkpoint *)
  pages : page list;      (** every tracked durable page, sorted by (resource, idx) *)
  generations : (int * int) list;  (** shm id -> restored freshness generation *)
  quarantined : Resource.t list;   (** resources condemned for torn state *)
}

val committed : t -> int
val redone : t -> int
val torn : t -> int

val replay :
  vmm:Vmm.t ->
  store:Journal.store ->
  read_block:(dev:string -> block:int -> bytes option) ->
  t
(** Load the journal from [store], classify every page it binds to a
    device block, reinstall the verified ones ({!Vmm.restore_entry}) and
    the freshness generations ({!Vmm.inherit_generations}), and
    quarantine the resources owning torn
    pages. [read_block] resolves a journaled (device, block) pair to the
    surviving raw block contents ([None] if the device or block is gone,
    which counts as torn). Deterministic: pages are processed in sorted
    order and every classification is recorded in the VMM's audit trail. *)
