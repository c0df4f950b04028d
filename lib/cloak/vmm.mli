(** The virtual machine monitor: multi-shadowing plus the cloaking engine.

    This is the paper's primary contribution. The VMM owns machine memory
    and interposes on every guest memory access through per-(asid, view)
    shadow page tables. Cloaked pages transition between plaintext and
    ciphertext as ownership of the view changes:

    - an access from the owning application's [App] view yields plaintext
      (decrypting and verifying if needed);
    - an access from any [Sys] view — guest kernel, other processes,
      simulated DMA — first encrypts the page under a fresh IV and records
      {iv, mac, version} in VMM-private metadata.

    The guest OS continues to manage memory normally (paging, copying,
    caching); it simply never observes plaintext, and any modification,
    relocation, or replay of protected pages is detected when the
    application next touches them. *)

open Machine

type config = {
  multi_shadow : bool;
      (** when false, model a classic single-shadow VMM that must discard
          its shadow page tables on every context switch (the E6 baseline) *)
  clean_reencrypt : bool;
      (** the read-only plaintext optimization: decrypted pages map
          read-only until first write, and unmodified pages re-encrypt
          deterministically (same IV/version/MAC, AES-only cost). Disable
          for the E10 ablation. *)
  mem_pages : int;        (** machine memory size in 4 KiB pages *)
  tlb_slots : int;
  cost_model : Cost.model;
  seed : int;             (** PRNG seed for IVs; determinism knob *)
}

val default_config : config

type t

val create : ?config:config -> ?engine:Inject.t -> ?trace:Trace.t -> unit -> t
(** With [engine], every hostile-world hook point (machine memory, TLB,
    IV generation, metadata persistence) is subject to the engine's fault
    plan, and injections share the VMM's audit trail.

    With [trace], every boundary crossing (world switch, shadow walk/fill,
    hidden/guest fault, hypercall, page crypto, journal, seal, frame
    lifecycle) is recorded in the flight recorder, stamped with the
    deterministic model clock. Defaults to {!Trace.null}, which records
    nothing and charges zero model cycles. *)

val config : t -> config
val cost : t -> Cost.t
val counters : t -> Counters.t
val mem : t -> Phys_mem.t
val engine : t -> Inject.t option
val audit : t -> Inject.Audit.t
(** Deterministic per-VMM event trail: every injection, violation and
    quarantine in the order it happened. Identical seeds must reproduce
    identical trails — the chaos harness asserts this. *)

val trace : t -> Trace.t
(** The flight recorder this VMM (and everything attached to it — journal,
    seals, block devices, physical memory) emits into. *)

val set_map_observer :
  t ->
  (asid:int -> vpn:Addr.vpn -> ppn:Addr.ppn -> mpn:Addr.mpn -> cloaked:bool -> unit)
  option ->
  unit
(** Observe every shadow fill (the VMM's page-mapping callback): which
    address space mapped which virtual page onto which guest-physical and
    machine frame, and whether the page is cloaked. The adversarial-OS
    personality uses this to learn where cloaked pages land so it can
    attempt remap/alias/replay attacks; [None] uninstalls. *)

(** {1 Address spaces} *)

val register_address_space : t -> Page_table.t -> unit
(** Make a guest page table visible to the VMM (CR3-registration analogue). *)

val destroy_address_space : t -> asid:int -> unit
(** Drop shadows, TLB entries and registration for an address space. *)

val page_table : t -> asid:int -> Page_table.t
(** Raises [Not_found] if the asid is not registered. *)

(** {1 Guest physical memory} *)

val back_ppn : t -> Addr.ppn -> Addr.mpn
(** The machine page backing a guest physical page, allocated on first use. *)

val release_ppn : t -> Addr.ppn -> unit
(** Free the backing machine page (scrubbed). Any cloaked plaintext that
    lived there is gone; a later owner access reports {!Violation.Lost_plaintext}
    unless the page was properly encrypted first. *)

val phys_read : t -> Addr.ppn -> off:int -> len:int -> bytes
(** Kernel/DMA access to a physical page ("physmap"), always a [Sys] view:
    touching a plaintext cloaked page through here encrypts it first. *)

val phys_write : t -> Addr.ppn -> off:int -> bytes -> unit

(** {1 Virtual memory access} *)

val read : t -> ctx:Context.t -> vaddr:Addr.vaddr -> len:int -> bytes
(** May raise {!Machine.Fault.Guest_page_fault} (to be handled by the guest
    OS) or {!Violation.Security_fault}. *)

val write : t -> ctx:Context.t -> vaddr:Addr.vaddr -> bytes -> unit
val read_byte : t -> ctx:Context.t -> vaddr:Addr.vaddr -> int
val write_byte : t -> ctx:Context.t -> vaddr:Addr.vaddr -> int -> unit

val touch : t -> ctx:Context.t -> access:Fault.access -> vaddr:Addr.vaddr -> len:int -> unit
(** Translate (and charge for) an access without materializing data — the
    fast path for compute-bound workload inner loops. *)

(** {1 Shadow and TLB maintenance (guest-visible MMU operations)} *)

val invlpg : t -> asid:int -> vpn:Addr.vpn -> unit
(** The guest OS must call this after changing a PTE, as real kernels issue
    INVLPG; the VMM drops the derived shadow entries. *)

val flush_asid : t -> asid:int -> unit
val switch_to : t -> Context.t -> unit
(** Announce that execution moves to a new context (CR3-switch analogue).
    Under [multi_shadow:false] this discards all shadow state. *)

(** {1 Cloaking control (reached via shim hypercalls)} *)

val cloak_range :
  t -> asid:int -> resource:Resource.t -> start_vpn:Addr.vpn -> pages:int -> base_idx:int -> unit
(** Declare that [pages] pages of [resource], starting at page [base_idx],
    are mapped at [start_vpn] in address space [asid]. *)

val uncloak_range : t -> asid:int -> start_vpn:Addr.vpn -> unit
(** Remove a previously declared placement (munmap analogue). *)

val resource_at : t -> asid:int -> vpn:Addr.vpn -> (Resource.t * int) option

val uncloak_resource : t -> Resource.t -> unit
(** Tear down a resource: scrub any plaintext homes, drop metadata and
    placements (process exit / object destruction). *)

val quarantine : t -> Resource.t -> Violation.kind -> unit
(** Fault containment: condemn exactly one protected resource after a
    security fault. Scrubs and tears it down like {!uncloak_resource},
    records the event in the audit trail, and bumps the quarantine
    counter. Idempotent. The guest and other resources are unaffected. *)

val is_quarantined : t -> Resource.t -> bool

val absolve : t -> Resource.t -> unit
(** Lift a quarantine after the condemned incarnation has been fully torn
    down, so a supervised respawn may reuse the resource identity. A no-op
    for resources that were never quarantined. *)

val fresh_shm : t -> Resource.t

val drop_cloaked_pages : t -> Resource.t -> base_idx:int -> pages:int -> unit
(** Scrub and forget the metadata of a span of pages (munmap of a cloaked
    placement): plaintext homes are zeroed before the records are dropped. *)

val seal_resource : t -> Resource.t -> unit
(** Force every plaintext page of the resource to the encrypted state so
    the guest kernel can persist a consistent ciphertext image. *)

val seal_asid_shm : t -> asid:int -> unit
(** Re-encrypt the plaintext pages of every (non-quarantined) shared
    resource cloaked into the address space. The kernel calls this before
    tearing an address space down: the frames it is about to free must
    hold only ciphertext, or remanence would expose protected-object
    plaintext the moment the frames are reused. *)

val clone_cloaked : t -> src_asid:int -> dst_asid:int -> unit
(** Cloaked fork support: after the guest kernel has copied the (encrypted)
    pages and built the child's page table, re-key every copied page from
    the parent's anon resource to the child's, verifying each page against
    the parent's metadata. Expensive by design — two crypto passes per
    resident page — matching the paper's fork cost. *)

(** {1 Protected object metadata persistence (cloaked file I/O)} *)

val export_metadata : t -> Resource.t -> pages:int -> logical_size:int -> bytes
(** Seal the resource and serialize its per-page metadata, authenticated by
    the VMM secret and stamped with a freshness generation. The blob is an
    {!Envelope} with header [OVSHM1|tag|generation|logical_size|pages]
    and one fixed 65-byte cell per page, safe to store in an ordinary
    (OS-visible) file. Subject to the [Meta_export] injection site (torn
    or bit-flipped output). *)

type imported = { resource : Resource.t; logical_size : int; pages : int }

val import_metadata : t -> bytes -> imported
(** Verify and install an exported metadata blob. Raises
    {!Violation.Security_fault} with [Metadata_forged] on tampering or on
    replay of a stale generation. Subject to the [Meta_import] injection
    site (torn or bit-flipped input). *)

(** {1 Crash-consistent metadata journal}

    When a journal is attached, every metadata mutation of a persistent
    (shm) resource is appended to the write-ahead log {e before} the
    corresponding ciphertext write is acknowledged, and the guest's
    block-device layers report durable-write intents and commits so that
    {!Recovery.replay} can rebuild the metadata table after a simulated
    power cut. Anon resources die with the VMM and are never journaled. *)

val attach_journal : ?ckpt_every:int -> t -> store:Journal.store -> Journal.t
(** Open (or recover and re-checkpoint) the journal on the given store and
    wire it into the cloaking engine. The journal key is derived from the
    VMM's MAC key, so a VMM recreated from the same seed can read it. *)

val journal : t -> Journal.t option

val journal_dma : t -> [ `Intent | `Commit ] -> Addr.ppn -> dev:string -> block:int -> unit
(** Block-device DMA hook: if [ppn] is bound to a journaled cloaked page,
    record the write intent (before the device write) or commit (after).
    A no-op for unjournaled, anon, or unbound pages. *)

val journal_file_intent : t -> resource:Resource.t -> idx:int -> dev:string -> block:int -> unit
val journal_file_commit : t -> resource:Resource.t -> idx:int -> dev:string -> block:int -> unit
(** File-system writeback hooks: same intent/commit protocol when the page
    reaches the device through the page cache rather than direct DMA. *)

val journal_block_freed : t -> dev:string -> block:int -> unit
(** The guest released a device block. Journaled {e before} the block is
    scrubbed so recovery never chases a bind into zeroed bytes. Records
    only blocks the journal actually references. *)

(** {1 Recovery support}

    Used by [Recovery.replay] against a fresh VMM created from the same
    seed as the crashed one (the page/MAC keys re-derive identically). *)

val journal_key : t -> bytes
(** The journal MAC key, derived from the VMM's metadata key — available
    only inside the TCB, which recovery is part of. *)

val verify_cipher :
  t -> resource:Resource.t -> idx:int -> version:int -> iv:bytes -> mac:bytes ->
  cipher:bytes -> bool
(** Whether [cipher] authenticates as the given version of the page under
    this VMM's MAC key — the one page-MAC check: decryption, fork,
    checkpoint capture and the committed/torn test at recovery time all
    go through it. Pure: charges nothing. *)

val restore_entry :
  t -> resource:Resource.t -> idx:int -> version:int -> iv:bytes -> mac:bytes -> unit
(** Reinstall a verified page record in the Encrypted state. *)

val restore_generation : t -> id:int -> gen:int -> unit
(** Reinstall a shm object's freshness generation. *)

(** {1 Sealed-checkpoint support (see [Seal])}

    Sealed checkpoints of cloaked processes carry their own freshness
    generation, anchored in the metadata journal exactly like shm
    generations: restoring any checkpoint older than the latest sealed one
    for the resource is a {!Violation.Stale_checkpoint} violation. *)

val seal_key : t -> bytes
(** MAC key for sealed checkpoint blobs, derived from the VMM's metadata
    key (so it re-derives after a same-seed restart). TCB-only. *)

val seal_generation : t -> tag:string -> int
(** Latest sealed generation for the resource tag; 0 if never sealed. *)

val bump_seal_generation : t -> tag:string -> int
(** Advance and return the resource's seal generation, journaling the bump
    (when a journal is attached) before the new checkpoint blob exists —
    write-ahead, so a crash can hide the new checkpoint but never revive
    an old one. *)

val restore_seal_generation : t -> tag:string -> gen:int -> unit
(** Recovery-side reinstall; keeps the maximum of the known and restored
    generations. *)

val retire_seal_generation : t -> tag:string -> gen:int -> unit
(** Single-use anchoring: advance the resource's seal generation {e past}
    [gen], journaling the advance (write-ahead, like {!bump_seal_generation}).
    After retiring, any attempt to unseal the generation-[gen] blob at this
    VMM raises [Stale_checkpoint] — this is how a migration source fences
    itself before the destination commits, making double-resume structurally
    impossible even before any further checkpoint lands. No-op if the
    resource already moved past [gen]. *)

val fold_meta : t -> Resource.t -> (int -> Metadata.entry -> 'a -> 'a) -> 'a -> 'a
(** Fold over the resource's per-page metadata entries (checkpoint capture
    enumerates cloaked pages this way). *)

val authenticate_cipher :
  t -> Resource.t -> int -> Metadata.entry -> cipher:bytes -> bool
(** Does [cipher] match the page's authenticated [{iv; mac; version}]?
    Checkpoint capture uses this to refuse sealing a frame that hostile
    RAM tore or flipped after encryption: the blob may only ever hold
    bytes the VMM has authenticated, never raw frame residue. Charges one
    page MAC. *)

val violate : t -> ?resource:Resource.t -> Violation.kind -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Record a violation in the audit trail and counters, then raise
    {!Violation.Security_fault} — the single funnel every integrity check
    in the TCB uses, exposed for the [Seal] module. *)

(** {1 Charging helpers for upper layers} *)

val charge : t -> int -> unit
val charge_copy : t -> bytes_count:int -> unit
val hypercall : t -> unit
val world_switch : t -> unit
val syscall_trap : t -> unit
val timer_tick : t -> unit
val guest_fault_charge : t -> unit
(** Cost of the guest OS taking and returning from an injected fault. *)
