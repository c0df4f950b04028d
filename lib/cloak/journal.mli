(** Crash-consistent write-ahead journal for cloaking metadata.

    Overshadow's per-page protection metadata ({iv, mac, version} plus the
    freshness generation of each protected object) lives in VMM memory,
    which a power cut erases. This module persists it: every metadata
    mutation appends a MAC-chained record to a reserved region of the
    guest's block device {e before} the corresponding ciphertext write is
    acknowledged, and periodic checkpoints compact the log so recovery
    never replays unbounded history.

    On-store layout (all offsets in [store] blocks):
    - blocks 0 and 1: two superblock slots, written alternately. Each is
      an {!Envelope} [OVSJS|epoch|slot|len] with an empty payload,
      zero-padded. The valid slot with the highest epoch is
      authoritative; because the checkpoint area and the log anchor it
      names are fully written before the superblock is, a crash at any
      point leaves at least one consistent epoch.
    - two checkpoint areas: snapshots of the full journal state, each an
      {!Envelope} [OVSJC|epoch|count] whose payload is one record body
      per line in the log's own grammar — updates first, then commits,
      intents, generations and seal generations — so loading replays
      them through the same [apply] as the log.
    - the rest: the append-only log. Each record is framed as an 8-digit
      hex length, an ASCII body, and a 32-byte chain MAC where
      [mac_i = HMAC(key, mac_(i-1) || body_i)] and [mac_0] chains from
      [HMAC(key, "anchor|" ^ epoch)]. Replay stops at the first frame
      whose chain MAC fails — a torn tail can hide the records the crash
      interrupted but can never smuggle in forged or stale ones.

    Record vocabulary (the [event] type): [U] metadata update, [I] write
    intent, [C] write commit, [X] device block freed, [D]/[F] page or
    resource dropped, [G] generation bump, [S] sealed-checkpoint
    generation bump. An intent without a commit is the in-flight window
    recovery must treat as suspect. *)

type store = {
  blocks : int;                  (** reserved blocks available to the journal *)
  block_size : int;
  read : int -> bytes;           (** read one reserved block (journal-relative) *)
  write : int -> bytes -> unit;  (** write one reserved block durably *)
}
(** How the journal reaches stable storage. A closure record rather than a
    [Blockdev.t] so the cloak layer stays independent of the guest: the
    kernel wires these to the reserved head of its disk device. *)

val min_blocks : int
(** Smallest usable [store.blocks] (two superblocks, two one-block
    checkpoint areas, one log block). *)

type event =
  | Update of { tag : string; idx : int; version : int; iv : bytes; mac : bytes }
      (** a fresh encryption re-keyed the page: prior durable ciphertext
          for it is now stale, so any recorded bind is invalidated *)
  | Intent of { tag : string; idx : int; dev : string; block : int }
      (** ciphertext for the page is about to be DMA'd to [dev]/[block] *)
  | Commit of { tag : string; idx : int; dev : string; block : int }
      (** the DMA completed; [dev]/[block] now holds the authoritative
          ciphertext for the page's current version *)
  | Freed of { dev : string; block : int }
      (** the guest released the block (truncate, unlink, swap-in): binds
          to it are legitimately gone, not torn *)
  | Dropped_page of { tag : string; idx : int }
  | Dropped_resource of { tag : string }
  | Generation of { id : int; gen : int; size : int; pages : int }
      (** shm object [id] was exported at generation [gen] *)
  | Seal of { tag : string; gen : int }
      (** a sealed checkpoint of resource [tag] was captured at seal
          generation [gen]: any earlier sealed checkpoint for the resource
          is now stale and must never be restored *)

type bind = { dev : string; block : int }
type page = { version : int; iv : bytes; mac : bytes }

type state = {
  pages : (string * int, page) Hashtbl.t;      (** (tag, idx) -> latest metadata *)
  binds : (string * int, bind) Hashtbl.t;      (** committed durable locations *)
  inflight : (string * int, bind) Hashtbl.t;   (** intents without commits *)
  gens : (int, int * int * int) Hashtbl.t;     (** shm id -> gen, size, pages *)
  seals : (string, int) Hashtbl.t;             (** resource tag -> latest seal gen *)
}
(** The journal's materialized view of its own records — what a replay of
    checkpoint + log reconstructs. *)

type t

val attach :
  ?engine:Inject.t -> ?trace:Trace.t -> ?ckpt_every:int -> key:bytes -> store -> t
(** Open the journal for writing: load whatever previous state survives on
    the store, then start a fresh epoch by checkpointing it. [ckpt_every]
    is the compaction cadence in records (default 64). With [trace], every
    append and checkpoint is recorded as a flight-recorder span. Probes [engine] at
    the [Jrnl_append] and [Jrnl_ckpt] hook points; a [Crash_point] drawn
    there tears the write in progress and raises {!Inject.Vmm_crash}.
    Raises [Invalid_argument] if the store is smaller than {!min_blocks}. *)

val record : t -> event -> unit
(** Append one MAC-chained record durably, update the materialized state,
    and notify the observer. Checkpoints first when the log is full or the
    cadence is due. Returns only after the store writes completed — this
    is the write-ahead guarantee callers rely on. *)

val knows : t -> tag:string -> idx:int -> bool
(** Whether the journal holds current metadata for the page — the guard
    callers use before journaling a bind for it. *)

val references_block : t -> dev:string -> block:int -> bool
(** Whether any committed or in-flight bind points at [dev]/[block]; used
    to journal [Freed] only for blocks recovery would otherwise chase. *)

val set_observer : t -> (event -> unit) option -> unit
(** Install a callback invoked after each durably appended record — the
    crash harness's ledger oracle. Never invoked for writes a crash tore. *)

val state : t -> state
val epoch : t -> int
val records_appended : t -> int
val checkpoints_taken : t -> int
val store_writes : t -> int
(** Store block writes issued so far (journal overhead accounting). *)

type recovered = {
  rstate : state;
  repoch : int;
  replayed : int;  (** log records accepted after the checkpoint *)
}

val load : key:bytes -> store -> recovered
(** Read-only recovery entry point: pick the best superblock, verify and
    parse its checkpoint, then replay the log tail, stopping at the first
    chain-MAC failure. Never raises on corrupt or torn input — damage
    simply truncates what is recovered. *)
