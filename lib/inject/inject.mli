(** Deterministic fault-injection engine — the "hostile world" generator.

    Overshadow's guarantee is that a cloaked application stays private and
    intact even when everything beneath it misbehaves. This module makes
    that misbehaviour systematic: a seeded {e fault plan} is a list of
    [{site; trigger; action}] rules, and the layers that touch durable or
    security-critical state ({!Machine.Phys_mem}, {!Machine.Tlb},
    [Guest.Blockdev], [Cloak.Vmm]) probe the engine at named hook points.
    When a rule's trigger matches the site's occurrence count, the layer
    applies the hostile action — a bit-flip, a torn write, a transient I/O
    error, an IV reuse — and the hit is recorded in the shared audit log.

    Everything is deterministic: the same plan against the same workload
    produces the same injections, the same violations and a bit-identical
    audit log, which is what makes chaos failures replayable. *)

module Audit = Audit
(** Re-export: the deterministic, sequence-numbered event log shared by
    the engine and the VMM (see {!Audit.record}). *)

(** Named hook points in the simulated stack. *)
type site =
  | Phys_alloc   (** machine-page allocation (memory exhaustion) *)
  | Phys_write   (** DMA-path writes into machine pages *)
  | Phys_free    (** machine-page release (scrub failures) *)
  | Blk_alloc    (** block allocation on a device *)
  | Blk_read     (** device-to-memory DMA *)
  | Blk_write    (** memory-to-device DMA *)
  | Blk_free     (** block release back to the device free list *)
  | Tlb_insert   (** TLB entry installation *)
  | Tlb_flush    (** guest-initiated INVLPG processing *)
  | Crypto_iv    (** fresh-IV draws in the cloaking engine *)
  | Meta_export  (** protected-object metadata serialization *)
  | Meta_import  (** protected-object metadata verification *)
  | Jrnl_append  (** metadata-journal record append *)
  | Jrnl_ckpt    (** metadata-journal checkpoint write *)
  | Seal_write   (** sealed-checkpoint blob serialization *)
  | Restore      (** sealed-checkpoint verification before a restore *)
  | Mig_send     (** migration frame handed to the untrusted channel *)
  | Mig_recv     (** migration frame delivered to the destination VMM *)
  | Mig_ack      (** acknowledgement handed back over the channel *)
  | Hb_send      (** fleet heartbeat handed to the untrusted network *)
  | Host_power   (** a whole fleet host's power feed (Crash_point kills it) *)

val all_sites : site list
val site_to_string : site -> string

val site_of_string : string -> site option
(** Inverse of {!site_to_string}; used by the CLI's crash-matrix filters. *)

(** What the hostile world does when a rule fires. Layers interpret only
    the actions that make sense for them and ignore the rest. *)
type action =
  | Bit_flip of int     (** flip one bit, at this byte offset (mod length) *)
  | Torn_write of int   (** persist only the first [n] bytes *)
  | Fail_scrub          (** freed page keeps its contents (RAM remanence) *)
  | Io_error            (** transient device error; retryable *)
  | Short_read of int   (** DMA only the first [n] bytes of the block *)
  | Reorder             (** swap this write's payload with the next one's *)
  | Reuse_iv            (** entropy failure: repeat the previous IV *)
  | Exhaust             (** allocation fails as if the pool were empty *)
  | Stale_entry         (** skip the invalidation, leaving a stale entry *)
  | Drop_insert         (** lose the TLB insert *)
  | Crash_point         (** kill the whole VMM at this site — power cut *)
  | Drop                (** lose this frame in flight (lossy channel) *)
  | Duplicate           (** deliver this frame twice (replaying channel) *)
  | Delay of int        (** hold this frame back for [n] deliveries *)

val action_to_string : action -> string

val mangle : action -> bytes -> bytes
(** The one tamper model for bytes in the OS's hands (a DMA payload, a
    device block, a stored blob, a frame in flight): [Bit_flip off] flips
    the low bit of byte [off mod length] in a copy, [Torn_write n] keeps
    the first [n] bytes, and any other action — or a bit-flip of empty
    bytes — returns the input. *)

exception Vmm_crash of string
(** The simulated power cut, carrying the site name it fired at. Raised by
    a layer that draws {!Crash_point}; deliberately NOT caught by the guest
    kernel's containment layers — it unwinds the entire simulated machine,
    exactly like pulling the plug. The crash harness catches it around
    [Kernel.run] and then exercises recovery replay against the surviving
    block-device contents. *)

val crashed : site -> 'a
(** Raise {!Vmm_crash} for [site]; layers call this on {!Crash_point},
    usually after leaving a deliberately torn partial write behind. *)

type trigger = { start : int; every : int; count : int }
(** Fires on site-occurrence numbers [start, start+every, ...] (1-based),
    at most [count] times. *)

val always : trigger
val once : at:int -> trigger

type rule = { site : site; trigger : trigger; action : action }
type plan = { seed : int; rules : rule list }

val plan : ?seed:int -> rule list -> plan
val random_plan : seed:int -> plan
(** A small plan drawn deterministically from [seed]: 1-6 rules over the
    full site menu with site-appropriate actions. *)

val pp_rule : Format.formatter -> rule -> unit
val pp_plan : Format.formatter -> plan -> unit

(** {1 Engine} *)

type t

val create : ?audit:Audit.t -> plan -> t
(** An engine with all rules armed. If [audit] is given, injection hits are
    recorded there (the VMM shares its audit log with the engine so
    injections and violations interleave in event order). *)

val fire : t -> site -> action option
(** Probe a hook point: bump the site's occurrence counter and return the
    first armed rule's action if one matches. *)

val fire_opt : t option -> site -> action option
(** [fire] through an optional engine; [None] engines never fire — the
    fast path when injection is disabled. *)

val audit : t -> Audit.t
val injections : t -> int
(** Total rule firings so far. *)

val occurrences : t -> site -> int
val the_plan : t -> plan
